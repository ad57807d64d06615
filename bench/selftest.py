"""Fast self-test of the benchmark harness; no timing asserts.

    python3 bench/selftest.py

For each workload it runs the smallest sample (``--smoke``) untraced
and traced, checks the output schema and that every output was
correct, and runs the traced pass a second time to check that the size
counters repeat exactly for the same seed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIZE_COUNTERS = ("mcg.letters", "mcg.action_max_bits", "intlinalg.cokernel.max_rank",
                 "intlinalg.cokernel.input_max_bits", "intlinalg.torsion_max_bits",
                 "embedder.cert_bytes")


def run(workload, trace, seed=7):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name], entry
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def main():
    for workload in WORKLOADS:
        plain = run(workload, 0)
        check_schema(plain, END_TO_END_UNITS)
        assert all(plain["metrics"][m]["value"] > 0 for m in END_TO_END_UNITS), plain
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_schema(result, PER_LAYER_UNITS)
        for name in SIZE_COUNTERS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: size counter {name} changed: {a} != {b}"
        assert first["failed"] == second["failed"] == plain["failed"]
        print(f"selftest {workload}: ok ({plain['attempted']} operations, "
              f"{plain['failed']} failed)")


if __name__ == "__main__":
    main()
