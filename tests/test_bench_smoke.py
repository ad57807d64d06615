"""Smoke run of the benchmark harness: one smallest pass per workload.

Runs ``bench/run.py --smoke`` in a subprocess, untraced and traced, and
checks only the shape of its last-line JSON, that every output was
correct and that no operation failed; there are no timing asserts.  The
traced run catches a package change that breaks the outside tracer, or
routes the word action, the cokernel (h1 workloads) or the boundary
reduction (``h1-highrank``, ``cert-roundtrip``) around the names it
wraps.  The full ``bench/selftest.py`` stays out of this suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["h1-batch", "h1-highrank", "cert-roundtrip"]
END_TO_END = {"setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms",
              "peak_rss_mb"}


def smoke_report(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke(workload):
    report = smoke_report(workload, "0")
    assert {"correct", "attempted", "failed", "metrics"} <= set(report)
    assert set(report["metrics"]) == END_TO_END
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    assert report["correct"] is True
    assert report["attempted"] > 0
    # an operation that raises or overruns its budget fails the smoke run
    assert report["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke_traced(workload):
    report = smoke_report(workload, "1")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(report["metrics"]) == {m["name"] for m in per_layer}
    assert report["correct"] is True
    # the tracer wraps each name where its callers look it up; a call that
    # bypasses the name reads 0
    values = {name: m["value"] for name, m in report["metrics"].items()}
    if workload in ("h1-batch", "h1-highrank"):
        # word_action and cokernel, looked up by closed_h1 and mapping_torus_h1
        assert values["mcg.letters"] > 0
        assert values["mcg.word_action.ms"] > 0
        assert values["intlinalg.cokernel.calls"] > 0
    if workload in ("h1-highrank", "cert-roundtrip"):
        # reduce_to_one_boundary, looked up by cli and embedder
        assert values["openbook.reduce_to_one_boundary.ms"] > 0
