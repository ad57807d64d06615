"""obembed benchmark: seeded workloads timed end to end, with a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload h1-batch --seed 1 --seconds 30 --trace 0

Workloads (see bench/workloads.py): ``h1-batch``, ``h1-highrank`` and
``cert-roundtrip``.  The harness is stdlib-only, runs in one process as a
closed loop with one client, imports the package from ``src/`` of the
tree it sits in, and checks every output against the committed corpus
(``bench/corpus``, made by ``bench/gen_corpus.py``).

``--trace 0`` repeats whole passes over the sample until ``--seconds``
have elapsed and reports the end-to-end metrics.  Every time among them
is scaled to a reference host speed by the probe of bench/hostspeed.py,
timed between chunks; the report line gives the unscaled figure too.

* ``setup_s``: the median over nine fresh processes of the time from
  the first statement of this script to the end of set-up: the imports
  of the harness and of ``obembed``, loading the corpus and drawing the
  sample.  Each is a new interpreter, so every import in it is cold;
  the bytecode cache is warm, since this process has imported the
  package before them.  The interpreter's own start-up, mostly the
  ``site`` module scanning the installed packages, is left out: it
  belongs to the environment and is its noisiest part.  So is the
  writing of the input files, which the runner does after set-up: on
  a shared disk its time depends on how much earlier runs wrote in the
  last few seconds (300 small files took 44 ms on a quiet disk and
  139 ms right after other writes), not on the package.
* ``throughput_per_s``: items per pass over the time of the median
  pass.
* ``latency_p50_ms`` and ``latency_tail_ms``: over the items of the
  sample, each item's latency being its median over the passes.  The
  tail is the highest percentile with at least ten items beyond it; the
  report line gives the percentile and the item count.  An operation
  that overruns its budget enters at the budget.
* ``peak_rss_mb``: peak resident memory of this process.

Medians over passes ride out bursts of other load on a shared host
that cover fewer than half of the passes, while a cost the program adds
to most passes shows.  The probe's scaling takes out the slower and
faster phases of the host, which last from seconds to minutes.

``--trace 1`` alternates untraced and traced passes (every public layer
function wrapped, bench/tracer.py) in pairs until ``--seconds`` have
elapsed, at least three pairs, checks that every pass gave the same
outputs, and reports per-layer times, self times, calls and size
counters of the first traced pass (unscaled), plus the tracing
overhead: the median over the pairs of the traced minus the untraced
pass time, both scaled.  Spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the operations of the seed's sample once each, not once per pass:
an operation fails if it failed in any pass.  They are therefore the
same for every run of a seed, however many passes fit in ``--seconds``;
the report line also gives the operations run over all passes.  Inputs
are written under ``.bench_work/`` and removed at exit.  ``--smoke``
runs the smallest sample once, for bench/selftest.py.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 9
TRACE_PAIRS = 3
PACKAGE_MODULES = ("obembed", "obembed.cli", "obembed.openbook", "obembed.embedder",
                   "obembed.surface", "obembed.mcg", "obembed.intlinalg")

END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "mcg.word_action.ms": "ms", "mcg.arc_defect.ms": "ms", "mcg.letters": "count",
    "mcg.action_max_bits": "bits",
    "intlinalg.cokernel.ms": "ms", "intlinalg.cokernel.calls": "count",
    "intlinalg.cokernel.max_rank": "count", "intlinalg.cokernel.input_max_bits": "bits",
    "intlinalg.torsion_max_bits": "bits",
    "openbook.parse_openbook.ms": "ms", "surface.lickorish_system.ms": "ms",
    "surface.lickorish_system.calls": "count", "cli.run.self_ms": "ms",
    "openbook.closed_h1.self_ms": "ms", "openbook.closed_h1.calls": "count",
    "openbook.mapping_torus_h1.self_ms": "ms", "openbook.reduce_to_one_boundary.ms": "ms",
    "embedder.build.ms": "ms", "embedder.certificate_to_json.ms": "ms",
    "embedder.cert_bytes": "bytes", "embedder.validate_certificate.self_ms": "ms",
    "embedder.validate_certificate.calls": "count",
    "embedder.h1_recomputes_per_cert": "ratio", "embedder.h1_recomputes_base": "count",
    "trace.overhead_ms": "ms",
}


class SetupError(Exception):
    pass


def load_package():
    """Import the package from this tree's src/ only."""
    if not (SRC / "obembed" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'obembed'}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(name) for name in PACKAGE_MODULES}
    if Path(mods["obembed"].__file__).resolve().parent != (SRC / "obembed").resolve():
        raise SetupError(f"obembed was imported from {mods['obembed'].__file__}")
    return mods


def load_corpus(workload):
    path = BENCH / "corpus" / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"missing corpus {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload, seed, workdir, smoke):
    """Import the package and draw the workload's sample: (modules, workload)."""
    mods = load_package()
    return mods, WORKLOADS[workload](load_corpus(workload), seed, workdir, smoke)


def setup_command(args):
    """Command line of a fresh process that only sets up the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    return cmd + ["--smoke"] if args.smoke else cmd


def time_setup(cmd):
    """Set-up seconds of a fresh set-up-only process, as it reports them."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise SetupError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return float(words[1])


def time_setup_scaled(cmd):
    """(scaled, raw) set-up seconds of a fresh process, probed before and after it."""
    before = hostspeed.probe()
    raw = time_setup(cmd)
    return raw * hostspeed.factor(before, hostspeed.probe()), raw


def run_pass_scaled(wl, mods, tally):
    """Every chunk once, with host-speed probes between chunks (hostspeed.py).

    The probe runs before the first chunk, after the last, and after any
    chunk that ends PROBE_EVERY_S or more after the previous probe.  The
    computing time between two probes, and the item latencies recorded
    in it, are scaled to the reference speed; overrun budgets are not.
    Returns (raw seconds, scaled seconds, the factors used), leaving the
    probes' own time out of both.
    """
    raw = scaled = 0.0
    factors = []
    before = hostspeed.probe()
    start, budget0, overrun0 = time.perf_counter(), tally.budget_s, tally.overrun_s
    for i, chunk in enumerate(wl.chunks):
        wl.run_chunk(chunk, mods, tally)
        wall = time.perf_counter() - start
        if i < len(wl.chunks) - 1 and wall < hostspeed.PROBE_EVERY_S:
            continue
        after = hostspeed.probe()
        f = hostspeed.factor(before, after)
        factors.append(f)
        tally.settle(f)
        budget, overrun = tally.budget_s - budget0, tally.overrun_s - overrun0
        raw += wall
        scaled += (wall - overrun) * f + budget
        before = after
        start, budget0, overrun0 = time.perf_counter(), tally.budget_s, tally.overrun_s
    return raw, scaled, factors


def tail(values):
    """(value, percentile, count beyond): the highest percentile with >= 10 values beyond.

    With ten values or fewer it is the largest, with none beyond.
    """
    n = len(values)
    if n <= 10:
        return values[-1], 100.0, 0
    return values[n - 11], 100.0 * (n - 10) / n, 10


def failures(tally):
    return ", ".join(f"{k} {v}" for k, v in sorted(tally.failed.items())) or "none"


def measure_end_to_end(wl, mods, seconds, setup_times):
    tally = Tally()
    raws, walls, factors = [], [], []
    t0 = time.perf_counter()
    while True:
        raw, scaled, fs = run_pass_scaled(wl, mods, tally)
        raws.append(raw)
        walls.append(scaled)
        factors.extend(fs)
        tally.outputs.clear()   # only the traced run compares outputs
        if time.perf_counter() - t0 >= seconds:
            break
    passes = len(walls)
    per_pass = tally.items // passes
    median_pass = statistics.median(walls)
    lat = sorted(statistics.median(v) for v in tally.latencies.values())
    tail_value, pct, beyond = tail(lat)
    setup_s = statistics.median(t for t, _ in setup_times)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": per_pass / median_pass,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": "median of %d fresh processes: %s; unscaled median %.4f" % (
            len(setup_times), " ".join(f"{t:.4f}" for t, _ in setup_times),
            statistics.median(raw for _, raw in setup_times)),
        "throughput_per_s": f"{per_pass} items per pass, median pass {median_pass:.3f} s "
                            f"of {passes}; unscaled {per_pass / statistics.median(raws):.3f}/s, "
                            f"speed factors {min(factors):.3f}-{max(factors):.3f} "
                            f"(median {statistics.median(factors):.3f})",
        "latency_p50_ms": f"over {len(lat)} items, median of {passes} passes each",
        "latency_tail_ms": f"p{pct:.2f} over {len(lat)} items, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss",
    }
    return tally, metrics, notes


def measure_traced(wl, mods, seconds, trace_path):
    """Untraced and traced passes in pairs; per-layer metrics of the first traced one.

    Pairs go on until ``seconds`` have elapsed, at least TRACE_PAIRS of
    them.  The overhead is the median over the pairs of the traced minus
    the untraced pass time, both scaled to the reference host speed, so
    that a change of machine speed does not read as overhead.  The
    per-layer times are the tracer's, unscaled.
    """
    diffs = []
    first = None
    wrong = []
    reference = None
    t0 = time.perf_counter()
    while len(diffs) < TRACE_PAIRS or time.perf_counter() - t0 < seconds:
        walls = {}
        for traced in (False, True):
            tally = Tally()
            tracer = Tracer(mods)
            if traced:
                with tracer:
                    walls[traced] = run_pass_scaled(wl, mods, tally)[1]
            else:
                walls[traced] = run_pass_scaled(wl, mods, tally)[1]
            wrong.extend(tally.wrong)
            if reference is None:
                reference = tally.outputs
            elif tally.outputs != reference:
                wrong.append(f"{'traced' if traced else 'untraced'} pass outputs differ "
                             "from the first pass")
            if traced and first is None:
                first = (tally, tracer)
        diffs.append(walls[True] - walls[False])
    tally, tracer = first
    tally.wrong = wrong
    tracer.write(trace_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ms"] = statistics.median(diffs) * 1e3
    notes = {"trace.overhead_ms": f"median over {len(diffs)} pairs of traced minus "
                                  f"untraced scaled pass; pairs range "
                                  f"{min(diffs) * 1e3:.3f} to {max(diffs) * 1e3:.3f} ms",
             "embedder.h1_recomputes_per_cert": "closed_h1 calls inside embedder per "
                                                "s5 plan built or validated"}
    return tally, metrics, notes, len(tracer.spans)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sample, one pass (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        try:
            mods, wl = set_up(args.workload, args.seed, workdir, args.smoke)
            if args.setup_only:
                print(f"ready {time.perf_counter() - T_PROCESS!r}")
                return 0
            setup_s = time.perf_counter() - T_PROCESS
            workdir.mkdir(parents=True)
            wl.write_inputs()
            seconds = 0.0 if args.smoke else args.seconds
            if args.trace:
                out_dir = ROOT / ".bench_out"
                out_dir.mkdir(exist_ok=True)
                trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
                tally, metrics, notes, nspans = measure_traced(wl, mods, seconds, trace_path)
                units = PER_LAYER_UNITS
                notes["spans"] = f"{nspans} spans written to {trace_path.relative_to(ROOT)}"
            else:
                cmd = setup_command(args)
                setup_times = [time_setup_scaled(cmd)
                               for _ in range(1 if args.smoke else SETUP_PROCESSES)]
                tally, metrics, notes = measure_end_to_end(wl, mods, seconds, setup_times)
                notes["setup_s"] += f"; this process {setup_s:.4f} after interpreter start"
                units = END_TO_END_UNITS
        except SetupError as exc:
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed = sum(tally.failed.values())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations in the sample, {failed} failed "
          f"({failures(tally)}); {tally.runs} operations run over all passes")
    for name in units:
        note = notes.get(name, "")
        print(f"  {name:40s} {metrics[name]:>16.6f} {units[name]:6s} {note}")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    for line in tally.wrong:
        print(f"  WRONG: {line}")
    result = {"correct": not tally.wrong, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
