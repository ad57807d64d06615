"""The three benchmark workloads.

Each workload draws its sample from the committed corpus with the run's
seed and lays out its input files for the run's work directory (set-up),
and then runs the sample in chunks through the package's public entry
points, checking every output against the corpus.  A pass is every
chunk once.

Items and operations:

* ``h1-batch`` and ``h1-highrank``: an item is a book; its operations
  are one ``h1`` and one ``mt-h1`` record (``h1`` only for the books of
  ``h1-highrank`` that time out today).  A book of ``h1-highrank`` that
  is a one-boundary reduction has one more operation first: ``reduce``
  of the book it came from, whose output must equal the corpus text.
* ``cert-roundtrip``: an item is a certificate.  A valid certificate is
  built (one operation) and validated (one operation); a tampered one is
  validated once.

An operation fails if it gives a wrong answer, raises, overruns its
budget, or lets a curated tamper through.  Wrong answers also make the
run incorrect; exceptions and timeouts are failures of today's code.
Each operation of the sample is counted once however many passes run
it (``Tally``), so a seed's attempted and failed counts do not depend
on the machine's speed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import signal
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class BudgetExceeded(BaseException):
    """Raised by the interval timer when an operation overruns its budget.

    A BaseException, so that no handler inside the package catches it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def call_with_budget(budget, fn, *args):
    """Run fn(*args) under an interval-timer budget: (result, error, seconds).

    error is None, "timeout", or the exception fn raised.  The caller
    must have installed the SIGALRM handler (``install_budget_timer``).
    """
    t0 = perf()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return None, "timeout", perf() - t0
    except Exception as exc:  # noqa: BLE001 - a raising operation is a measured failure
        return None, exc, perf() - t0
    return result, None, perf() - t0


def install_budget_timer():
    signal.signal(signal.SIGALRM, _on_alarm)


class RecordClock(io.TextIOBase):
    """Output stream that timestamps each newline-terminated record."""

    def __init__(self):
        super().__init__()
        self._parts = []
        self.lines = []
        self.stamps = []

    def writable(self):
        return True

    def write(self, s):
        self._parts.append(s)
        if s.endswith("\n"):
            now = perf()
            for line in "".join(self._parts).splitlines():
                self.lines.append(line)
                self.stamps.append(now)
            self._parts = []
        return len(s)


class Tally:
    """Item latencies, operation outcomes, wrong answers and outputs of passes.

    Every pass runs the same operations of the sample.  ``attempted`` and
    ``failed`` count those operations once each, whatever the number of
    passes, so the same seed gives the same counts; an operation counts
    as failed if it failed in any pass, with the cause of its first
    failure.  ``runs`` counts every operation of every pass.

    An item's latency is held back (``pending``) until the runner calls
    ``settle`` with the factor that scales its computing time to the
    reference host speed (``hostspeed.py``).  The time an item spent in
    operations that overran their budget is not computing time: it
    enters at the budget, unscaled.
    """

    def __init__(self):
        self.latencies = defaultdict(list)   # item key -> seconds, one per pass
        self.pending = []                    # (item key, computing s, budget s)
        self.items = 0
        self.budget_s = 0.0                  # budgets of the operations that overran
        self.overrun_s = 0.0                 # wall time those operations took
        self.runs = 0
        self.outcomes = {}                   # operation key -> None or failure cause
        self.wrong = []                      # descriptions of wrong answers
        self.outputs = []                    # what the package returned, in order

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        """cause -> number of operations of the sample that failed with it."""
        return Counter(c for c in self.outcomes.values() if c is not None)

    def item(self, key, seconds, budget_s=0.0):
        self.pending.append((key, seconds, budget_s))
        self.items += 1

    def overran(self, elapsed, budget):
        self.overrun_s += elapsed
        self.budget_s += budget

    def settle(self, factor):
        """Record the pending items' latencies, computing time scaled by factor."""
        for key, seconds, budget_s in self.pending:
            self.latencies[key].append(seconds * factor + budget_s)
        self.pending = []

    def op(self, key, cause=None, detail=None):
        self.runs += 1
        if self.outcomes.get(key) is None:
            self.outcomes[key] = cause
        if cause in ("wrong", "missed_tamper") and len(self.wrong) < 20:
            self.wrong.append(detail)


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sample_rungs(rng, books, prefix, per_rung, per_rung_except=None):
    """per_rung books of each rung (class) under prefix, in rung order."""
    rungs = defaultdict(list)
    for b in books:
        if b["class"].startswith(prefix):
            rungs[b["class"]].append(b)
    picked = []
    for name in sorted(rungs):
        picked.extend(rng.sample(rungs[name], (per_rung_except or {}).get(name, per_rung)))
    return picked


class Inputs:
    """Input files of a workload, held in memory until ``write_inputs``.

    Set-up chooses the sample and lays out its files; the runner writes
    them once set-up has been timed (see run.py).
    """

    def __init__(self):
        self.files = {}                      # path -> text

    def add_file(self, path, text):
        self.files[str(path)] = text
        return str(path)

    def add_books(self, books, workdir, tag):
        for i, b in enumerate(books):
            b["path"] = self.add_file(workdir / f"{tag}{i:04d}.ob", b["text"])

    def write_inputs(self):
        for path, text in self.files.items():
            write_text(path, text)


def _check_h1(tally, book, cmd, result):
    want = book["h1" if cmd == "h1" else "mt_h1"]
    tally.outputs.append((cmd, book["id"], result))
    if result != want:
        tally.op((cmd, book["id"]), "wrong",
                 f"{cmd} {book['id']}: got {result}, expected {want}")
    else:
        tally.op((cmd, book["id"]))


def _page(book):
    """(genus, boundary) from the book's text; boundary above 3 counts as 3."""
    lines = book["text"].splitlines()
    return int(lines[1].split()[1]), min(int(lines[2].split()[1]), 3)


class H1Batch(Inputs):
    """Hundreds of small books through ``h1 --manifest`` then ``mt-h1 --manifest``.

    The sample has fixed sizes for every seed: the same number of tiny
    books on each page (g <= 2, n <= 3) and the same number of medium
    books on each rung, so seeds differ in the words only.  Every medium
    book of the rungs below (7,2,600) enters, in the seed's order: the
    tail percentile falls among them, and a seed's choice among books
    whose times differ by a seventh would move it more than the bound.
    """

    TINY_PER_PAGE = 60
    MEDIUM_PER_RUNG = {"medium:7,2,600": 1}   # every other rung: all 6
    MEDIUM_DEFAULT = 6

    def __init__(self, corpus, seed, workdir, smoke=False):
        super().__init__()
        rng = random.Random(f"h1-batch:{seed}")
        books = corpus["books"]
        for i, b in enumerate(books):
            b["id"] = i
        pages = defaultdict(list)
        for b in books:
            if b["class"] == "tiny":
                pages[_page(b)].append(b)
        if smoke:
            groups = [[rng.choice(pages[page]) for page in sorted(pages)]]
        else:
            tiny = [b for page in sorted(pages)
                    for b in rng.sample(pages[page], self.TINY_PER_PAGE)]
            rng.shuffle(tiny)
            medium = _sample_rungs(rng, books, "medium:", self.MEDIUM_DEFAULT,
                                   self.MEDIUM_PER_RUNG)
            rng.shuffle(medium)
            # one medium book per chunk, the tiny ones dealt round-robin
            groups = [[m] + tiny[i::len(medium)] for i, m in enumerate(medium)]
            for group in groups:
                rng.shuffle(group)
        self.chunks = []
        for c, group in enumerate(groups):
            group = [dict(b) for b in group]
            self.add_books(group, workdir, f"c{c:02d}-")
            manifest = self.add_file(workdir / f"c{c:02d}.manifest",
                                     "".join(b["path"] + "\n" for b in group))
            self.chunks.append((manifest, group))

    def run_chunk(self, chunk, mods, tally):
        cli = mods["obembed.cli"]
        manifest, books = chunk
        per_book = [0.0] * len(books)
        for cmd in ("h1", "mt-h1"):
            out = RecordClock()
            t0 = perf()
            try:
                cli.run([cmd, "--manifest", manifest], out=out, err=io.StringIO())
            except Exception:  # noqa: BLE001 - a batch abort is a measured failure
                pass
            prev = t0
            for i, book in enumerate(books):
                if i >= len(out.lines):
                    tally.op((cmd, book["id"]), "exception",
                             f"{cmd} batch aborted before {book['id']}")
                    per_book[i] += perf() - prev
                    continue
                per_book[i] += out.stamps[i] - prev
                prev = out.stamps[i]
                rec = json.loads(out.lines[i])
                if rec.get("input") != book["path"]:
                    tally.op((cmd, book["id"]), "wrong",
                             f"{cmd}: record {i} is for {rec.get('input')}")
                elif "error" in rec:
                    tally.outputs.append((cmd, book["id"], rec["error"]))
                    tally.op((cmd, book["id"]), "exception",
                             f"{cmd} {book['id']}: {rec['error']}")
                else:
                    _check_h1(tally, book, cmd, rec.get("result"))
        for book, seconds in zip(books, per_book):
            tally.item(book["id"], seconds)


class H1Highrank(Inputs):
    """Rank 16-24 books through ``h1`` and ``mt-h1``, each under a budget.

    Books that are one-boundary reductions are first reduced again from
    the book they came from, under the same budget.
    """

    FAST_PER_RUNG = 3
    SLOW = 3

    def __init__(self, corpus, seed, workdir, smoke=False):
        super().__init__()
        rng = random.Random(f"h1-highrank:{seed}")
        self.budget = float(corpus["budget_s"])
        books = corpus["books"]
        for i, b in enumerate(books):
            b["id"] = i
        slow = [b for b in books if b["class"].startswith("slow:")]
        if smoke:
            fast = [b for b in books if b["class"].startswith("fast:")]
            groups = [fast[:1] + [b for b in fast if "source" in b][:1] + slow[:1]]
        else:
            fast = _sample_rungs(rng, books, "fast:", self.FAST_PER_RUNG)
            rng.shuffle(fast)
            slow = rng.sample(slow, self.SLOW)
            per = len(fast) // self.SLOW
            groups = [fast[i * per:(i + 1) * per] + [s] for i, s in enumerate(slow)]
        self.chunks = []
        for c, group in enumerate(groups):
            group = [dict(b) for b in group]
            self.add_books(group, workdir, f"c{c:02d}-")
            for i, b in enumerate(group):
                if "source" in b:
                    b["source_path"] = self.add_file(workdir / f"c{c:02d}-{i:04d}.source.ob",
                                                     b["source"])
            self.chunks.append(group)
        install_budget_timer()

    def _call(self, cli, cmd, argv, book, tally):
        """One CLI operation under the budget: (output or None if it failed, seconds, budget).

        An operation that overruns counts the budget and no computing time.
        """
        out = io.StringIO()
        code, error, elapsed = call_with_budget(self.budget, cli.run, argv, out,
                                                io.StringIO())
        if error is None and code != 0:
            error = f"exit {code}"
        if error == "timeout":
            tally.outputs.append((cmd, book["id"], "timeout"))
            tally.op((cmd, book["id"]), "timeout")
            tally.overran(elapsed, self.budget)
            return None, 0.0, self.budget
        if error is not None:
            tally.outputs.append((cmd, book["id"], repr(error)))
            tally.op((cmd, book["id"]), "exception", f"{cmd} {book['id']}: {error!r}")
            return None, elapsed, 0.0
        return out.getvalue(), elapsed, 0.0

    def run_chunk(self, books, mods, tally):
        cli = mods["obembed.cli"]
        for book in books:
            seconds = budget_s = 0.0
            if "source" in book:
                text, elapsed, budget = self._call(cli, "reduce",
                                                   ["reduce", book["source_path"]], book, tally)
                seconds += elapsed
                budget_s += budget
                if text is not None:
                    tally.outputs.append(("reduce", book["id"], text))
                    tally.op(("reduce", book["id"]), None if text == book["text"] else "wrong",
                             f"reduce {book['id']}: output differs from the corpus text")
            # Slow books have one boundary component, where mt-h1 repeats
            # h1's cokernel exactly; one timeout per book is enough.
            cmds = ("h1",) if book["class"].startswith("slow:") else ("h1", "mt-h1")
            for cmd in cmds:
                text, elapsed, budget = self._call(cli, cmd, [cmd, book["path"], "--json"],
                                                   book, tally)
                seconds += elapsed
                budget_s += budget
                if text is not None:
                    _check_h1(tally, book, cmd, json.loads(text))
            tally.item(book["id"], seconds, budget_s)


# -- certificates --------------------------------------------------------------

# Integers stay small: a certificate whose genus or boundary count is huge
# makes today's validator allocate without bound (no input limits yet).
_RANDOM_VALUES = [None, True, 0, -1, 7, 0.5, "", "x", [], {}, [1], {"num": 1, "den": 0}]
TAMPER_BUDGET_S = 2.0
_OUTSIDE_LEVELS = [{"num": 1, "den": 2}, {"num": 3, "den": 4},
                   {"num": 0, "den": 1}, {"num": -1, "den": 4}]


def _paths(obj, prefix=()):
    if prefix:
        yield prefix
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _paths(obj[k], prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


def _parent(obj, path):
    for p in path[:-1]:
        obj = obj[p]
    return obj


def random_tamper(cert, rng):
    """One seeded single-field mutation: replace a value or drop a key."""
    cert = copy.deepcopy(cert)
    path = rng.choice(list(_paths(cert)))
    parent, key = _parent(cert, path), path[-1]
    if isinstance(parent, dict) and rng.random() < 0.15:
        del parent[key]
        return cert, f"drop {'/'.join(map(str, path))}"
    current = parent[key]
    choices = [v for v in _RANDOM_VALUES if not (type(v) is type(current) and v == current)]
    parent[key] = copy.deepcopy(rng.choice(choices))
    return cert, f"set {'/'.join(map(str, path))}={parent[key]!r}"


def curated_tamper(kind, cert, rng):
    """One must-detect single-field mutation for the certificate's kind."""
    cert = copy.deepcopy(cert)
    options = []
    if kind in ("witness", "flexible"):
        page = cert["scene"]["page_certificate"] if kind == "witness" else cert
        if page["schedule"]:
            options.append("level")
    if kind == "witness":
        if cert["schedule"]:
            options.append("drop_letter")
        options.append("target")
    if kind == "flexible":
        options.append("euler")
    if kind == "annulus":
        options += ["realized_power", "core_power"]
    if kind == "s5":
        options.append("h1_before")
        if cert["schedule"]["monodromy"]:
            options.append("drop_letter")
    what = rng.choice(options)
    if what == "level":
        entry = rng.choice(page["schedule"])
        entry["level"] = dict(rng.choice(_OUTSIDE_LEVELS))
    elif what == "drop_letter":
        letters = cert["schedule"] if kind == "witness" else cert["schedule"]["monodromy"]
        letters.pop(rng.randrange(len(letters)))
    elif what == "target":
        cert["scene"]["target"] = "twisted" if cert["scene"]["target"] == "S3xS2" else "S3xS2"
    elif what == "euler":
        cert["checks"]["euler_capped"] += rng.choice((-1, 1))
    elif what == "realized_power":
        cert["checks"]["realized_power"] += rng.choice((-1, 1))
    elif what == "core_power":
        cert["schedule"][0]["core_twist_power"] += rng.choice((-1, 1))
    elif what == "h1_before":
        cert["checks"]["h1_before"]["free_rank"] += 1
    return cert, what


def _dumps(cert):
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


class CertRoundtrip(Inputs):
    """Build, serialize and validate certificates; validate tampered ones."""

    CHUNKS = 24
    PER_CHUNK = {"witness": 6, "flexible": 2, "annulus": 1, "s5": 1}

    def __init__(self, corpus, seed, workdir, smoke=False):
        super().__init__()
        self.seed = seed
        rng = random.Random(f"cert-roundtrip:{seed}")
        by_kind = defaultdict(list)
        for i, spec in enumerate(corpus["specs"]):
            spec["id"] = i
            by_kind[spec["kind"]].append(spec)
        chunks = 1 if smoke else self.CHUNKS
        picked = {kind: rng.sample(by_kind[kind], n * chunks)
                  for kind, n in self.PER_CHUNK.items()}
        self.chunks = []
        for c in range(chunks):
            group = []
            for kind, n in self.PER_CHUNK.items():
                group.extend(dict(s) for s in picked[kind][c * n:(c + 1) * n])
            rng.shuffle(group)
            for i, spec in enumerate(group):
                spec["cert"] = str(workdir / f"c{c:02d}-{i:02d}.json")
                if "text" in spec:
                    spec["path"] = self.add_file(workdir / f"c{c:02d}-{i:02d}.ob",
                                                 spec["text"])
            manifest = self.add_file(workdir / f"c{c:02d}.manifest",
                                     "".join(s["cert"] + "\n" for s in group))
            self.chunks.append((manifest, group))
        install_budget_timer()

    def _build(self, spec, mods):
        kind = spec["kind"]
        if kind == "witness":
            mods["obembed.cli"].run(["embed", spec["path"], "--framing", str(spec["framing"]),
                                     "--out", spec["cert"]], out=io.StringIO(),
                                    err=io.StringIO())
            return
        if kind == "s5":
            mods["obembed.cli"].run(["embed-s5", spec["path"], "--out", spec["cert"]],
                                    out=io.StringIO(), err=io.StringIO())
            return
        embedder = mods["obembed.embedder"]
        if kind == "flexible":
            cert = embedder.build_flexible_embedding(mods["obembed"].Surface(*spec["page"]),
                                                     spec["framing"])
        else:
            ob = mods["obembed.openbook"].read_openbook(spec["path"])
            cert = embedder.build_annulus_s5(ob)
        write_text(spec["cert"], embedder.certificate_to_json(cert))

    def run_chunk(self, chunk, mods, tally):
        manifest, specs = chunk
        validate = mods["obembed.embedder"].validate_certificate
        seconds = {}
        texts = {}
        for spec in specs:
            t0 = perf()
            try:
                self._build(spec, mods)
                with open(spec["cert"], "rb") as fh:
                    data = fh.read()
            except Exception as exc:  # noqa: BLE001 - counted, not hidden
                data = b""
                tally.op(("build", spec["id"]), "exception", f"build {spec['id']}: {exc!r}")
            else:
                digest = hashlib.sha256(data).hexdigest()
                tally.outputs.append(("build", spec["id"], digest))
                tally.op(("build", spec["id"]), None if digest == spec["sha256"] else "wrong",
                         f"certificate {spec['id']} ({spec['kind']}) is not byte-identical")
            seconds[spec["id"]] = perf() - t0
            texts[spec["id"]] = data.decode("utf-8")

        out = RecordClock()
        t0 = perf()
        try:
            mods["obembed.cli"].run(["validate", "--manifest", manifest], out=out,
                                    err=io.StringIO())
        except Exception:  # noqa: BLE001 - a batch abort is a measured failure
            pass
        prev = t0
        for i, spec in enumerate(specs):
            if i >= len(out.lines):
                tally.op(("validate", spec["id"]), "exception",
                         f"validate batch aborted before {spec['id']}")
                continue
            seconds[spec["id"]] += out.stamps[i] - prev
            prev = out.stamps[i]
            rec = json.loads(out.lines[i])
            tally.outputs.append(("validate", spec["id"], rec.get("violations", rec)))
            if rec.get("violations") != []:
                tally.op(("validate", spec["id"]), "wrong",
                         f"valid certificate {spec['id']} rejected: {rec}")
            else:
                tally.op(("validate", spec["id"]))
            tally.item(("cert", spec["id"]), seconds[spec["id"]])

        for spec in specs:
            if not texts[spec["id"]]:
                continue
            cert = json.loads(texts[spec["id"]])
            for case, make in (("curated", curated_tamper), ("random", random_tamper)):
                rng = random.Random(f"tamper:{self.seed}:{spec['id']}:{case}")
                if case == "curated":
                    bad, what = make(spec["kind"], cert, rng)
                else:
                    bad, what = make(cert, rng)
                verdict, error, elapsed = call_with_budget(TAMPER_BUDGET_S, validate,
                                                           _dumps(bad))
                budget_s = 0.0
                if error == "timeout":
                    tally.overran(elapsed, TAMPER_BUDGET_S)
                    elapsed, budget_s = 0.0, TAMPER_BUDGET_S
                if error is not None:
                    cause = "timeout" if error == "timeout" else "exception"
                    tally.outputs.append((case, spec["id"], cause if error == "timeout"
                                          else type(error).__name__))
                    tally.op((case, spec["id"]), cause)
                else:
                    tally.outputs.append((case, spec["id"], verdict))
                    if case == "curated" and not verdict:
                        tally.op((case, spec["id"]), "missed_tamper",
                                 f"{spec['kind']} {spec['id']}: {what} not detected")
                    else:
                        tally.op((case, spec["id"]))
                tally.item((case, spec["id"]), elapsed, budget_s)

        # The next pass writes each certificate as a new file.  Rewriting
        # an existing one in place makes the file system flush it on close,
        # a stall whose length depends on the disk's other traffic.
        for spec in specs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(spec["cert"])


WORKLOADS = {"h1-batch": H1Batch, "h1-highrank": H1Highrank,
             "cert-roundtrip": CertRoundtrip}
