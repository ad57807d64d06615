"""Generate the committed benchmark corpus and its expected answers.

Run from the repository root (needs sympy; the harness does not):

    python3 bench/gen_corpus.py [h1-batch] [h1-highrank] [cert-roundtrip]

It writes ``bench/corpus/{h1-batch,h1-highrank,cert-roundtrip}.json``.
Books come from a fixed master seed.  Every expected H1 value is
computed here from an independent model of the monodromy (transvections
re-derived from the curve classes, not the package's ``word_action``)
and checked against independent oracles before it is recorded:

* sympy's invariant factors (the recorded value),
* fraction-free Bareiss elimination: free rank = rows - rank, and the
  torsion order equals |det| (square) or divides a maximal minor,
* stabilization invariance: the one-boundary reduction of a book has
  the same closed H1,
* the closed forms of two known families: ``t(d1)^p`` on the annulus
  gives Z/p (mapping torus Z^2), and the empty word on Sigma_{0,n}
  gives Z^{n-1} (mapping torus Z^n),
* the package's own answer, wherever it finishes within the cap.

``h1-highrank`` books are classed by today's time per operation against
the harness budget: ``fast`` books finish each operation in under a
fifth of it, ``slow`` books do not finish within ten times it.  Books in
between are dropped, so the class does not flip with machine noise.
The timings depend on the machine that ran this script; they are
recorded beside each book.  Certificates are pinned by the SHA-256 of
their canonical JSON bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from sympy import Matrix, ZZ  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

import obembed  # noqa: E402
from obembed import embedder  # noqa: E402
from obembed.openbook import (closed_h1, mapping_torus_h1, parse_openbook,  # noqa: E402
                              reduce_to_one_boundary, serialize_openbook,
                              stabilize_positive, SameBoundary)

MASTER_SEED = 1806_09784
BUDGET_S = 1.0          # per-operation budget of h1-highrank
FAST_SHARE = 0.2        # fast: every operation under BUDGET_S * FAST_SHARE
SLOW_FACTOR = 10.0      # slow: h1 does not finish within BUDGET_S * SLOW_FACTOR
PACKAGE_CAP_S = 20.0    # cap on the package cross-check of ordinary books

# h1-batch: tiny books are drawn from one pool; medium books sit on rungs
# of (genus, boundary, word length), so every sample has the same sizes.
TINY_POOL = 1200
MEDIUM_RUNGS = [(3, 2, 100), (4, 3, 150), (5, 2, 250), (5, 3, 300), (6, 2, 400), (7, 2, 600)]
MEDIUM_PER_RUNG = 6
# h1-highrank: ranks 16..24; "R" rungs are one-boundary reductions of
# the given page, the books embed-s5 and validate compute on.  Their
# unreduced book is kept as "source", so the harness can time the
# reduction too.
# Slow books have short words with large exponents, so their word action
# ends well inside the budget and the time runs out in the cokernel.
FAST_RUNGS = [("", 8, 1, 40), ("", 8, 2, 40), ("", 9, 1, 40), ("", 8, 3, 40),
              ("", 9, 2, 40), ("", 10, 1, 40), ("", 9, 3, 40), ("", 10, 2, 40),
              ("", 11, 1, 40), ("", 12, 1, 40), ("R", 6, 3, 40), ("R", 8, 3, 40)]
FAST_PER_RUNG = 6
FAST_EXPONENTS = (1, 2, 3, -1, -2, -3)
SLOW_RUNGS = [("", 11, 1, 120), ("", 12, 1, 150), ("", 10, 3, 150), ("R", 9, 3, 120)]
SLOW_WANTED = 8
SLOW_EXPONENTS = tuple(range(-9, 0)) + tuple(range(1, 10))


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def timed(fn, cap):
    """(result, seconds), or (None, seconds) when fn overran cap."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        result = fn()
    except _Timeout:
        result = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# independent model: default curve classes, pairing, transvections, arcs


def default_classes(g, n):
    """Classes of the documented default curve system on Sigma_{g,n}."""
    rank = 2 * g + max(n - 1, 0)

    def unit(i):
        return [1 if k == i else 0 for k in range(rank)]

    def d(j):
        if j <= n - 1:
            return unit(2 * g + j - 1)
        return [-1 if k >= 2 * g else 0 for k in range(rank)]

    cls = {}
    for i in range(1, g + 1):
        cls[f"a{i}"] = unit(2 * i - 2)
        cls[f"b{i}"] = unit(2 * i - 1)
    for i in range(1, g):
        cls[f"c{i}"] = [x - y for x, y in zip(unit(2 * i - 2), unit(2 * i))]
    if not (g == 0 and n == 1):
        for j in range(1, n + 1):
            cls[f"d{j}"] = d(j)
    if n >= 2 and not (g == 0 and n == 2):
        for j in range(1, n):
            cls[f"e{j}"] = [x + y for x, y in zip(d(j), d(j + 1))]
    return cls


def parse_book(text):
    lines = text.splitlines()
    g = int(lines[1].split()[1])
    n = int(lines[2].split()[1])
    word = []
    for tok in lines[3].split()[1:]:
        name, _, exp = tok[2:].partition(")")
        word.append((name, int(exp[1:]) if exp else 1))
    classes = default_classes(g, n)
    for line in lines[4:]:
        if line.startswith("config "):
            classes = {c["name"]: list(c["class"])
                       for c in json.loads(line[len("config "):])["curves"]}
    return g, n, word, classes


def pair(x, y, g):
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(g))


def model(text):
    """(Phi - I, defect columns) from first principles."""
    g, n, word, classes = parse_book(text)
    rank = 2 * g + max(n - 1, 0)
    # Phi = T_1 ... T_L; build it column by column: Phi e_k.
    cols = []
    for k in range(rank):
        x = [1 if i == k else 0 for i in range(rank)]
        for name, e in reversed(word):
            c = classes[name]
            t = e * pair(x, c, g)
            if t:
                x = [a + t * b for a, b in zip(x, c)]
        cols.append(x)
    phi_minus_i = [[cols[j][i] - (1 if i == j else 0) for j in range(rank)]
                   for i in range(rank)]
    defects = []
    for arc in range(1, n):
        v = [0] * rank
        for name, e in reversed(word):
            c = classes[name]
            t = e * (c[2 * g + arc - 1] + pair(v, c, g))
            if t:
                v = [a + t * b for a, b in zip(v, c)]
        defects.append(v)
    return phi_minus_i, defects


def bareiss(rows):
    """(rank, a nonzero rank-sized minor up to sign), fraction-free."""
    a = [list(r) for r in rows]
    m = len(a)
    ncols = len(a[0]) if a else 0
    rank, prev, col = 0, 1, 0
    while rank < m and col < ncols:
        p = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if p is None:
            col += 1
            continue
        a[rank], a[p] = a[p], a[rank]
        piv = a[rank][col]
        for i in range(rank + 1, m):
            for j in range(col + 1, ncols):
                a[i][j] = (a[i][j] * piv - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = piv
        rank += 1
        col += 1
    return rank, (prev if rank else 1)


def oracle_cokernel(rows, nrows):
    """Z^nrows / column span, by sympy, checked against Bareiss."""
    if nrows == 0:
        return {"free_rank": 0, "torsion": []}
    ncols = len(rows[0])
    if ncols == 0:
        return {"free_rank": nrows, "torsion": []}
    factors = [int(f) for f in invariant_factors(Matrix(rows), domain=ZZ)]
    nonzero = [abs(f) for f in factors if f != 0]
    free = nrows - len(nonzero)
    torsion = sorted(f for f in nonzero if f >= 2)
    rho, minor = bareiss(rows)
    if free != nrows - rho:
        raise AssertionError(f"free rank: sympy {free}, Bareiss {nrows - rho}")
    order = 1
    for f in torsion:
        order *= f
    if rho == nrows == ncols:
        if order != abs(minor):
            raise AssertionError(f"torsion order {order} != |det| {abs(minor)}")
    elif rho == nrows and minor % order:
        raise AssertionError("torsion order does not divide a maximal minor")
    return {"free_rank": free, "torsion": torsion}


def expected_h1(text):
    phi_minus_i, defects = model(text)
    rank = len(phi_minus_i)
    rows = [phi_minus_i[i] + [d[i] for d in defects] for i in range(rank)]
    closed = oracle_cokernel(rows, rank)
    mt = oracle_cokernel(phi_minus_i, rank)
    mt = {"free_rank": mt["free_rank"] + 1, "torsion": mt["torsion"]}
    return closed, mt


def check_package(text, h1, mt, cap):
    """Compare with the package where it finishes; returns op times."""
    ob = parse_openbook(text)
    got, t_h1 = timed(lambda: closed_h1(ob).as_dict(), cap)
    if got is not None and got != h1:
        raise AssertionError(f"package closed_h1 {got} != oracle {h1} for\n{text}")
    got_mt, t_mt = timed(lambda: mapping_torus_h1(ob).as_dict(), cap)
    if got_mt is not None and got_mt != mt:
        raise AssertionError(f"package mapping_torus_h1 {got_mt} != oracle {mt}")
    return (t_h1 if got is not None else None), (t_mt if got_mt is not None else None)


def check_stabilization(text, h1):
    """Closed H1 is unchanged by a stabilization (oracle on both sides)."""
    ob = parse_openbook(text)
    moved = (reduce_to_one_boundary(ob) if ob.page.boundary_count > 1
             else stabilize_positive(ob, SameBoundary(1)))
    again, _ = expected_h1(serialize_openbook(moved))
    if again != h1:
        raise AssertionError(f"stabilization changed H1: {h1} -> {again}")


# ---------------------------------------------------------------------------
# book generation


def book_text(g, n, word, config=None):
    letters = " ".join(f"t({c})" if e == 1 else f"t({c})^{e}" for c, e in word)
    lines = ["openbook v1", f"genus {g}", f"boundary {n}", ("word " + letters).rstrip()]
    if config is not None:
        lines.append("config " + config)
    return "\n".join(lines) + "\n"


def random_word(rng, g, n, length, exponents):
    names = sorted(default_classes(g, n))
    if not names:
        return []
    return [(rng.choice(names), rng.choice(exponents)) for _ in range(length)]


def random_book(rng, g, n, length, exponents):
    return book_text(g, n, random_word(rng, g, n, length, exponents))


def highrank_book(rng, red, g, n, length, exponents):
    """(text, source): on an "R" rung, text is the one-boundary reduction of source."""
    source = random_book(rng, g, n, length, exponents)
    if not red:
        return source, None
    return serialize_openbook(reduce_to_one_boundary(parse_openbook(source))), source


def record(text, cls, cap=PACKAGE_CAP_S, stab=True):
    h1, mt = expected_h1(text)
    t_h1, t_mt = check_package(text, h1, mt, cap)
    if stab:
        check_stabilization(text, h1)
    return {"class": cls, "text": text, "h1": h1, "mt_h1": mt,
            "today_s": {"h1": None if t_h1 is None else round(t_h1, 4),
                        "mt_h1": None if t_mt is None else round(t_mt, 4)}}


def gen_h1_batch(rng):
    books = []
    # known families, expected values from their closed forms
    for p in range(2, 26):
        text = book_text(0, 2, [("d1", p)])
        rec = record(text, "tiny")
        if rec["h1"] != {"free_rank": 0, "torsion": [p]} or \
           rec["mt_h1"] != {"free_rank": 2, "torsion": []}:
            raise AssertionError(f"t(d1)^{p} on the annulus: {rec}")
        books.append(rec)
    for n in range(1, 7):
        rec = record(book_text(0, n, []), "tiny")
        if rec["h1"] != {"free_rank": n - 1, "torsion": []} or \
           rec["mt_h1"] != {"free_rank": n, "torsion": []}:
            raise AssertionError(f"empty word on Sigma_(0,{n}): {rec}")
        books.append(rec)
    while len(books) < TINY_POOL:
        g, n = rng.randint(0, 2), rng.randint(1, 3)
        length = 0 if (g, n) == (0, 1) else rng.randint(1, 20)
        books.append(record(random_book(rng, g, n, length, (1, -1, 2, -2)), "tiny"))
    for g, n, length in MEDIUM_RUNGS:
        for _ in range(MEDIUM_PER_RUNG):
            rec = record(random_book(rng, g, n, length, (1, -1)), f"medium:{g},{n},{length}",
                         stab=False)
            books.append(rec)
    return {"books": books}


def gen_h1_highrank(rng):
    books = []
    fast_cap = BUDGET_S * FAST_SHARE
    for red, g, n, length in FAST_RUNGS:
        rung = f"fast:{red}{g},{n},{length}"
        kept = 0
        while kept < FAST_PER_RUNG:
            text, source = highrank_book(rng, red, g, n, length, FAST_EXPONENTS)
            rec = record(text, rung, cap=fast_cap, stab=False)
            t = rec["today_s"]
            if t["h1"] is None or t["mt_h1"] is None:
                print(f"  {rung}: dropped, not under {fast_cap}s", file=sys.stderr)
                continue
            if source:
                rec["source"] = source
            books.append(rec)
            kept += 1
    slow_cap = BUDGET_S * SLOW_FACTOR
    kept = 0
    tries = 0
    while kept < SLOW_WANTED:
        red, g, n, length = SLOW_RUNGS[tries % len(SLOW_RUNGS)]
        tries += 1
        text, source = highrank_book(rng, red, g, n, length, SLOW_EXPONENTS)
        h1, mt = expected_h1(text)
        ob = parse_openbook(text)
        got, t = timed(lambda: closed_h1(ob).as_dict(), slow_cap)
        print(f"  slow candidate {red}{g},{n},{length}: h1 "
              f"{'finished' if got is not None else 'timed out'} in {t:.1f}s",
              file=sys.stderr, flush=True)
        if got is not None:
            if got != h1:
                raise AssertionError("package closed_h1 disagrees with the oracle")
            continue
        # the mapping-torus operation must sit far from the budget too
        got_mt, t_mt = timed(lambda: mapping_torus_h1(ob).as_dict(), slow_cap)
        if got_mt is not None:
            if got_mt != mt:
                raise AssertionError("package mapping_torus_h1 disagrees with the oracle")
            if t_mt >= fast_cap:
                continue
        rec = {"class": f"slow:{red}{g},{n},{length}", "text": text, "h1": h1,
               "mt_h1": mt, "today_s": {"h1": None, "mt_h1": None if got_mt is None
                                        else round(t_mt, 4)}}
        if source:
            rec["source"] = source
        books.append(rec)
        kept += 1
    return {"budget_s": BUDGET_S, "books": books}


def cert_text_digest(cert):
    text = embedder.certificate_to_json(cert)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gen_cert_roundtrip(rng):
    specs = []
    framings = [-2, -1, 0, 1, 2, 3]
    for _ in range(240):
        g, n = rng.randint(0, 2), rng.randint(1, 3)
        if (g, n) == (0, 1):
            continue
        text = random_book(rng, g, n, rng.randint(1, 12), (1, -1, 2, -2))
        framing = rng.choice(framings)
        cert = embedder.build_openbook_embedding(parse_openbook(text), framing)
        specs.append({"kind": "witness", "text": text, "framing": framing,
                      "sha256": cert_text_digest(cert)})
    for g in range(0, 4):
        for n in range(1, 5):
            if (g, n) == (0, 1):
                continue
            for framing in framings:
                cert = embedder.build_flexible_embedding(obembed.Surface(g, n), framing)
                specs.append({"kind": "flexible", "page": [g, n], "framing": framing,
                              "sha256": cert_text_digest(cert)})
    for _ in range(60):
        word = [(rng.choice(("d1", "d2")), rng.choice((1, -1, 2, 3)))
                for _ in range(rng.randint(1, 8))]
        text = book_text(0, 2, word)
        cert = embedder.build_annulus_s5(parse_openbook(text))
        power = sum(e for _, e in word)
        if cert["checks"]["realized_power"] != power:
            raise AssertionError("annulus certificate realized the wrong power")
        specs.append({"kind": "annulus", "text": text, "sha256": cert_text_digest(cert)})
    for _ in range(60):
        g, n = rng.randint(0, 1), rng.randint(1, 3)
        if (g, n) == (0, 1):
            continue
        text = random_book(rng, g, n, rng.randint(1, 8), (1, -1, 2, -2))
        h1, _ = expected_h1(text)
        check_stabilization(text, h1)
        cert = embedder.build_s5_plan(parse_openbook(text))
        if cert["checks"]["h1_before"] != h1 or cert["checks"]["h1_after"] != h1:
            raise AssertionError(f"s5 plan H1 disagrees with the oracle {h1}")
        specs.append({"kind": "s5", "text": text, "h1": h1,
                      "sha256": cert_text_digest(cert)})
    return {"specs": specs}


def write_corpus(path, payload):
    """One list entry per line, so diffs of the corpus stay readable."""
    key = "books" if "books" in payload else "specs"
    head = {k: v for k, v in payload.items() if k != key}
    lines = ["{"]
    for k, v in head.items():
        lines.append(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)},")
    lines.append(f"{json.dumps(key)}: [")
    items = payload[key]
    for i, item in enumerate(items):
        sep = "," if i + 1 < len(items) else ""
        lines.append(json.dumps(item, sort_keys=True) + sep)
    lines.append("]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GENERATORS = {"h1-batch": gen_h1_batch, "h1-highrank": gen_h1_highrank,
              "cert-roundtrip": gen_cert_roundtrip}


def main(argv):
    """Regenerate the named corpora (all three by default)."""
    signal.signal(signal.SIGALRM, _alarm)
    out = BENCH / "corpus"
    out.mkdir(exist_ok=True)
    for name in argv or GENERATORS:
        gen = GENERATORS[name]
        t0 = time.perf_counter()
        payload = gen(random.Random(f"{MASTER_SEED}:{name}"))
        payload["master_seed"] = MASTER_SEED
        write_corpus(out / f"{name}.json", payload)
        print(f"{name}: written in {time.perf_counter() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
