"""Shared test utilities: independent oracles and random generators.

The determinant here is deliberately not part of the package; it is
the independent check that the SNF transforms are unimodular.  So is
the dense matrix algebra (products, transposes, the closed-form twist
matrix and the relation checks by matrix products): the package acts by
the transvection rule alone, and these are its oracles.
"""

from __future__ import annotations

import json
import math
import re

from obembed import (AbstractOpenBook, IntMatrix, Surface, TwistWord, WordSyntaxError,
                     lickorish_system, load_config_override)
from obembed.mcg import RelationCheck, RelationReport

_LETTER_RE = re.compile(r"^t\(([A-Za-z][A-Za-z0-9_]*)\)(?:\^(-?\d+))?$")


def parse_word_by_tokens(text):
    """The twist-word parser as one anchored match per whitespace-split token.

    The oracle of ``parse_word``, which finds all tokens in one scan: the
    same letters, or a WordSyntaxError with the same text.
    """
    word = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise WordSyntaxError(f"bad twist letter {token!r} "
                                  "(expected t(<name>) with optional ^<int>)")
        try:
            exp = int(m.group(2) or 1)
        except ValueError as exc:  # more digits than int() converts
            raise WordSyntaxError(f"bad exponent of t({m.group(1)}): {exc}") from None
        word.append((m.group(1), exp))
    return TwistWord(tuple(word))


def det_bareiss(rows):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(r) == n for r in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def bareiss_rank_minor(rows):
    """(rank, signed last pivot, signed previous pivot, c) of eager fraction-free elimination.

    The textbook rectangular sweep: the first nonzero entry of the
    column is the pivot, and every row below it is updated at every
    step, rows with a zero in the pivot column included.  c is the gcd
    of every entry of the last step's trailing block (its pivot row and
    the rows below, before the update); rank 0 gives (0, 1, 1, 1).
    """
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    rank, prev, before, content = 0, 1, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        content = math.gcd(*(x for row in a[rank:] for x in row))
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        before, prev = prev, a[rank][col]
        rank += 1
    return rank, prev, before, content


def rank_mod_p(rows, p):
    """Rank over F_p (Gaussian elimination on the rows reduced mod the prime p)."""
    a = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        prow = [x * inv % p for x in a[rank]]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], prow)]
        rank += 1
    return rank


def mat_rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def from_rows(rows):
    rows = [list(r) for r in rows]
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def zeros(rows, cols):
    return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])


def diagonal(m):
    return tuple(m.data[i][i] for i in range(min(m.rows, m.cols)))


def transpose(m):
    return IntMatrix(m.cols, m.rows, [[row[j] for row in m.data] for j in range(m.cols)])


def is_identity(m):
    return m.rows == m.cols and m == IntMatrix.identity(m.rows)


def mat_mul(*factors):
    """The product of the matrices, left to right, by the textbook sums."""
    out = factors[0]
    for b in factors[1:]:
        if out.cols != b.rows:
            raise ValueError(f"shape mismatch: {out.rows}x{out.cols} * {b.rows}x{b.cols}")
        out = IntMatrix(out.rows, b.cols,
                        [[sum(row[k] * b.data[k][j] for k in range(out.cols))
                          for j in range(b.cols)] for row in out.data])
    return out


def apply(m, vec):
    """Matrix times column vector, returned as a tuple."""
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in m.data)


def pair(page, x, y):
    """Intersection pairing <x, y> = x . J y of two class vectors."""
    return sum(a * b for a, b in zip(x, page.dual(y)))


def twist_matrix(curve, sign, page):
    """Transvection matrix of a twist power along a configured curve, in closed form.

    With c the curve's class and J the pairing, this is
    I + sign * c (Jc)^T; it is unimodular and preserves the pairing.
    """
    rank = page.h1_rank
    c = curve.homology_class
    jc = page.dual(c)
    return IntMatrix(rank, rank, [[e + sign * c[i] * jc[k] for k, e in enumerate(page.unit(i))]
                                  for i in range(rank)])


def relation_report_by_matrices(cfg):
    """``relation_report`` by products of dense twist matrices (about rank^5 in all)."""
    page = cfg.surface
    checks = []
    curves = list(cfg.curves)
    mats = {c.name: twist_matrix(c, 1, page) for c in curves}
    for idx, c in enumerate(curves):
        for d in curves[idx + 1:]:
            p = pair(page, c.homology_class, d.homology_class)
            tc, td = mats[c.name], mats[d.name]
            if p == 0:
                ok = mat_mul(tc, td) == mat_mul(td, tc)
                checks.append(RelationCheck(f"commute({c.name},{d.name})",
                                            "commutation", ok))
            elif p in (1, -1):
                ok = mat_mul(tc, td, tc) == mat_mul(td, tc, td)
                checks.append(RelationCheck(f"braid({c.name},{d.name})", "braid", ok))
    if page.genus >= 1 and cfg.has_curve("a1") and cfg.has_curve("b1"):
        prod = mat_mul(mats["a1"], mats["b1"])
        power = mat_mul(*[prod] * 6)
        checks.append(RelationCheck("order6(a1,b1)", "order6", is_identity(power)))
    return RelationReport(page, tuple(checks))


def pairing_matrix(page):
    """The pairing matrix J of a page; column j is J of the j-th basis class."""
    rank = page.h1_rank
    return IntMatrix(rank, rank, zip(*(page.dual(page.unit(j)) for j in range(rank))))


def random_int_matrix(rng, rows, cols, lo=-20, hi=20):
    return IntMatrix(rows, cols,
                     [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n, steps=12):
    """Product of elementary operations, so det = +-1 by construction."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                a[i][k] += c * a[j][k]
        elif kind == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif kind == 2:
            for k in range(n):
                a[i][k] = -a[i][k]
    return IntMatrix(n, n, a)


def random_word(rng, cfg, max_len=10, max_exp=3):
    names = cfg.names()
    if not names:
        return TwistWord()
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    letters = tuple((rng.choice(names), rng.choice(exps))
                    for _ in range(rng.randint(0, max_len)))
    return TwistWord(letters)


def override_book(ob, prefix="u"):
    """ob, a book over the default system, with its curves renamed as a user override."""
    curves = [{"name": prefix + c.name, "kind": c.kind, "class": list(c.homology_class)}
              for c in ob.config]
    cfg = load_config_override(json.dumps({"curves": curves}), ob.page)
    word = ob.word.rename({name: prefix + name for name in ob.config.names()})
    return AbstractOpenBook(ob.page, word, cfg, ob.label)


def random_open_book(rng, max_genus=3, max_boundary=3, max_len=10):
    page = Surface(rng.randint(0, max_genus), rng.randint(1, max_boundary))
    cfg = lickorish_system(page)
    return AbstractOpenBook(page, random_word(rng, cfg, max_len), cfg)
