"""Shared test utilities: independent oracles and random generators.

The determinant here is deliberately not part of the package; it is
the independent check that the SNF transforms are unimodular.
"""

from __future__ import annotations

import math
import re

from obembed import (AbstractOpenBook, IntMatrix, Surface, TwistWord, WordSyntaxError,
                     lickorish_system)

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


def random_open_book(rng, max_genus=3, max_boundary=3, max_len=10):
    page = Surface(rng.randint(0, max_genus), rng.randint(1, max_boundary))
    cfg = lickorish_system(page)
    return AbstractOpenBook(page, random_word(rng, cfg, max_len), cfg)
