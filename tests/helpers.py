"""Shared test utilities: independent oracles and random generators.

The determinant here is deliberately not part of the package; it is
the independent check that the SNF transforms are unimodular.
"""

from __future__ import annotations

from obembed import AbstractOpenBook, IntMatrix, Surface, TwistWord, lickorish_system


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
