"""Shared test utilities: independent oracles, random generators and shared cases.

The determinant here is deliberately not part of the package; it is
the independent check that the SNF transforms are unimodular.  So is
the dense matrix algebra (products, transposes, the closed-form twist
matrix and the relation checks by matrix products): the package acts by
the transvection rule alone, and these are its oracles.  The rule itself
on list rows, one letter at a time, is the oracle of the package's
packed rows.  The elimination over Z/D on dense list rows is the oracle
of the package's dict rows.  Dense classes (``dense``, ``unit``,
``boundary_class`` and the table ``default_table_dense``) live here
only: the package writes a class as its support.
"""

import json
import math
import random
import re

from obembed import (AbstractOpenBook, ConfiguredCurve, CurveConfig, IntMatrix, JoinBoundaries,
                     SameBoundary, Surface, TwistWord, WordSyntaxError, lickorish_system,
                     load_config_override, parse_word)
from obembed.intlinalg import _xgcd_step, brief
from obembed.mcg import RelationCheck, RelationReport

_LETTER_RE = re.compile(r"^t\(([A-Za-z][A-Za-z0-9_]*)\)(?:\^(-?\d+))?$")


def parse_word_by_tokens(text):
    """The twist-word parser as one anchored match per whitespace-split token.

    The oracle of ``parse_word``, which looks each token up in a letter
    table kept for the process and reads it only on a miss: the same
    letters, or a WordSyntaxError with the same text.
    """
    word = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise WordSyntaxError(f"bad twist letter {brief(token)} "
                                  "(expected t(<name>) with optional ^<int>)")
        try:
            exp = int(m.group(2) or 1)
        except ValueError as exc:  # more digits than int() converts
            name = brief(m.group(1), bare=True)
            raise WordSyntaxError(f"bad exponent of t({name}): {exc}") from None
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


def least_gcd_entry_by_lists(a, d):
    """(i, j, g) for an entry a[i][j] of list rows whose g = gcd(a[i][j], d) is least.

    The first entry with g = 1 ends the search; None if every entry is 0.
    All-zero rows are passed over whole.  Entries lie in [0, d), so x % g
    is nonzero only for a nonzero x that is not a multiple of the best g
    so far, the only ones that can beat it.
    """
    best, g = None, d
    for i, row in enumerate(a):
        if not any(row):
            continue
        for j, x in enumerate(row):
            if x % g:
                h = math.gcd(x, d)
                if h < g:
                    best, g = (i, j), h
                    if g == 1:
                        return i, j, 1
    return None if best is None else (*best, g)


def cyclic_orders_mod_by_lists(a, d):
    """Orders of the cyclic summands of (Z/d)^rows / (column span of a), on dense list rows.

    The oracle of ``intlinalg._cyclic_orders_mod``: the same pivot rule,
    combines and cleans, with every row a full list of entries in [0, d)
    and every step rewriting whole rows (or whole columns).  Consumes a.
    """
    orders = []
    while (piv := least_gcd_entry_by_lists(a, d)) is not None:
        i, j, g = piv
        while g > 1:
            p = a[i][j]
            k = next((k for k, row in enumerate(a) if row[j] % g), None)
            if k is not None:
                h, s, t, u, v = _xgcd_step(p, a[k][j])
                ri, rk = a[i], a[k]
                a[i] = [(s * y + t * z) % d for y, z in zip(ri, rk)]
                a[k] = [(v * z - u * y) % d for y, z in zip(ri, rk)]
            else:
                k = next((k for k, y in enumerate(a[i]) if y % g), None)
                if k is None:
                    break
                h, s, t, u, v = _xgcd_step(p, a[i][k])
                for row in a:
                    y, z = row[j], row[k]
                    row[j], row[k] = (s * y + t * z) % d, (v * z - u * y) % d
            g = math.gcd(h, d)
        prow = a.pop(i)
        dg = d // g
        inv = pow(prow.pop(j) // g, -1, dg)
        for row in a:
            x = row.pop(j)
            if x:
                q = x // g * inv % dg
                row[:] = [(y - q * z) % d for y, z in zip(row, prow)]
        orders.append(g)
    return orders + [d] * len(a)


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


def dense(page, c):
    """The class with support c as a tuple of the page's rank entries."""
    out = [0] * page.h1_rank
    for i, a in c:
        out[i] = a
    return tuple(out)


def sparse(c):
    """The support of a dense class: its (index, entry) pairs with a nonzero entry."""
    return tuple((i, a) for i, a in enumerate(c) if a)


def unit(page, index):
    """The index-th basis class (0-based), dense."""
    return tuple(int(i == index) for i in range(page.h1_rank))


def boundary_class(page, m):
    """The dense class of boundary component m (1-based); the base m = n is dependent."""
    g, n = page.genus, page.boundary_count
    if m < n:
        return unit(page, 2 * g + m - 1)
    return tuple(-1 if k >= 2 * g else 0 for k in range(page.h1_rank))


def default_table_dense(page):
    """The unfiltered default curve table as (name, kind, dense class) rows.

    It is built from ``unit`` and ``boundary_class`` by the sums of the
    ``surface`` docstring: the oracle of ``surface._default_table``.
    """
    g, n = page.genus, page.boundary_count
    a = [unit(page, 2 * i) for i in range(g)]
    rows = [(f"a{i + 1}", "handle_a", a[i]) for i in range(g)]
    rows += [(f"b{i + 1}", "handle_b", unit(page, 2 * i + 1)) for i in range(g)]
    rows += [(f"c{i + 1}", "chain", tuple(x - y for x, y in zip(a[i], a[i + 1])))
             for i in range(g - 1)]
    d = [boundary_class(page, j) for j in range(1, n + 1)]
    rows += [(f"d{j + 1}", "boundary_parallel", d[j]) for j in range(n)]
    rows += [(f"e{j + 1}", "boundary_pair", tuple(x + y for x, y in zip(d[j], d[j + 1])))
             for j in range(n - 1)]
    return rows


def dual(page, c):
    """J c, so that <x, c> = x . J c (the pairing rule of the ``surface`` docstring)."""
    h = 2 * page.genus
    out = [0] * page.h1_rank
    out[0:h:2] = c[1:h:2]
    out[1:h:2] = [-a for a in c[0:h:2]]
    return tuple(out)


def pair(page, x, y):
    """Intersection pairing <x, y> = x . J y of two class vectors."""
    return sum(a * b for a, b in zip(x, dual(page, y)))


def twist_matrix(curve, sign, page):
    """Transvection matrix of a twist power along a configured curve, in closed form.

    With c the curve's class and J the pairing, this is
    I + sign * c (Jc)^T; it is unimodular and preserves the pairing.
    """
    rank = page.h1_rank
    c = dense(page, curve.support)
    jc = dual(page, c)
    return IntMatrix(rank, rank, [[e + sign * c[i] * jc[k] for k, e in enumerate(unit(page, i))]
                                  for i in range(rank)])


def transvect_rows(rows, letters, cfg, arcs):
    """The transvection rule on a list of list rows, one letter at a time (in place).

    Letters act rightmost first, each as T = I + e * c (Jc)^T on the
    left: w = (Jc)^T . rows + s, then row i += e * c_i * w for each i in
    the support of c; s is the letter's arc shift if ``arcs`` is set.
    """
    width = len(rows[0]) if rows else 0
    for name, exp in reversed(letters):
        support, pairing, shift = cfg.twist(name)[:3]
        w = [0] * width
        for k, b in pairing:
            w = [x + b * y for x, y in zip(w, rows[k])]
        for col, s in (shift or ()) if arcs else ():
            w[col] += s
        for i, a in support:
            rows[i] = [x + exp * a * y for x, y in zip(rows[i], w)]


def word_action_by_rows(word, cfg, arcs=False):
    """``word_action`` by ``transvect_rows`` from the identity rows."""
    page = cfg.surface
    rank = page.h1_rank
    width = rank + max(page.boundary_count - 1, 0) if arcs else rank
    rows = [[int(i == j) for j in range(width)] for i in range(rank)]
    transvect_rows(rows, word.letters, cfg, arcs)
    return IntMatrix(rank, width, rows)


def relation_report_by(cfg, action):
    """``relation_report`` with each check comparing ``action(letters)`` of its two sides.

    The pairs, names and kinds follow ``relation_report``; the sides are
    tuples of (name, 1) letters, the order-six one against ().
    """
    page = cfg.surface
    checks = []
    curves = list(cfg.curves)
    for idx, c in enumerate(curves):
        for d in curves[idx + 1:]:
            p = pair(page, dense(page, c.support), dense(page, d.support))
            cd, dc = ((c.name, 1), (d.name, 1)), ((d.name, 1), (c.name, 1))
            if p == 0:
                checks.append(RelationCheck(f"commute({c.name},{d.name})", "commutation",
                                            action(cd) == action(dc)))
            elif p in (1, -1):
                checks.append(RelationCheck(f"braid({c.name},{d.name})", "braid",
                                            action(cd + cd[:1]) == action(dc + dc[:1])))
    if page.genus >= 1 and cfg.has_curve("a1") and cfg.has_curve("b1"):
        ok = action((("a1", 1), ("b1", 1)) * 6) == action(())
        checks.append(RelationCheck("order6(a1,b1)", "order6", ok))
    return RelationReport(page, tuple(checks))


def relation_report_by_matrices(cfg):
    """``relation_report`` by products of dense twist matrices (about rank^5 in all)."""
    page = cfg.surface
    mats = {c.name: twist_matrix(c, 1, page) for c in cfg.curves}
    identity = IntMatrix.identity(page.h1_rank)
    return relation_report_by(cfg, lambda letters: mat_mul(*(mats[n] for n, _ in letters))
                              if letters else identity)


def relation_report_by_rows(cfg):
    """``relation_report`` by whole word actions on list rows (``transvect_rows``)."""
    return relation_report_by(cfg, lambda letters: word_action_by_rows(TwistWord(letters), cfg))


def pairing_matrix(page):
    """The pairing matrix J of a page; column j is J of the j-th basis class."""
    rank = page.h1_rank
    return IntMatrix(rank, rank, zip(*(dual(page, unit(page, j)) for j in range(rank))))


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


def book(g, n, word_text="", label=None):
    """The book of a word over the default system of Sigma_{g,n}."""
    return AbstractOpenBook.with_default_config(Surface(g, n), parse_word(word_text), label)


def field_paths(obj, prefix=()):
    """The path (key and index tuple) of every field below obj, depth first."""
    if prefix:
        yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from field_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from field_paths(value, prefix + (i,))


def deep_list():
    """A list nested 100 000 deep, past the interpreter's recursion limit."""
    x = []
    for _ in range(100000):
        x = [x]
    return x


def distinct_pair(rng, n):
    """Two distinct ints j, k of 1..n: j, then k drawn again until it differs."""
    j = rng.randint(1, n)
    k = rng.randint(1, n)
    while k == j:
        k = rng.randint(1, n)
    return j, k


def fixed_length_word(rng, names, length, exps=(-2, -1, 1, 2)):
    """length letters, each a name and then an exponent drawn from rng."""
    return TwistWord(tuple((rng.choice(names), rng.choice(exps)) for _ in range(length)))


def fixed_length_book(g, n, length, seed):
    """A book of length letters (``fixed_length_word``) over the default system of Sigma_{g,n}."""
    cfg = lickorish_system(Surface(g, n))
    word = fixed_length_word(random.Random(seed), cfg.names(), length)
    return AbstractOpenBook(cfg.surface, word, cfg)


def random_word(rng, cfg, max_len=10, max_exp=3):
    names = cfg.names()
    if not names:
        return TwistWord()
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    letters = tuple((rng.choice(names), rng.choice(exps))
                    for _ in range(rng.randint(0, max_len)))
    return TwistWord(letters)


def override_book(ob, prefix="u", numbered=False):
    """ob, a book over the default system, with its curves renamed as a user override.

    The new names are the old ones after ``prefix``, or with ``numbered``
    s1, s2, ... in table order, the names stabilization gives fresh curves.
    """
    names = {name: f"s{i}" if numbered else prefix + name
             for i, name in enumerate(ob.config.names(), 1)}
    curves = [{"name": names[c.name], "kind": c.kind, "class": list(dense(ob.page, c.support))}
              for c in ob.config]
    cfg = load_config_override(json.dumps({"curves": curves}), ob.page)
    return AbstractOpenBook(ob.page, TwistWord((names[n], e) for n, e in ob.word), cfg, ob.label)


def random_open_book(rng, max_genus=3, max_boundary=3, max_len=10):
    page = Surface(rng.randint(0, max_genus), rng.randint(1, max_boundary))
    cfg = lickorish_system(page)
    return AbstractOpenBook(page, random_word(rng, cfg, max_len), cfg)


def twist_table_dense(cfg, name):
    """``CurveConfig.twist`` by rank-length passes: ``dual`` and the D_i entry per arc."""
    page = cfg.surface
    c, rank = dense(page, cfg.curve(name).support), page.h1_rank
    jc = dual(page, c)
    shift = tuple((rank + i - 1, x) for i in range(1, page.boundary_count)
                  if (x := c[2 * page.genus + i - 1]))
    a_bits = (max(map(abs, c + (1,))) - 1).bit_length()
    return (tuple((i, a) for i, a in enumerate(c) if a),
            tuple((k, b) for k, b in enumerate(jc) if b),
            shift or None,
            ((sum(map(abs, jc)) or 1) - 1).bit_length() + a_bits,
            2 * a_bits if shift else 0)


def _dense_attachment(page, attachment):
    """(new page, push on class tuples, fresh class, kind) of a stabilization."""
    g, n, h = page.genus, page.boundary_count, 2 * page.genus
    if isinstance(attachment, SameBoundary):
        j = attachment.j
        if not 1 <= j <= n:
            raise ValueError(f"attachment index {j} out of range 1..{n}")
        new_page = Surface(g, n + 1)
        return (new_page, lambda c: c + ((c[h + j - 1],) if j < n else (0,)),
                boundary_class(new_page, n), "boundary_parallel")
    j, k = sorted((attachment.j, attachment.k))
    if j == k or not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"bad join ({j},{k}) on {n} components")
    new_page = Surface(g + 1, n - 1)

    def push(c):
        x = c[h:] + (0,)
        rest = x[:j - 1] + x[j:k - 1] + x[k:]
        return c[:h] + (0, x[j - 1] - x[k - 1]) + tuple(y - x[k - 1] for y in rest)
    return new_page, push, unit(new_page, h), "handle_a"


def stabilize_by_system(ob, attachment):
    """``stabilize_positive`` on dense classes, renamed by a lookup in ``lickorish_system``.

    Each pushed class goes to the first unused default curve, in table
    order, with that class, or failing that with its negative.
    """
    new_page, push, fresh_class, kind = _dense_attachment(ob.page, attachment)
    kept = ob.word.curve_names()
    fresh = next(f"s{i}" for i in range(1, len(kept) + 2) if f"s{i}" not in kept)
    pushed = [(fresh, kind, fresh_class)] + [
        (name, ob.config.curve(name).kind, push(dense(ob.page, ob.config.curve(name).support)))
        for name in kept]
    word = TwistWord(((fresh, 1),) + ob.word.letters)
    by_class = {}
    for d in lickorish_system(new_page):
        by_class.setdefault(dense(new_page, d.support), []).append(d.name)
    mapping = {}
    for name, _, c in pushed:
        names = by_class.get(c) or by_class.get(tuple(-x for x in c))
        if not names:
            cfg = CurveConfig(new_page, [ConfiguredCurve(name, k, sparse(c))
                                         for name, k, c in pushed])
            return AbstractOpenBook(new_page, word, cfg, ob.label)
        mapping[name] = names.pop(0)
    word = TwistWord((mapping[n], e) for n, e in word)
    return AbstractOpenBook(new_page, word, lickorish_system(new_page), ob.label)


def reduce_by_joins(ob):
    """``reduce_to_one_boundary`` as one ``stabilize_by_system`` per join (n-1, n).

    Returns the reduced book and, per join, whether its book is on the
    default system.
    """
    Surface(ob.page.genus + ob.page.boundary_count - 1, 1)
    steps = []
    while ob.page.boundary_count > 1:
        n = ob.page.boundary_count
        ob = stabilize_by_system(ob, JoinBoundaries(n - 1, n))
        steps.append(ob.config == lickorish_system(ob.page))
    return ob, steps


# structural errors of the text format, each at its own line
STRUCTURE_ERRORS = [
    ("openbook v1\ngenus 0\nboundary 1\n", 4, "missing 'word' line"),
    ("openbook v1\ngenera 0\nboundary 1\nword\n", 2, "expected 'genus' line, got 'genera 0'"),
    ("openbook v1\ngenus 0\nboundary 1\nword t(x)\n"
     'config {"curves":[{"name":"x","kind":"handle_a","class":[]}]}\n'
     'config {"curves":[{"name":"x","kind":"handle_a","class":[]}]}\n', 6,
     "duplicate config line"),
]
