"""Smith normal form and cokernel tests.

Expected values for the worked example were computed by hand row and
column reduction before the library existed:
[[2,4],[6,8]]: gcd of entries is 2, |det| = 2*8 - 4*6 = -8, so the
invariant factors are 2 and 8/2 = 4.
"""

import hashlib
import random
from math import gcd

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from obembed import AbelianGroup, IntMatrix, cokernel, smith_normal_form
from obembed.intlinalg import _bareiss, _cyclic_orders_mod, _invariant_factors

from helpers import (bareiss_rank_minor, cyclic_orders_mod_by_lists, det_bareiss, diagonal,
                     from_rows, is_identity, mat_mul, mat_rows, random_int_matrix,
                     random_unimodular, transpose, zeros)


def snf_is_consistent(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(u, m, v) == d
    assert abs(det_bareiss(mat_rows(u))) == 1
    assert abs(det_bareiss(mat_rows(v))) == 1
    diag = diagonal(d)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.entry(i, j) == 0
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x != 0]
    # zeros trail
    assert list(diag[:len(nonzero)]) == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return d


def test_snf_empty_matrix():
    m = zeros(0, 0)
    d, u, v = smith_normal_form(m)
    assert (d.rows, d.cols) == (0, 0)
    assert u.rows == 0 and v.rows == 0


def test_snf_empty_shapes():
    for rows, cols in [(0, 3), (3, 0)]:
        m = zeros(rows, cols)
        d, u, v = smith_normal_form(m)
        assert d == m
        assert is_identity(u) and is_identity(v)


def test_snf_reorders_existing_chain():
    m = from_rows([[3, 0], [0, 1]])
    d = snf_is_consistent(m)
    assert diagonal(d) == (1, 3)


def test_snf_worked_example():
    m = from_rows([[2, 4], [6, 8]])
    d = snf_is_consistent(m)
    assert diagonal(d) == (2, 4)
    assert diagonal(d)[0] == 2            # gcd of the entries
    assert diagonal(d)[0] * diagonal(d)[1] == 8   # |det|


def test_snf_zero_matrix():
    m = zeros(3, 2)
    d = snf_is_consistent(m)
    assert diagonal(d) == (0, 0)


def test_snf_random_properties():
    rng = random.Random(20260809)
    for _ in range(120):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = random_int_matrix(rng, rows, cols, -15, 15)
        snf_is_consistent(m)


def snf_pin_cases():
    """About 300 seeded matrices: empty and one-sided shapes, random, unimodular-mixed, huge."""
    rng = random.Random(20261020)
    cases = [zeros(r, c) for r, c in [(0, 0), (0, 1), (0, 4), (1, 0), (4, 0), (1, 1), (3, 2)]]
    for n in range(1, 9):
        cases.append(random_int_matrix(rng, 1, n, -12, 12))
        cases.append(random_int_matrix(rng, n, 1, -12, 12))
    for _ in range(117):
        cases.append(random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), -15, 15))
    for n in range(1, 11):
        cases.append(random_unimodular(rng, n))
    for _ in range(50):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        left, right = random_unimodular(rng, rows), random_unimodular(rng, cols)
        cases.append(mat_mul(left, random_int_matrix(rng, rows, cols, -6, 6), right))
    for _ in range(100):
        rows, cols, big = rng.randint(1, 8), rng.randint(1, 8), 10 ** rng.randint(1, 30)
        density = rng.random()
        cases.append(IntMatrix(rows, cols, [[rng.randint(-big, big) if rng.random() < density else 0
                                             for _ in range(cols)] for _ in range(rows)]))
    return cases


def test_snf_outputs_are_pinned():
    # (d, u, v) bit for bit, as computed before the one-grid rewrite of smith_normal_form
    digest = hashlib.sha256()
    cases = snf_pin_cases()
    for m in cases:
        digest.update(repr(tuple(x.data for x in smith_normal_form(m))).encode())
    assert len(cases) == 300
    assert digest.hexdigest() == (
        "ab44d654cb0e5c521fcd21ccfadb74177b1eca962f2a30d081b869f3fbb99d00")


def test_snf_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_int_matrix(rng, rows, cols, -9, 9)
        d, _, _ = smith_normal_form(m)
        s = sympy_snf(sympy.Matrix(mat_rows(m)), domain=sympy.ZZ)
        theirs = sorted(abs(s[i, i]) for i in range(min(rows, cols)))
        ours = sorted(diagonal(d))
        assert ours == theirs


def test_cokernel_cyclic():
    for k in (2, 5, 12):
        assert cokernel(from_rows([[k]])) == AbelianGroup(0, (k,))


def test_cokernel_identity_is_trivial():
    assert cokernel(IntMatrix.identity(2)) == AbelianGroup(0)


def test_cokernel_worked_example():
    g = cokernel(from_rows([[2, 4], [6, 8]]))
    assert g == AbelianGroup(0, (2, 4))


def test_cokernel_unimodular_invariance():
    rng = random.Random(99)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_int_matrix(rng, rows, cols, -10, 10)
        left = random_unimodular(rng, rows)
        right = random_unimodular(rng, cols)
        assert cokernel(mat_mul(left, m, right)) == cokernel(m)


def test_transpose_padding_keeps_torsion():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_int_matrix(rng, rows, cols, -10, 10)
        mt = transpose(m)
        padded = IntMatrix(mt.rows, mt.cols + 2,
                           [list(mt.row(i)) + [0, 0] for i in range(mt.rows)])
        assert cokernel(padded).torsion == cokernel(m).torsion


def group_from_diagonal(rows, diag):
    """Z^rows / span of a diagonal, the way the SNF reference reads it."""
    nonzero = [abs(x) for x in diag if x != 0]
    return AbelianGroup(rows - len(nonzero), tuple(sorted(x for x in nonzero if x >= 2)))


@pytest.mark.parametrize("rows, expected", [
    ([[6]], AbelianGroup(0, (6,))),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 12]], AbelianGroup(0, (12,))),
])
def test_cokernel_top_factor_is_the_minor(rows, expected):
    # d_rho = |Delta|: nothing below the determinant is left to split off.
    m = from_rows(rows)
    rank, delta, _, _ = _bareiss(m.row_lists())
    assert rank == m.rows and abs(delta) == expected.torsion[-1]
    assert cokernel(m) == expected


def test_cokernel_more_rows_than_rank():
    # rank 1 in Z^4: the top rows - rank factors of the mod-D group are D
    m = from_rows([[6, 12], [4, 8], [0, 0], [10, 20]])
    assert _bareiss(m.row_lists())[0] == 1
    assert cokernel(m) == AbelianGroup(3, (2,))
    assert cokernel(from_rows([[6], [0], [0]])) == AbelianGroup(2, (6,))


def random_sparse_rows(rng, rows, cols, density, big):
    """Entries nonzero with the given probability, small or of 60 to 64 bits."""
    def entry():
        if rng.random() >= density:
            return 0
        x = rng.randint(2 ** 60, 2 ** 64) if big else rng.randint(1, 9)
        return rng.choice((x, -x))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_bareiss_matches_eager_sweep_on_sparse_matrices():
    rng = random.Random(20261018)
    for n in range(240):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if n % 2:
            rows, cols = min(rows, cols), max(rows, cols) + 1
        else:
            rows, cols = max(rows, cols) + 1, min(rows, cols)
        a = random_sparse_rows(rng, rows, cols, rng.uniform(0.05, 0.4), n % 3 == 0)
        for i in rng.sample(range(rows), rng.randint(0, min(2, rows))):
            a[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, min(2, cols))):
            for row in a:
                row[j] = 0
        assert _bareiss([list(r) for r in a]) == bareiss_rank_minor(a), a


@pytest.mark.parametrize("rows", [
    # Row 2 skips step 0; at step 1 it is the first nonzero of column 1,
    # below row 1 (updated, now 0 there), so a stale row is swapped in as pivot.
    [[2, 1, 0, 0], [2, 1, 1, 0], [0, 3, 1, 1], [1, 0, 0, 1]],
    # Row 3 skips steps 0 and 1 (pivots 2 and 3) and is updated at step 2.
    [[2, 1, 1, 0], [1, 2, 0, 1], [1, 1, 3, 1], [0, 0, 1, 2]],
])
def test_bareiss_deferred_rows_match_eager_sweep(rows):
    result = _bareiss([list(r) for r in rows])
    assert result == bareiss_rank_minor(rows)
    assert abs(result[1]) == abs(det_bareiss(rows))


class CountingRow(list):
    """A row that counts its item and slice assignments."""

    def __init__(self, values):
        super().__init__(values)
        self.writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def test_bareiss_leaves_rows_with_zero_pivot_entries_alone():
    # M = diag(A, I_m): the eager sweep rewrites identity row k + j at every
    # step up to its own, at least k times; the deferred one never does.
    rng = random.Random(7)
    k, m = 6, 5
    dense = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)] for _ in range(k)]
    grid = [row + [0] * m for row in dense] + [[0] * k + [int(i == j) for j in range(m)]
                                               for i in range(m)]
    a = [list(r) for r in grid[:k]] + [CountingRow(r) for r in grid[k:]]
    identity_rows = a[k:]
    result = _bareiss(a)
    assert result == bareiss_rank_minor(grid) and result[0] == k + m
    assert [r.writes for r in identity_rows] == [0] * m
    assert all(x is y for x, y in zip(a[k:], identity_rows))
    assert [list(r) for r in a[k:]] == grid[k:]


# One fixed matrix per step of the elimination over Z/D; the comment names
# the step the first pivot takes (D is the Bareiss minor, shown mod D).
@pytest.mark.parametrize("rows", [
    [[3, 1], [1, 3]],            # D = 8: unit pivot 3, q = 1 * 3^-1 = 3 mod 8
    [[6, 2], [2, 6]],            # D = 32: clean pivot 6, g = 2, q = 1 * 3^-1 mod 16
    [[6, 9], [10, 0]],           # D = 90: g = 6 does not divide 10 below it: row combine
    [[15, 0, 6], [10, 6, 0]],    # D = 90: g = 6 divides its column, not 15 beside it:
                                 # column combine
    [[6, 10, 0], [15, 0, 0], [0, 0, 30]],   # D = 4500: 6 and 15 combine to g = 3
])
def test_elimination_steps_match_snf(rows):
    m = from_rows(rows)
    d, _, _ = smith_normal_form(m)
    assert cokernel(m) == group_from_diagonal(m.rows, diagonal(d))


@pytest.mark.parametrize("rows, d", [
    ([{0: 3, 1: 1}, {0: 1, 1: 3}], 8),
    ([{0: 6, 1: 2}, {0: 2, 1: 6}], 32),
    ([{0: 6, 1: 9}, {0: 10}], 90),
    ([{0: 15, 2: 6}, {0: 10, 1: 6}], 90),
    ([{0: 2, 1: 3}, {0: 3}], 6),        # D need not be the determinant here
    ([{0: 4, 2: 6}, {}], 8),            # a row with no pivot contributes Z/D
    # One case per branch of the dict-row steps.  Pivot 6 (g = 6), and 10
    # below it: the row combine must write column 1, which only the other
    # row holds.
    pytest.param([{0: 6}, {0: 10, 1: 15}], 90, id="row-combine-over-union-of-keys"),
    # Pivot 2 (g = 2), and 3 beside it: the column combine must write the
    # second row, which holds column 1 but not the pivot column 0.
    pytest.param([{0: 2, 1: 3}, {1: 5}], 90, id="column-combine-row-without-pivot-column"),
    # The unit pivot 1 clears the second row, whose column-1 residue
    # 2 - 1 * 2 becomes 0 and must lose its key.
    pytest.param([{0: 1, 1: 2}, {0: 1, 1: 2}], 6, id="clean-zeroes-a-residue"),
    # Pivot 2 (g = 2) clears 4 below it, which leaves the second row empty;
    # it still contributes Z/8.
    pytest.param([{0: 2}, {0: 4}], 8, id="row-empties-and-counts-as-z-mod-d"),
])
def test_cyclic_orders_mod_is_the_quotient_by_d(rows, d):
    # (Z/d)^r / span(M) is the cokernel of [M | d*I] over Z.
    r, cols = len(rows), 1 + max((j for row in rows for j in row), default=-1)
    m = from_rows([[row.get(j, 0) for j in range(cols)] + [d * (i == j) for j in range(r)]
                   for i, row in enumerate(rows)])
    orders = _cyclic_orders_mod([dict(row) for row in rows], d)
    assert len(orders) == r
    diag, _, _ = smith_normal_form(m)
    group = AbelianGroup(0, tuple(_invariant_factors(orders)))
    assert group == group_from_diagonal(r, diagonal(diag))


RELATION_KINDS = ("dense", "low-rank", "diagonal", "shared-factor")


@st.composite
def relation_matrices(draw, kinds=RELATION_KINDS):
    """Rectangular matrices up to 8 x 10: dense, low-rank, a scrambled diagonal,
    or with every entry sharing a factor with the determinant D.

    Entries are small or at least 60 bits; some rows and columns are zeroed.
    ``kinds`` limits the draw to some of the four.
    """
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    small = st.integers(-9, 9)
    big = st.integers(2 ** 60, 2 ** 64).flatmap(lambda x: st.sampled_from([x, -x]))
    entry = st.one_of(small, big) if draw(st.booleans()) else small

    def grid(r, c, values=small):
        return [[draw(values) for _ in range(c)] for _ in range(r)]

    kind = draw(st.sampled_from(kinds))
    if kind == "dense":
        a = grid(rows, cols, entry)
    elif kind == "shared-factor":
        # Every entry is a multiple of 6 and 6^rho divides every rho x rho
        # minor, so no entry is a unit mod D: only non-unit pivots and combines.
        a = grid(rows, cols, st.sampled_from([0, 2, 3, 4, 6, 8, 9, 10, 12, 15])
                 .flatmap(lambda x: st.sampled_from([6 * x, -6 * x])))
    elif kind == "low-rank":
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        a = mat_mul(IntMatrix(rows, inner, grid(rows, inner, entry)),
                    IntMatrix(inner, cols, grid(inner, cols))).row_lists()
    else:
        a = [[0] * cols for _ in range(rows)]
        for i in range(min(rows, cols)):
            a[i][i] = draw(st.sampled_from([0, 1, 2, 3, 4, 6, 12, 36, 2 ** 61 * 3]))
        for _ in range(draw(st.integers(0, 12))):
            # unimodular scrambling: add a multiple of one row (or column) to another
            c = draw(small)
            if rows >= 2 and draw(st.booleans()):
                i, j = draw(st.sampled_from([(i, j) for i in range(rows) for j in range(rows)
                                             if i != j]))
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            elif cols >= 2:
                i, j = draw(st.sampled_from([(i, j) for i in range(cols) for j in range(cols)
                                             if i != j]))
                for row in a:
                    row[i] += c * row[j]
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            a[i] = [0] * cols
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in a:
                row[j] = 0
    return IntMatrix(rows, cols, a)


@settings(max_examples=150)
@given(relation_matrices())
def test_cokernel_matches_snf_and_sympy(m):
    group = cokernel(m)
    d, _, _ = smith_normal_form(m)
    assert group == group_from_diagonal(m.rows, diagonal(d))
    if m.rows and m.cols:
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        factors = invariant_factors(sympy.Matrix(mat_rows(m)), domain=sympy.ZZ)
        assert group == group_from_diagonal(m.rows, [int(f) for f in factors])
    else:
        assert group == AbelianGroup(m.rows)


@settings(max_examples=100)
@given(relation_matrices(), st.lists(st.integers(0, 8), min_size=1, max_size=3))
def test_zero_rows_add_free_summands_and_keep_torsion(m, positions):
    rows = m.row_lists()
    for p in positions:
        rows.insert(min(p, len(rows)), [0] * m.cols)
    group = cokernel(m)
    padded = cokernel(IntMatrix(len(rows), m.cols, rows))
    assert padded == AbelianGroup(group.free_rank + len(positions), group.torsion)


def prime_split(m):
    """(D, D') of cokernel's step 2a: D = |Delta|, D' its part at the primes of Delta'."""
    _, delta, before, _ = _bareiss(m.row_lists())
    d = d2 = abs(delta)
    while (g := gcd(d2, before)) > 1:
        d2 //= g
    return d, d // d2


@st.composite
def split_matrices(draw):
    """Matrices up to 6 x 7, many with torsion that is not cyclic at primes of Delta'.

    Diagonal blocks whose entries are powers of one shared factor (2, 3,
    5, 6, 10 or 12) times 1, 7, 11 or 49, mixed by unimodular row and
    column moves; low-rank products; rank-1 outer products; and zero
    matrices.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    small = st.integers(-4, 4)
    kind = draw(st.sampled_from(["diagonal", "low-rank", "rank-1", "zero"]))
    if kind == "diagonal":
        shared = draw(st.sampled_from([2, 3, 5, 6, 10, 12]))
        a = [[0] * cols for _ in range(rows)]
        for i in range(min(rows, cols)):
            a[i][i] = (shared ** draw(st.integers(0, 3))
                       * draw(st.sampled_from([1, 1, 7, 11, 49])))
        for _ in range(draw(st.integers(0, 16))):
            c = draw(small)
            if rows >= 2 and draw(st.booleans()):
                i, j = draw(st.permutations(range(rows)))[:2]
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            elif cols >= 2:
                i, j = draw(st.permutations(range(cols)))[:2]
                for row in a:
                    row[i] += c * row[j]
    elif kind == "low-rank":
        inner = draw(st.integers(1, min(rows, cols)))
        left = [[draw(small) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(small) * draw(st.sampled_from([1, 2, 3, 6])) for _ in range(cols)]
                 for _ in range(inner)]
        a = mat_mul(IntMatrix(rows, inner, left), IntMatrix(inner, cols, right)).row_lists()
    elif kind == "rank-1":
        scale = draw(st.sampled_from([1, 2, 4, 6, 9, 30]))
        u = [draw(small) for _ in range(rows)]
        v = [draw(small) for _ in range(cols)]
        a = [[scale * x * y for y in v] for x in u]
    else:
        a = [[0] * cols for _ in range(rows)]
    return IntMatrix(rows, cols, a)


def split_kind(m):
    d, d1 = prime_split(m)
    if d == 1:
        return "free"
    return "D' = 1" if d1 == 1 else "D' = D" if d1 == d else "1 < D' < D"


@settings(max_examples=300)
@given(split_matrices())
def test_cokernel_split_by_previous_pivot_matches_snf_and_sympy(m):
    group = cokernel(m)
    d, _, _ = smith_normal_form(m)
    assert group == group_from_diagonal(m.rows, diagonal(d))
    try:
        import sympy
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        return
    factors = invariant_factors(sympy.Matrix(mat_rows(m)), domain=sympy.ZZ)
    assert group == group_from_diagonal(m.rows, [int(f) for f in factors])


@pytest.mark.parametrize("kind", RELATION_KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_dict_row_elimination_matches_dense_oracle(kind, data):
    # At the D' that cokernel eliminates modulo, and at fixed composite moduli
    # of which some entries are units and some are not.
    m = data.draw(relation_matrices(kinds=(kind,)))
    for d in {prime_split(m)[1], 6, 90, 2 ** 5 * 3 ** 3 * 5} - {1}:
        lists = [[x % d for x in row] for row in m.data]
        rows = [{j: x for j, x in enumerate(row) if x} for row in lists]
        assert (_invariant_factors(_cyclic_orders_mod(rows, d))
                == _invariant_factors(cyclic_orders_mod_by_lists(lists, d))), d


@pytest.mark.parametrize("kind", ["D' = 1", "D' = D", "1 < D' < D"])
def test_split_matrices_reach_every_prime_split(kind):
    m = find(split_matrices(), lambda m: split_kind(m) == kind,
             settings=settings(database=None, max_examples=2000))
    assert split_kind(m) == kind


@pytest.mark.parametrize("rows, expected", [
    # rank 1: Delta' = 1, so D' = 1 and the torsion is the content c alone
    ([[6, 12], [4, 8], [10, 20]], (1, 6, 1, 2)),
    # Delta = -8, Delta' = 2: D' = D = 8, and c is the content of [0, -8]
    ([[2, 4], [6, 8]], (2, -8, 2, 8)),
    # diag(2, 2, 15) mixed: D = 60 and D' = 4, so Z/15 = Z/gcd(D'', c) needs
    # no elimination
    ([[2, 2, 0], [0, 2, 0], [2, 2, 15]], (3, 60, 4, 60)),
])
def test_bareiss_previous_pivot_and_content(rows, expected):
    assert _bareiss([list(r) for r in rows]) == bareiss_rank_minor(rows) == expected
    m = from_rows(rows)
    assert cokernel(m) == group_from_diagonal(m.rows, diagonal(smith_normal_form(m)[0]))


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(-1)


def test_abelian_group_messages_show_huge_factors_cut():
    huge = 10 ** 4000  # a message shows each factor cut to 60 characters
    for torsion, message in (((-huge,), "torsion coefficient -1000"),
                             ((huge + 1, huge), "invariant factors must form a divisibility")):
        with pytest.raises(ValueError, match=f"^{message}") as info:
            AbelianGroup(0, torsion)
        assert len(str(info.value)) < 200


@pytest.mark.parametrize("free_rank, torsion", [
    (1.5, ()), (True, ()), ("1", ()), (None, ()), (2.0, ()),
    (1, ("12",)), (True, ("12",)), (0, (2.0,)), (0, (True,)), (0, (2, 4.0)), (0, 12), (0, "12"),
])
def test_abelian_group_needs_integers(free_rank, torsion):
    # no coercion: Z^1.5 and Z + Z/12 from (True, ("12",)) used to be accepted
    with pytest.raises(ValueError, match="must be integers"):
        AbelianGroup(free_rank, torsion)


@pytest.mark.parametrize("data", [
    {"free_rank": "1", "torsion": []}, {"free_rank": 1.0, "torsion": []},
    {"free_rank": 1, "torsion": ["3"]}, {"free_rank": 1, "torsion": [3.0]},
    {"free_rank": False, "torsion": [3]},
])
def test_abelian_group_from_dict_does_not_coerce(data):
    with pytest.raises(ValueError, match="must be integers"):
        AbelianGroup.from_dict(data)


def test_abelian_group_describe():
    assert AbelianGroup(0).describe() == "0"
    assert AbelianGroup(1).describe() == "Z"
    assert AbelianGroup(2).describe() == "Z^2"
    assert AbelianGroup(0, (5,)).describe() == "Z/5"
    assert AbelianGroup(2, (2, 4)).describe() == "Z^2 + Z/2 + Z/4"
    assert AbelianGroup.from_dict({"free_rank": 1, "torsion": [3]}).describe() == "Z + Z/3"


@pytest.mark.parametrize("entry", [2.9, 1.5, True, "7", None])
def test_matrix_rejects_non_integer_entries(entry):
    for grid in ([[entry]], [[1, 2], [3, entry]]):
        with pytest.raises(ValueError, match="matrix entries must be integers, got "):
            IntMatrix(len(grid), len(grid), grid)
    with pytest.raises(ValueError, match="must be integers"):
        from_rows([[entry, 0]])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])
    a = IntMatrix.identity(2)
    b = zeros(3, 3)
    with pytest.raises(ValueError):
        mat_mul(a, b)


@pytest.mark.parametrize("rows, cols", [(-1, 0), (0, -1), (-2, 3)])
def test_matrix_rejects_negative_dimensions(rows, cols):
    with pytest.raises(ValueError, match="^negative matrix dimensions$"):
        IntMatrix(rows, cols, [])
