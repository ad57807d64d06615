"""Exact integer matrix algebra: Smith normal form and cokernels.

Everything here runs on Python ints, so intermediate entries may grow
arbitrarily large without overflow.  Matrices are immutable values;
the reduction routines work on private copies.  ``Value`` is the base of
every immutable class in the package: equality, hash and repr by field.

``smith_normal_form`` is the reference: it tracks the unimodular
transforms, whose entries can grow to tens of thousands of bits at rank
twenty.  ``cokernel`` needs only the invariant factors and works modulo
a determinant instead (Domich, Kannan and Trotter 1987; Kannan and
Bachem 1979; Cohen, *A Course in Computational Algebraic Number Theory*,
section 2.4):

1. Fraction-free elimination (Bareiss 1968) gives the rank rho of the
   r x c relation matrix M and its last pivot Delta, a nonzero rho x rho
   minor.  If rho = 0 or |Delta| = 1 the cokernel is free.  The pivot
   is the first nonzero entry of its column.  Scaling is deferred: the
   eager sweep multiplies a row with a 0 in the pivot column by
   piv / prev, and these factors telescope, so such a row is left alone
   and remembers the pivot it was last rewritten under, its level l.
   When it next has a nonzero x in the pivot column, each entry y is
   rewritten as (y * piv - x * z) / l, z being the pivot row's entry in
   y's column; when it is next the pivot row it is first brought up as
   y * prev / l.  Both divisions are exact, since the
   results are the eager sweep's entries, which are minors of M.  A
   stale row is zero exactly where the eager row is, so the pivot order,
   rho and Delta are the eager sweep's.
2. Otherwise let D = |Delta|.  Z^r / (column span of M + D*Z^r) is
   (Z/D)^r / (column span of M mod D), and Gaussian elimination over the
   ring Z/D splits it into cyclic groups.  Invertible row operations mod
   D are automorphisms of (Z/D)^r and invertible column operations keep
   the span, so neither changes the group.  On the remaining block:

   - Pivot: a nonzero entry p whose g = gcd(p, D) is least, taking the
     first with g = 1.
   - Clean, when g divides every entry of p's column and row.  For each
     prime l, v_l(g) = min(v_l(p), v_l(D)), so l divides at most one of
     p/g and D/g; they are coprime and inv = (p/g)^-1 mod D/g exists.
     For a multiple x of g, q = (x/g) * inv mod D/g has
     q * (p/g) = x/g (mod D/g); multiplying by g gives q * p = x (mod D).
     Subtracting q times the pivot row from the row of each x in p's
     column clears that column.  The column operations that would clear
     the pivot row the same way touch no other row, because the pivot
     column is now zero elsewhere.  So the pivot row and column split
     off (Z/D)/(p) = Z/g and are dropped.
   - Combine, when g does not divide an entry x of p's column (or row):
     with h = gcd(p, x) = s*p + t*x, the rows (or columns) of p and x
     become s*(p's) + t*(x's) and (p/h)*(x's) - (x/h)*(p's), a step of
     determinant 1 that leaves h at the pivot and 0 in place of x.  Now
     gcd(h, D) = gcd(g, x) is a proper divisor of g, so the pivot's gcd
     with D strictly decreases and at most log2(D) combines precede a
     clean step.
   - Finish: each row left when no nonzero entry remains contributes Z/D.

   Every entry stays in [0, D) throughout.
2a. Only part of D needs the elimination.  Let Delta' be the pivot
   before the last (1 when rho = 1): up to sign the determinant of the
   block A on the first rho - 1 pivot rows and columns.  Split
   D = D' * D'', D' made of the primes that divide Delta'.  Take a prime
   p of D''.  Over Z localized at p, A is invertible, so row and column
   operations turn M into diag(A, S) with the Schur complement
   S = M22 - M21 A^-1 M12, and the p-parts of the cokernels of M and S
   agree.  By Sylvester's identity the eager Bareiss block T after
   rho - 1 steps (the trailing rows, at level Delta') is Delta' * S, and
   p does not divide Delta', so S and T have the same content at p.  T
   has rank 1 and holds Delta at the last pivot, so T = a b^T / Delta
   for its pivot column a and its pivot row b, and by Gauss's lemma its
   content is c = content(a) * content(b) / |Delta|, a divisor of Delta.
   The p-part of the cokernel is therefore cyclic of order p^v_p(c):
   every p-part of D'' lies in the single factor Z/gcd(D'', c), carried
   by d_rho alone, since d_1 * ... * d_(rho-1) divides the minor Delta'.
   Step 2 runs modulo D' only, and not at all when D' = 1.  The defect
   columns of an open book's relation matrix come first for this reason
   (``openbook._relation_matrix``): last, they leave the handle block's
   determinant in both Delta' and Delta (Sylvester), and D' is nearly D.
3. Let d_1 | ... | d_rho be the nonzero invariant factors of M.  Their
   product is the gcd of the rho x rho minors, so it divides Delta, and
   gcd(d_i, D') is the D'-part of d_i.  Hence Z^r / L' = Z/gcd(d_1, D') +
   ... + Z/gcd(d_rho, D') + (Z/D')^(r - rho) for L' = (column span of M)
   + D'*Z^r: its invariant-factor chain ends in r - rho copies of D', and
   what comes before them is the D'-part of d_1..d_rho.  The last of
   those, times gcd(D'', c), completes the chain (step 2a), and the
   cokernel is Z^(r - rho) plus it.

Each Bareiss step rewrites only the rows with a nonzero entry in its
pivot column, so on the sparse relation matrices of open books most
rows sit out most steps.  Each unit pivot mod D' costs one row update
per nonzero row of its column and no column work; the work is bounded by
the bit length of D' rather than by the growth of the transforms.
"""

from __future__ import annotations

from itertools import chain
from math import gcd


class Value:
    """An immutable value whose fields are its public ``__slots__``, in order.

    A subclass's ``__init__`` takes the fields positionally, checks them
    and stores every slot with ``_set``; copying and pickling call it
    again.  Equality needs the exact class and equal fields, the hash is
    the fields', and the repr is ``Name(field=value, ...)``.  Slots
    starting with ``_`` are private caches, outside all of these.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # _set, __eq__ and __hash__ are written out per class, as they would be
        # by hand: a loop over the slots builds a value about 60% slower, and a
        # key read through operator.attrgetter hashes a Surface 50% slower.
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        self_key, other_key = (f"({''.join(f'{obj}.{f}, ' for f in cls._fields)})"
                               for obj in ("self", "other"))
        namespace = {}
        exec(f"def _set(self, {', '.join(cls.__slots__)}):\n"
             + "".join(f"    object.__setattr__(self, {f!r}, {f})\n" for f in cls.__slots__)
             + f"def __eq__(self, other):\n"
               f"    if other.__class__ is self.__class__:\n"
               f"        return {self_key} == {other_key}\n"
               f"    return NotImplemented\n"
               f"def __hash__(self):\n"
               f"    return hash({self_key})\n", namespace)
        cls._set, cls.__eq__, cls.__hash__ = (namespace[f] for f in ("_set", "__eq__", "__hash__"))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntMatrix(Value):
    """An immutable rows x cols matrix of ints (not bools); other entries raise ValueError."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = tuple(map(tuple, data))
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            bad = next(x for x in chain.from_iterable(data) if type(x) is not int)
            raise ValueError(f"matrix entries must be integers, got {bad!r}")
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("entry grid does not match declared shape")
        self._set(rows, cols, data)

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def row_lists(self):
        return [list(r) for r in self.data]

    def diagonal(self):
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            srow = self.data[i]
            orow = []
            for j in range(other.cols):
                orow.append(sum(srow[k] * other.data[k][j] for k in range(self.cols)))
            out.append(orow)
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(row[k] * vec[k] for k in range(self.cols)) for row in self.data)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.data))!r})"

    def is_identity(self):
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols))


class AbelianGroup(Value):
    """A finitely generated abelian group Z^free_rank + Z/d_1 + ... + Z/d_k.

    Torsion coefficients are the invariant factors: each d_i >= 2 and
    d_i divides d_{i+1}.  The rank and the factors must be ints (not
    bools); anything else raises ValueError.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        # bool is a subclass of int, so it is rejected by the exact type test
        if type(free_rank) is not int or not isinstance(torsion, (list, tuple)) or any(
                type(d) is not int for d in torsion):
            raise ValueError(f"free rank and torsion must be integers, got {free_rank!r}, "
                             f"{torsion!r}")
        torsion = tuple(torsion)
        self._set(free_rank, torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in torsion:
            if d < 2:
                raise ValueError(f"torsion coefficient {d} < 2 (trivial factors are dropped)")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain, got {a}, {b}")

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def as_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or not {"free_rank", "torsion"} <= d.keys():
            raise ValueError("abelian group needs an object with free_rank and torsion")
        return cls(d["free_rank"], d["torsion"])

    def __str__(self):
        return self.describe()


def _min_abs_nonzero(a, t, rows, cols):
    """Position of a minimal-|value| nonzero entry of the t-trailing block."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = a[i][j]
            if x != 0:
                ax = abs(x)
                if best is None or ax < best[0]:
                    best = (ax, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(m):
    """Diagonalize m over Z: returns (d, u, v) with d = u * m * v.

    u and v are unimodular, d is diagonal with nonnegative entries
    satisfying d_i | d_{i+1}.  Pivots are chosen with minimal absolute
    value, which keeps entry growth down and the output deterministic.
    Total on every rectangular shape, including empty ones.
    """
    rows, cols = m.rows, m.cols
    a = m.row_lists()
    u = IntMatrix.identity(rows).row_lists()
    v = IntMatrix.identity(cols).row_lists()

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, coeff):
        # row_dst += coeff * row_src, tracked in u
        arow, srow = a[dst], a[src]
        for k in range(cols):
            arow[k] += coeff * srow[k]
        urow, usrc = u[dst], u[src]
        for k in range(rows):
            urow[k] += coeff * usrc[k]

    def add_col(dst, src, coeff):
        # col_dst += coeff * col_src, tracked in v
        for row in a:
            row[dst] += coeff * row[src]
        for row in v:
            row[dst] += coeff * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _min_abs_nonzero(a, t, rows, cols)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Euclidean clearing of column t, then row t.  A nonzero
            # remainder is strictly smaller than the pivot, so swapping
            # it into the pivot slot makes progress.
            for i in range(t + 1, rows):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
            for j in range(t + 1, cols):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
            if any(a[i][t] != 0 for i in range(t + 1, rows)):
                continue
            if any(a[t][j] != 0 for j in range(t + 1, cols)):
                continue
            # Fold in any entry the pivot does not divide yet; this is
            # what makes the diagonal a divisibility chain.
            bad = None
            p = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            for k in range(cols):
                a[i][k] = -a[i][k]
            for k in range(rows):
                u[i][k] = -u[i][k]

    return (IntMatrix(rows, cols, a),
            IntMatrix(rows, rows, u),
            IntMatrix(cols, cols, v))


def _bareiss(a):
    """(rank, last pivot, previous pivot, c) of fraction-free elimination on the rows of a.

    The last pivot Delta is, up to sign, a nonzero rank x rank minor and
    the previous one Delta' the (rank - 1) x (rank - 1) minor inside it;
    c is the content of the last step's trailing block, which has rank 1:
    the gcd of its pivot-column entries brought to level Delta', times
    the gcd of the caught-up pivot row, over |Delta| (step 2a of the
    module docstring).  Rank 0 gives (0, 1, 1, 1).  Consumes a.

    Scaling is deferred: a row is rewritten only at the steps where its
    entry in the pivot column is nonzero, and level[i] is the pivot it
    was last rewritten under (1 at the start).  The eager sweep would
    multiply it by piv / prev at each skipped step; those factors
    telescope, so the row is the eager one times level[i] / prev.  The
    update (y * piv - x * z) // level[i], and the catch-up
    y * prev // level[i] of a stale pivot row, give the eager values
    exactly, because those are Bareiss entries (minors).  A stale row is
    zero where the eager row is, so the pivot order and Delta are the
    eager sweep's.  Levels move with their rows when rows are swapped.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    level = [1] * rows
    rank, prev, before, col = 0, 1, 1, 0
    prow = xs = [1]
    while rank < rows and col < cols:
        p = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if p is None:
            col += 1
            continue
        a[rank], a[p] = a[p], a[rank]
        level[rank], level[p] = level[p], level[rank]
        prow = a[rank][col:]
        lp = level[rank]
        if lp != prev:
            prow = [y * prev // lp for y in prow]
        piv = prow[0]
        xs = [piv]  # the pivot column at level prev, for c
        for i in range(rank + 1, rows):
            ai = a[i]
            x = ai[col]
            if x:
                # Entries left of col are zero in both rows.
                li = level[i]
                xs.append(x if li == prev else x * prev // li)
                ai[col:] = [(y * piv - x * z) // li for y, z in zip(ai[col:], prow)]
                level[i] = piv
        before, prev = prev, piv
        rank += 1
        col += 1
    return rank, prev, before, gcd(*xs) * gcd(*prow) // abs(prev)


def _xgcd_step(p, x):
    """(h, s, t, u, v) for positive p and x, with h = gcd(p, x) = s*p + t*x.

    [[s, t], [-u, v]] has determinant 1 and takes (p, x) to (h, 0).
    """
    h = gcd(p, x)
    s = pow(p // h, -1, x // h)
    return h, s, (h - s * p) // x, x // h, p // h


def _least_gcd_entry(a, d):
    """(i, j, g) for an entry a[i][j] whose g = gcd(a[i][j], d) is least.

    The first entry with g = 1 ends the search; None if every entry is 0.
    All-zero rows, which the elimination leaves behind, are passed over whole.
    Entries lie in [0, d), so x % g is nonzero only for a nonzero x that
    is not a multiple of the best g so far, the only ones that can beat it.
    """
    best, g = None, d
    for i, row in enumerate(a):
        if not any(row):
            continue
        for j, x in enumerate(row):
            if x % g:
                h = gcd(x, d)
                if h < g:
                    best, g = (i, j), h
                    if g == 1:
                        return i, j, 1
    return None if best is None else (*best, g)


def _cyclic_orders_mod(a, d):
    """Orders of the cyclic summands of (Z/d)^rows / (column span of a).

    Gaussian elimination over the ring Z/d, step 2 of the module
    docstring; a holds entries in [0, d) and is consumed.
    """
    orders = []
    while (piv := _least_gcd_entry(a, d)) is not None:
        i, j, g = piv
        while g > 1:
            # Combine: an entry x of the pivot's column (or row) that g does
            # not divide goes into the pivot by one unimodular 2 x 2 step,
            # which leaves gcd(p, x) there and 0 in place of x.
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
            g = gcd(h, d)
        # Clean: q * p = x (mod d) clears each entry x of the pivot column.
        # The pivot row and column then split off Z/g and are dropped.
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


def _invariant_factors(orders):
    """Invariant factors (all >= 2) of the sum of cyclic groups of the given orders.

    Z/x + Z/y = Z/gcd(x, y) + Z/lcm(x, y); one pass over the pairs leaves
    each order dividing every later one.
    """
    c = [x for x in orders if x != 1]
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            g = gcd(c[i], c[j])
            c[i], c[j] = g, c[i] // g * c[j]
    return [x for x in c if x != 1]


def cokernel(m):
    """Structure of Z^rows / (column span of m) as an AbelianGroup.

    Determinant-modular, as laid out in the module docstring: Bareiss
    gives the rank rho, a nonzero rho x rho minor Delta, the minor Delta'
    before it and the content c of its last trailing block.  D = |Delta|
    splits as D' * D'', D' made of the primes that divide Delta'.  The
    primes of D'' divide only d_rho, and their part of it is gcd(D'', c)
    (step 2a).  Elimination over Z/D' splits (Z/D')^rows / (column span
    of m) into cyclic groups, Z/gcd(d_1, D') + ... + Z/gcd(d_rho, D') +
    (Z/D')^(rows - rho), since the d_i multiply to a divisor of Delta.
    Its chain with the top rows - rho factors (each D') dropped, the last
    factor times gcd(D'', c), is the torsion.  When D' = 1 there is no
    elimination at all.
    """
    rows = m.rows
    rank, delta, before, content = _bareiss(m.row_lists())
    d = abs(delta)
    if rank == 0 or d == 1:
        return AbelianGroup(rows - rank)
    # d2 = D'' is d with every prime of Delta' divided out, d1 = D'
    d2, g = d, gcd(d, before)
    while g > 1:
        d2 //= g
        g = gcd(d2, g * g)
    d1 = d // d2
    chain = []
    if d1 > 1:
        chain = _invariant_factors(_cyclic_orders_mod([[x % d1 for x in row] for row in m.data],
                                                      d1))
        chain = chain[:len(chain) - (rows - rank)]
    top = gcd(d2, content)  # the D''-part of d_rho
    if chain:
        chain[-1] *= top
    elif top > 1:
        chain = [top]
    return AbelianGroup(rows - rank, tuple(chain))
