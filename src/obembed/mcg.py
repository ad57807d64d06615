"""Dehn twist words and their action on page homology.

A twist along a curve c acts on H1 by the transvection

    x  |->  x + e * <x, [c]> * [c]

for a twist power e.  Words are read with the rightmost letter acting
first, so the action of a word is the left-to-right product of the
letter matrices.

The same transvection rule drives the relative bookkeeping for arcs:
pushing an arc r through a twist changes its closure defect by
e * (<r, c> + <v, [c]>) * [c], where v is the defect accumulated so
far.  The defect of a word along arc i is the class of (word(r_i) -
r_i), the quantity the boundary filling of an open book kills.

Both are computed in one pass over the augmented matrix [I | 0]
(rank x (rank + n - 1)), held as rows: each letter multiplies it on the
left by I + e * c (Jc)^T, with the arcs' crossing numbers <r_i, c> added
to the defect columns, and only the rows in the support of c change.
The result is [Phi | delta_1 .. delta_{n-1}]; without arcs the pass
starts from I alone and yields Phi.  The per-curve data (the supports of
c and Jc and the sparse crossing shift) come from ``CurveConfig.twist``,
built once per configuration.

The relation checks use the same rule on a few rows.  T_c fixes every
basis class e_j with j outside supp(Jc), so two words in the twists
along c and d both fix every e_j outside the union U of supp(Jc) and
supp(Jd), and they are equal exactly when their images of the e_j with
j in U are.  Those images differ from e_j only in the rows of U, supp(c)
and supp(d), so the pass runs on those rows alone, cut down to the
columns U, which has at most four members on default curves.
"""

from __future__ import annotations

import re
from operator import add, itemgetter, sub

from .intlinalg import IntMatrix, Value

_LETTER = re.compile(r"t\(([A-Za-z][A-Za-z0-9_]*)\)(?:\^(-?\d+))?").fullmatch


class WordSyntaxError(ValueError):
    """Raised on malformed twist-word text."""


class TwistWord(Value):
    """An ordered word of (curve_name, exponent) letters.

    Names must be strings and exponents ints (not bools); anything else
    raises ValueError.  Zero exponents are dropped on construction; the
    word is otherwise kept letter-for-letter (words with equal matrices
    are not merged).
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for name, exp in letters:
            # bool is a subclass of int, so it is rejected by the exact type test
            if not isinstance(name, str) or type(exp) is not int:
                raise ValueError(f"twist letter needs a string name and an integer "
                                 f"exponent, got ({name!r}, {exp!r})")
        self._set(tuple((name, exp) for name, exp in letters if exp))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def is_empty(self):
        return not self.letters

    def concat(self, other):
        return TwistWord(self.letters + other.letters)

    def inverse(self):
        return TwistWord(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def curve_names(self):
        return tuple(dict.fromkeys(map(itemgetter(0), self.letters)))

    def rename(self, mapping):
        return TwistWord(tuple((mapping.get(name, name), exp)
                               for name, exp in self.letters))


def parse_word(text):
    """Parse whitespace-separated letters like ``t(a1) t(b1)^-1``.

    Each distinct token is read once, in the order of its first
    occurrence, so the first bad token of the text is the one reported;
    a long word repeats a few dozen tokens.
    """
    tokens = text.split()
    letters = {}
    for token in dict.fromkeys(tokens):
        m = _LETTER(token)
        if not m:
            raise WordSyntaxError(f"bad twist letter {token!r} "
                                  "(expected t(<name>) with optional ^<int>)")
        name, exp = m.groups()
        try:
            letters[token] = (name, int(exp or 1))
        except ValueError as exc:  # more digits than int() converts
            raise WordSyntaxError(f"bad exponent of t({name}): {exc}") from None
    return TwistWord(tuple(map(letters.__getitem__, tokens)))


def format_word(word):
    parts = []
    for name, exp in word:
        parts.append(f"t({name})" if exp == 1 else f"t({name})^{exp}")
    return " ".join(parts)


def _transvect(rows, letters, cfg, arcs):
    """Apply a word's letters to a matrix given by its rows (updated in place).

    rows may be a list or a dict keyed by row index; it needs every row
    index the letters read or write (the supports of Jc and of c).
    Letters act rightmost first, each as T = I + e * c (Jc)^T on the
    left: w = (Jc)^T . rows + s, then row i += e * c_i * w for each i in
    the support of c; s is the letter's arc shift if ``arcs`` is set.
    A letter with no pairing and no shift has w = 0 and is skipped; on
    the full rows, whose leading block is invertible, it is the only
    such letter.  A shift alone touches only its columns; one pairing entry
    (k, b) and no shift adds (e * c_i * b) * row k directly.  The first
    two pairing entries, all a chain curve has, are summed in one pass;
    when both are +-1 and there is no shift, as on a chain curve, that
    pass is one map of add or sub and b goes into the factor the same
    way.  A row whose factor is +-1 takes w by one map of add or sub.
    """
    twist = cfg.twist
    for name, exp in reversed(letters):
        support, pairing, shift = twist(name)
        if not arcs:
            shift = None
        if not pairing:
            if shift:
                for i, a in support:
                    row, m = rows[i], exp * a
                    for col, s in shift:
                        row[col] += m * s
            continue
        k, b = pairing[0]
        if len(pairing) == 1 and not shift:
            w, exp = rows[k], exp * b  # w = b * row k, with b folded into the factor
        elif len(pairing) == 2 and not shift and b * b == 1 == pairing[1][1] ** 2:
            # a chain curve: w = b * (row k +- row k2), with b folded into the factor
            k2, b2 = pairing[1]
            w, exp = list(map(add if b == b2 else sub, rows[k], rows[k2])), exp * b
        else:
            k2, b2 = pairing[1] if len(pairing) > 1 else (k, 0)
            w = [b * y + b2 * z for y, z in zip(rows[k], rows[k2])]
            for k, b in pairing[2:]:
                w = [x + b * y for x, y in zip(w, rows[k])]
            for col, s in shift or ():
                w[col] += s
        for i, a in support:
            m = exp * a
            if m == 1:
                rows[i] = list(map(add, rows[i], w))
            elif m == -1:
                rows[i] = list(map(sub, rows[i], w))
            else:
                rows[i] = [x + m * y for x, y in zip(rows[i], w)]


def word_action(word, cfg, arcs=False):
    """Homology action of a word; rightmost letter acts first.

    Column j is the image of the j-th basis class.  With ``arcs`` the
    matrix is [Phi | delta_1 .. delta_{n-1}]: column rank + i - 1 holds
    the defect class of arc i.
    """
    page = cfg.surface
    rank = page.h1_rank
    width = rank + max(page.boundary_count - 1, 0) if arcs else rank
    rows = [[0] * i + [1] + [0] * (width - i - 1) for i in range(rank)]
    _transvect(rows, word.letters, cfg, arcs)
    return IntMatrix(rank, width, rows)


def arc_defect(word, arc_index, cfg):
    """Defect class of a word along arc ``arc_index`` (1-based).

    The running defect v starts at zero and follows the transvection
    rule shifted by the arc's crossing number: on letter (c, e) it picks
    up e*(<r,c> + <v,[c]>)*[c].  It is one column of the ``arcs`` word
    action.  Raises IndexError when the page has no such arc, whatever
    the word.
    """
    page = cfg.surface
    page.crossing(arc_index, (0,) * page.h1_rank)  # the range check, also for empty words
    action = word_action(word, cfg, arcs=True)
    col = page.h1_rank + arc_index - 1
    return tuple(action.entry(i, col) for i in range(action.rows))


class RelationCheck(Value):
    __slots__ = ("name", "kind", "passed")

    def __init__(self, name, kind, passed):
        self._set(name, kind, passed)


class RelationReport(Value):
    __slots__ = ("surface", "checks")

    def __init__(self, surface, checks):
        self._set(surface, checks)

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _same_action(cfg, left, right):
    """Whether two tuples of letters act alike on H1.

    Each runs through ``_transvect`` from the identity on the rows it
    can change, cut down to the columns U (the module docstring).
    """
    tables = [cfg.twist(name) for name in {name for name, _ in left + right}]
    cols = sorted({k for _, pairing, _ in tables for k, _ in pairing})
    rows = set(cols).union(*((i for i, _ in support) for support, _, _ in tables))

    def image(letters):
        m = {i: [int(i == j) for j in cols] for i in rows}
        _transvect(m, letters, cfg, False)
        return m
    return image(left) == image(right)


def relation_report(cfg):
    """Exact checks of the standard mapping-class relations.

    For every configured pair: the braid relation when the classes
    pair to +-1, commutation when they pair to 0.  When the surface
    has genus, also (T_a1 T_b1)^6 = identity, the order-six element
    of the genus-one block.  Each check runs the transvection rule on
    the few rows its two sides can change.
    """
    checks = []
    curves = cfg.curves
    for idx, c in enumerate(curves):
        for d in curves[idx + 1:]:
            p = sum(b * c.homology_class[k] for k, b in cfg.twist(d.name)[1])  # c . Jd
            cd, dc = ((c.name, 1), (d.name, 1)), ((d.name, 1), (c.name, 1))
            if p == 0:
                checks.append(RelationCheck(f"commute({c.name},{d.name})", "commutation",
                                            _same_action(cfg, cd, dc)))
            elif p in (1, -1):
                checks.append(RelationCheck(f"braid({c.name},{d.name})", "braid",
                                            _same_action(cfg, cd + cd[:1], dc + dc[:1])))
    if cfg.surface.genus >= 1 and cfg.has_curve("a1") and cfg.has_curve("b1"):
        ok = _same_action(cfg, (("a1", 1), ("b1", 1)) * 6, ())
        checks.append(RelationCheck("order6(a1,b1)", "order6", ok))
    return RelationReport(cfg.surface, tuple(checks))
