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

Both are computed by one rule: the word action pushes the page's unit
classes (``Surface.unit``) through the word letter by letter, the arc
defect pushes the zero class with the arc's crossing numbers
(``Surface.crossing``) as shifts; the pairing is ``Surface.dual``.
``twist_matrix`` keeps the closed form of a single letter for the
relation checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .intlinalg import IntMatrix

_LETTER_RE = re.compile(r"^t\(([A-Za-z][A-Za-z0-9_]*)\)(?:\^(-?\d+))?$")


class WordSyntaxError(ValueError):
    """Raised on malformed twist-word text."""


@dataclass(frozen=True)
class TwistWord:
    """An ordered word of (curve_name, exponent) letters.

    Zero exponents are dropped on construction; the word is otherwise
    kept letter-for-letter (words with equal matrices are not merged).
    """

    letters: tuple = ()

    def __post_init__(self):
        cleaned = []
        for name, exp in self.letters:
            exp = int(exp)
            if exp != 0:
                cleaned.append((str(name), exp))
        object.__setattr__(self, "letters", tuple(cleaned))

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
        return tuple(dict.fromkeys(name for name, _ in self.letters))

    def rename(self, mapping):
        return TwistWord(tuple((mapping.get(name, name), exp)
                               for name, exp in self.letters))


def parse_word(text):
    """Parse whitespace-separated letters like ``t(a1) t(b1)^-1``."""
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


def format_word(word):
    parts = []
    for name, exp in word:
        parts.append(f"t({name})" if exp == 1 else f"t({name})^{exp}")
    return " ".join(parts)


def twist_matrix(curve, sign, page):
    """Transvection matrix of a twist power along a configured curve.

    With c the curve's class and J the pairing, this is
    I + sign * c (Jc)^T; it is unimodular and preserves the pairing.
    """
    rank = page.h1_rank
    if sign == 0:
        return IntMatrix.identity(rank)
    c = curve.homology_class
    if len(c) != rank:
        raise ValueError(f"curve {curve.name}: class dimension {len(c)} != {rank}")
    jc = page.dual(c)
    rows = [[e + sign * c[i] * jc[k] for k, e in enumerate(page.unit(i))]
            for i in range(rank)]
    return IntMatrix(rank, rank, rows)


def _transvect(vectors, word, cfg, crossing=None):
    """Push vectors (lists, updated in place) through a word in action order.

    On letter (c, e) each vector x picks up e * (f([c]) + <x, [c]>) * [c],
    where f is ``crossing`` (an arc's crossing number) or 0 for classes.
    The support of [c] and of J[c] is computed once per distinct curve.
    """
    letters = list(word)
    page = cfg.surface
    rank = page.h1_rank
    prepared = {}
    for name in dict.fromkeys(name for name, _ in letters):
        curve = cfg.curve(name)
        c = curve.homology_class
        if len(c) != rank:
            raise ValueError(f"curve {name}: class dimension {len(c)} != {rank}")
        jc = page.dual(c)
        prepared[name] = ([(i, a) for i, a in enumerate(c) if a],
                          [(i, a) for i, a in enumerate(jc) if a],
                          crossing(c) if crossing else 0)
    for name, exp in reversed(letters):
        support, pairing, shift = prepared[name]
        for x in vectors:
            t = shift + sum(x[i] * a for i, a in pairing)
            if t:
                t *= exp
                for i, a in support:
                    x[i] += t * a


def word_action(word, cfg):
    """Homology action of a word; rightmost letter acts first.

    Column j is the image of the j-th basis class.
    """
    page = cfg.surface
    rank = page.h1_rank
    columns = [list(page.unit(j)) for j in range(rank)]
    _transvect(columns, word, cfg)
    return IntMatrix(rank, rank, zip(*columns))


def arc_defect(word, arc_index, cfg):
    """Defect class of a word along arc ``arc_index`` (1-based).

    The running defect v starts at zero and follows the transvection
    rule shifted by the arc's crossing number: on letter (c, e) it picks
    up e*(<r,c> + <v,[c]>)*[c].  Raises IndexError when the page has no
    such arc, whatever the word.
    """
    page = cfg.surface
    v = [0] * page.h1_rank
    page.crossing(arc_index, v)  # the range check, also for words without letters
    _transvect([v], word, cfg, lambda c: page.crossing(arc_index, c))
    return tuple(v)


@dataclass(frozen=True)
class RelationCheck:
    name: str
    kind: str
    passed: bool


@dataclass(frozen=True)
class RelationReport:
    surface: object
    checks: tuple

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def relation_report(cfg):
    """Exact matrix checks of the standard mapping-class relations.

    For every configured pair: the braid relation when the classes
    pair to +-1, commutation when they pair to 0.  When the surface
    has genus, also (T_a1 T_b1)^6 = identity, the order-six element
    of the genus-one block.
    """
    page = cfg.surface
    checks = []
    curves = list(cfg.curves)
    mats = {c.name: twist_matrix(c, 1, page) for c in curves}
    for idx, c in enumerate(curves):
        for d in curves[idx + 1:]:
            p = page.pair(c.homology_class, d.homology_class)
            tc, td = mats[c.name], mats[d.name]
            if p == 0:
                ok = tc * td == td * tc
                checks.append(RelationCheck(f"commute({c.name},{d.name})",
                                            "commutation", ok))
            elif p in (1, -1):
                ok = tc * td * tc == td * tc * td
                checks.append(RelationCheck(f"braid({c.name},{d.name})", "braid", ok))
    if cfg.surface.genus >= 1 and cfg.has_curve("a1") and cfg.has_curve("b1"):
        prod = mats["a1"] * mats["b1"]
        power = IntMatrix.identity(page.h1_rank)
        for _ in range(6):
            power = power * prod
        checks.append(RelationCheck("order6(a1,b1)", "order6", power.is_identity()))
    return RelationReport(cfg.surface, tuple(checks))
