"""Dehn twist words and their action on page homology.

Words are read through one bounded letter table per process, so a
token seen before costs one dict hit instead of a regex match.

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
(rank x (rank + n - 1)): each letter multiplies it on the left by
I + e * c (Jc)^T, with the arcs' crossing numbers <r_i, c> added to the
defect columns, giving [Phi | delta_1 .. delta_{n-1}]; without arcs the
pass starts from I alone and yields Phi.

Each row is one Python int, sum_j x_j * 2^(B j): column j is a signed
lane of B bits, B = 64 at first.  A letter costs |supp c| + |supp Jc|
big-int additions: w = sum b * row_k over the entries b of Jc plus the
packed arc shift s, then row_i += m * w, m = e * a, over the entries a
of c.  The sums are exact; a row reads back while its lanes lie below
2^(B-1), so row i keeps a bound, |lanes| < 2^bnd[i] <= 2^(B-1).  With
bits(x) = ceil(log2 |x|),

    |row_i + m * w| < 2^(max(bnd[i], bits(w) + bits(m)) + 1),

bits(w) being the largest bnd[k] over the pairing plus bits(sum |b|),
and with a shift max(that, bits(max |s|)) + 1 (``CurveConfig.twist``
holds each curve's growths).  A letter that would push a bound past
B - 1 is undone, exactly, and each row it involves is checked in O(1)
big-int operations: with bias 2^(B-H) and high the bits B-H+1 .. B-1,
both in every lane, y = row + bias has y >= 0 and y & high == 0 exactly
when every lane lies in [-2^(B-H), 2^(B-H)), as no lane is yet at
2^(B-1) (a borrow would set bit B-1 of the lane below); the bound drops
to B - H + 1.  If the letter still does not fit, every row is decoded,
its bound made exact, and re-encoded at the multiple of 64 bits above
twice the letter's largest bound.  Decoding adds half, 2^(B-1) in every lane, with no borrow
between lanes; ^ half leaves each lane's two's complement for one
cached ``struct.Struct(f"<{width}q")``.

The relation checks use the same rule on a few rows.  T_c fixes every
basis class e_j with j outside supp(Jc), so two words in the twists
along c and d both fix every e_j outside the union U of supp(Jc) and
supp(Jd), and they are equal exactly when their images of the e_j with
j in U are.  Those images differ from e_j only in the rows of U, supp(c)
and supp(d), so the pass runs on those rows alone, cut down to the
columns U, which has at most four members on default curves.
"""

import re
import struct
from functools import lru_cache
from operator import itemgetter

from .intlinalg import IntMatrix, Value, brief

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
                                 f"exponent, got ({brief(name)}, {brief(exp)})")
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


_TABLE_SIZE = 8192  # room for every t(c)^e, |e| <= 2, of a default page (<= 2001 curves)
_TOKEN_LIMIT = 64  # characters of a kept token, so an entry is <= 525 bytes, the table <= 4.3 MB


class _Letters(dict):
    def __missing__(self, token):  # read a token; a bad one raises, and only good ones are kept
        m = _LETTER(token)
        if not m:
            raise WordSyntaxError(f"bad twist letter {brief(token)} "
                                  "(expected t(<name>) with optional ^<int>)")
        name, exp = m.groups()
        try:
            letter = name, int(exp or 1)
        except ValueError as exc:  # more digits than int() converts
            raise WordSyntaxError(f"bad exponent of t({brief(name, bare=True)}): {exc}") from None
        if len(self) >= _TABLE_SIZE:
            self.clear()
        return self.setdefault(token, letter) if len(token) <= _TOKEN_LIMIT else letter


_letters = _Letters()  # the letter table: token -> (name, exponent)


def parse_word(text):
    """Parse letters like ``t(a1) t(b1)^-1`` through the letter table; the first bad one raises."""
    return TwistWord._of(tuple(filter(itemgetter(1), map(_letters.__getitem__, text.split()))))


def format_word(word):
    parts = []
    for name, exp in word:
        parts.append(f"t({name})" if exp == 1 else f"t({name})^{exp}")
    return " ".join(parts)


_HEAD = 16  # H of the module docstring: a checked row's bound drops to lane - H + 1


@lru_cache(maxsize=64)
def _lanes(lane, width):
    """(half, bias, high, unpack) of ``width`` lanes of ``lane`` bits (the module docstring)."""
    size = lane // 8
    unit = int.from_bytes((b"\1" + bytes(size - 1)) * width, "little")
    if lane == 64:
        unpack = struct.Struct(f"<{width}q").unpack
    else:
        def unpack(data):
            return tuple(int.from_bytes(data[j:j + size], "little", signed=True)
                         for j in range(0, len(data), size))
    return (unit << lane - 1, unit << lane - _HEAD,
            unit * ((1 << lane) - (1 << lane - _HEAD + 1)), unpack)


def _decode(packed, lane, width):
    """The lanes of each packed row, as a tuple of ints."""
    half, _, _, unpack = _lanes(lane, width)
    size = lane // 8 * width
    return [unpack(((x + half) ^ half).to_bytes(size, "little")) for x in packed]


def _room(rows, bound, lane, width, involved, hi, checked):
    """Check the rows of a letter whose bounds reach ``hi``, else widen all; return the lane."""
    if not checked:
        _, bias, high, _ = _lanes(lane, width)
        floor = lane - _HEAD + 1
        dropped = False
        for r, _ in involved:
            if bound[r] > floor:
                y = rows[r] + bias
                if y >= 0 and not y & high:
                    bound[r], dropped = floor, True
        if dropped:
            return lane
    wide = 2 * hi // 64 * 64 + 64
    half, size = _lanes(wide, width)[0], wide // 8
    keys = list(rows) if type(rows) is dict else range(len(rows))
    for r, row in zip(keys, _decode([rows[r] for r in keys], lane, width)):
        bound[r] = max(map(abs, row), default=0).bit_length()
        packed = b"".join(v.to_bytes(size, "little", signed=True) for v in row)
        rows[r] = (int.from_bytes(packed, "little") ^ half) - half
    return wide


def _transvect(rows, letters, cfg, arcs, width):
    """Apply a word's letters to packed rows, in place; return the rows decoded, in order.

    rows is a list, or a dict keyed by row index, of rows of ``width``
    64-bit lanes holding 0 or +-1, with every row index the letters read
    or write.  A letter with no pairing and no shift has w = 0: skipped.
    """
    twist = cfg.twist
    lane = 64
    bound = dict.fromkeys(rows, 1) if type(rows) is dict else [1] * len(rows)
    shifts = {}  # the packed arc shifts of this call, at the current lane width
    for name, exp in reversed(letters):
        support, pairing, shift, grow, shift_grow = twist(name)
        shift = arcs and shift
        if not pairing and not shift:
            continue
        e_bits = (exp - 1 if exp > 0 else ~exp).bit_length()  # ceil(log2 |exp|)
        checked = False
        while True:
            top, w = 0, shifts.get(name) if shift else 0
            if w is None:
                w = 0
                for col, s in shift:
                    w += s << lane * col
                shifts[name] = w
            for k, b in pairing:
                if (t := bound[k]) > top:
                    top = t
                if b == 1:
                    w += rows[k]
                elif b == -1:
                    w -= rows[k]
                else:
                    w += b * rows[k]
            top += grow
            if shift:
                top = (top if top > shift_grow else shift_grow) + 1
            top += e_bits
            hi = top
            for i, a in support:
                if (t := bound[i]) > hi:
                    hi = t
                bound[i] = (t if t > top else top) + 1
                a *= exp
                if a == 1:
                    rows[i] += w
                elif a == -1:
                    rows[i] -= w
                else:
                    rows[i] += a * w
            if hi < lane - 1:
                break
            for i, a in support:  # undo the letter; only the lanes overflowed
                rows[i] -= a * exp * w
            wide, checked = _room(rows, bound, lane, width, pairing + support, hi, checked), True
            if wide != lane:
                lane = wide
                shifts.clear()
    return _decode(rows.values() if type(rows) is dict else rows, lane, width)


def word_action(word, cfg, arcs=False):
    """Homology action of a word; rightmost letter acts first.

    Column j is the image of the j-th basis class.  With ``arcs`` the
    matrix is [Phi | delta_1 .. delta_{n-1}]: column rank + i - 1 holds
    the defect class of arc i.  Row i starts as the int 2^(64 i); lanes,
    bounds and decoding are in the module docstring.
    """
    rank = cfg.surface.h1_rank
    width = rank + cfg.surface.boundary_count - 1 if arcs else rank
    rows = [1 << 64 * i for i in range(rank)]
    return IntMatrix._of(rank, width, tuple(_transvect(rows, word.letters, cfg, arcs, width)))


def arc_defect(word, arc_index, cfg):
    """Defect class of a word along arc ``arc_index`` (1-based).

    The running defect v starts at zero and follows the transvection
    rule shifted by the arc's crossing number: on letter (c, e) it picks
    up e*(<r,c> + <v,[c]>)*[c].  It is one column of the ``arcs`` word
    action.  Raises IndexError when the page has no such arc, whatever
    the word.
    """
    cfg.surface.crossing(arc_index, ())  # the range check, also for empty words
    action = word_action(word, cfg, arcs=True)
    col = action.rows + arc_index - 1
    return tuple(action.entry(i, col) for i in range(action.rows))


class RelationCheck(Value):
    __slots__ = ("name", "kind", "passed")


class RelationReport(Value):
    __slots__ = ("surface", "checks")

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)


def _same_action(cfg, left, right):
    """Whether two tuples of letters act alike on H1, on the rows and columns of the docstring."""
    tables = [cfg.twist(name) for name in {name for name, _ in left + right}]
    cols = {k: j for j, k in enumerate(sorted({k for t in tables for k, _ in t[1]}))}
    rows = set(cols).union(*((i for i, _ in t[0]) for t in tables))

    def image(letters):
        start = {i: 1 << 64 * cols[i] if i in cols else 0 for i in rows}
        return _transvect(start, letters, cfg, False, len(cols))
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
        entries = dict(c.support)
        for d in curves[idx + 1:]:
            p = sum(b * entries.get(k, 0) for k, b in cfg.twist(d.name)[1])  # c . Jd
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
