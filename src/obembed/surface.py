"""Surfaces with boundary, their homology, and configured curve systems.

This module is the only one that knows how page classes are written;
every other module goes through ``Surface.crossing``,
``CurveConfig.twist``, the class maps of stabilization
(``split_boundary``, ``join_boundaries``), the default curve table and
its lookup ``default_curve``.

A page Sigma_{g,n} has n >= 1 boundary components.  It is drawn as g
handles in a row followed by n-1 punctures, all inside one outer
boundary circle, which is boundary component number n (the base).  The
first homology basis is ordered

    A1, B1, A2, B2, ..., Ag, Bg, D1, ..., D_{n-1}

Pairing rule: <Ai,Bi> = +1 = -<Bi,Ai>, all other pairings of basis
classes are 0, so the Dj lie in the radical.  J c, with <x, c> =
x . J c, carries c's Bi entry to place Ai and minus its Ai entry to
place Bi.  Boundary component m has class Dm for m <= n-1; the base
m = n has the dependent class -(D1 + ... + D_{n-1}).

A class is its support, the tuple of (index, entry) pairs of its
nonzero entries in increasing index order: equal classes have equal,
hashable supports.  Only the JSON form of a configuration
(``config_to_dict``, ``config_from_dict`` and the messages of
``load_config_override``) writes a class as a dense list.

The default twist-generating system (``_default_table``) is

    a_i           class Ai                   (handle_a)
    b_i           class Bi                   (handle_b)
    c_i           class Ai - A_{i+1}         (chain, i = 1..g-1)
    d_j           class of component j       (boundary_parallel, j = 1..n)
    e_j           d_j + d_{j+1}              (boundary_pair, j = 1..n-1)

Only d_n and e_{n-1} have more than two entries, so its size is linear
in the rank.  ``lickorish_system`` drops the members that are null on a
planar page: d_1 on the disk and e_1 on the annulus bound disks and
twist trivially.  No two members share a class, so ``default_curve``
reads a name off a support: a unit at Ai, at Bi or at Dj, Ai - A_{i+1},
Dj + D_{j+1}, or -(D1 + ... + Dm) with m = n-1 (d_n) or n-2 (e_{n-1}).
Stabilization pushes supports, so no system is built for a page on the
way.  ``lickorish_system`` keeps the systems it builds in one table,
emptied before a new system would push the sum of their ranks past
``SYSTEM_CACHE_RANK``: the rule of ``mcg``'s letter table.  A
configuration is the page's default exactly when it equals
``lickorish_system(page)`` (``is_default``); an open book carries a
``config`` line exactly when its configuration is not the default.

Pages, curves and configurations are immutable values (``Value``, from
``intlinalg``: equality, hash and repr by field), valid by
construction: ``Surface`` rejects a genus or boundary count that is not
an int, a negative one and a closed page, ``ConfiguredCurve`` a support
not as above, and ``CurveConfig`` a surface that is not a ``Surface``,
a curve that is not a ``ConfiguredCurve``, duplicate names and an index
past the rank; each raises one ValueError.  Only ``load_config_override`` (JSON
text, with an optional arc table) applies the kind rule: a curve of
each kind may carry only the classes this table gives that kind.  It
and ``config_from_dict`` raise nothing else on malformed input.

JSON from outside (``config`` lines, overrides, certificates) is read by
``read_json``; canonical JSON (certificates, ``config`` lines) is written
by ``canonical_json``.

Arcs r_1 .. r_{n-1} run from the base component to each puncture.  The
algebraic crossing number of an arc with a curve depends only on the
curve's homology class (it is the Lefschetz pairing against the arc's
relative class), and for this arc system it equals the Di-coordinate
of the class (``Surface.crossing``):

    <r_i, c> = [c]_{D_i}

In particular <r_i, d_n> = -1 and <r_i, e_{n-1}> is -1 for i <= n-2
and 0 for i = n-1; no other values are consistent with the classes
above.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain, compress
from operator import lt

from .intlinalg import Value, brief

CURVE_KINDS = ("handle_a", "handle_b", "chain", "boundary_pair", "boundary_parallel")

# Largest page rank 2g + n - 1 accepted, checked before anything is built.
# The benchmark corpus tops out at rank 24; the cap is not yet tied to a
# measured per-operation budget.
MAX_PAGE_RANK = 1000

# lickorish_system keeps the systems it builds while their ranks sum to at
# most this, and empties its table before a new one would pass it.  At rank
# 1000 a system takes 0.79 MiB on Sigma_{0,1001} and 0.44 MiB on
# Sigma_{500,1}, and all its CurveConfig.twist tables 0.73 and 0.39 MiB more
# (tracemalloc, Python 3.11): the cache stays within about 3 MiB.
SYSTEM_CACHE_RANK = 2 * MAX_PAGE_RANK

canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def read_json(text):
    """The value of JSON text; ValueError on malformed text, however deeply nested."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


class Surface(Value):
    """Compact orientable surface with genus g and n >= 1 boundary circles."""

    __slots__ = ("genus", "boundary_count")

    def __init__(self, genus, boundary_count):
        # bool is a subclass of int, so it is rejected by the exact type test
        if type(genus) is not int or type(boundary_count) is not int:
            raise ValueError(f"genus and boundary must be integers, got {brief(genus)}, "
                             f"{brief(boundary_count)}")
        if genus < 0 or boundary_count < 0:
            raise ValueError("genus and boundary count must be nonnegative")
        if not boundary_count:
            raise ValueError("page must have boundary")
        self._set(genus, boundary_count)
        if self.h1_rank > MAX_PAGE_RANK:
            raise ValueError(f"page rank {self.h1_rank} exceeds the limit {MAX_PAGE_RANK}")

    @property
    def euler_characteristic(self):
        return 2 - 2 * self.genus - self.boundary_count

    @property
    def h1_rank(self):
        return 2 * self.genus + self.boundary_count - 1

    def __str__(self):
        return f"Sigma_{{{self.genus},{self.boundary_count}}}"

    def crossing(self, i, c):
        """Crossing number <r_i, c> of arc r_i (1-based) with a curve whose class has support c."""
        if not 0 < i < self.boundary_count:
            raise IndexError(f"arc index {i} out of range 1..{self.boundary_count - 1}")
        return _entry(c, 2 * self.genus + i - 1)


def _entry(c, i):
    """The entry at index i of the class with support c."""
    k = bisect_left(c, (i,))
    return c[k][1] if k < len(c) and c[k][0] == i else 0


def split_boundary(surface, j):
    """(new page, push, fresh class) of plumbing a band with both feet on component j.

    push is the inclusion of pages on class supports.  The split-off
    piece of component j is the new last puncture n and the base keeps
    its role, so a class gains its D_j entry as its new D'_n entry (0
    when j = n, the base), past all its other indices.  The fresh class
    is D'_n.
    """
    g, n = surface.genus, surface.boundary_count
    if not 1 <= j <= n:
        raise ValueError(f"attachment index {j} out of range 1..{n}")
    at, new = 2 * g + j - 1, 2 * g + n - 1  # at = new, past the rank, for the base j = n

    def push(c):
        return c + ((new, x),) if (x := _entry(c, at)) else c
    return Surface(g, n + 1), push, ((new, 1),)


def join_boundaries(surface, j, k):
    """(new page, push, fresh class) of plumbing a band joining components j and k.

    The other components keep their order and the merged one is the new
    base.  With x_m a class's D_m entry (x_n = 0) and j < k, push gives
    A'_{g+1} 0, B'_{g+1} (the loop around j) x_j - x_k, and the D' entry
    of every other m x_m - x_k.  When x_k = 0, as for k = n, it only moves
    coordinates.  The fresh class is A'_{g+1}, the curve over the band.
    """
    g, n = surface.genus, surface.boundary_count
    if j == k:
        raise ValueError("join requires two distinct boundary components")
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"attachment indices ({j},{k}) out of range 1..{n}")
    j, k = min(j, k), max(j, k)
    h, at, kt = 2 * g, 2 * g + j - 1, 2 * g + k - 1  # kt past the rank for k = n: x_n = 0

    def push(c):
        if not c or c[-1][0] < h:  # no D entry: unchanged
            return c
        if xk := _entry(c, kt):  # x_m - x_k at every m, the base's at index h + n - 1
            c = [p for p in c if p[0] < h] + [
                (i, y) for i in range(h, h + n) if (y := _entry(c, i) - xk)]
        return tuple(sorted((i if i < h else h + 1 if i == at else i + 2 - (i > at) - (i > kt), a)
                            for i, a in c))
    return Surface(g + 1, n - 1), push, ((h, 1),)


def _check_name(name, kind):
    if not isinstance(name, str):
        raise ValueError(f"curve name must be a string, got {brief(name)}")
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {brief(kind)}")


class ConfiguredCurve(Value):
    """A named simple closed curve, remembered through its class only, as its support."""

    __slots__ = ("name", "kind", "support")

    def __init__(self, name, kind, support):
        _check_name(name, kind)
        pairs = isinstance(support, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in support)
        support = tuple(map(tuple, support)) if pairs else ()
        index = [i for i, _ in support]
        # bool is a subclass of int, so it is rejected by the exact type test
        if not (pairs and {int}.issuperset(map(type, chain.from_iterable(support)))
                and all(a for _, a in support) and all(map(lt, [-1] + index, index))):
            raise ValueError(f"curve {name}: class must be (index, entry) pairs of integers, "
                             "with nonzero entries at increasing nonnegative indices")
        self._set(name, kind, support)


class CurveConfig(Value):
    """An ordered system of named curves on a fixed surface.

    An invalid system raises one ValueError listing every violation.
    """

    __slots__ = ("surface", "curves", "_index", "_twists")

    def __init__(self, surface, curves):
        try:
            curves = tuple(curves)
        except TypeError:
            curves = None
        if not (isinstance(surface, Surface) and curves is not None
                and {ConfiguredCurve}.issuperset(map(type, curves))):
            raise ValueError("configuration needs a Surface and an iterable of "
                             "ConfiguredCurve values")
        rank = surface.h1_rank
        index, out = {}, []
        for c in curves:
            if c.name in index:
                out.append(f"duplicate curve name {c.name!r}")
            index[c.name] = c
            if c.support and (last := c.support[-1][0]) >= rank:
                out.append(f"curve {c.name}: class index {last} is past the rank {rank}")
        if out:
            raise ValueError("; ".join(out))
        self._set(surface, curves, index, {})

    def curve(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown curve name {name!r}") from None

    def twist(self, name):
        """(support of c, support of Jc, arc shift, growth, shift growth) of ``name``, built once.

        Each is read off the support of c as (index, entry) pairs: Jc moves
        an Ai or Bi entry to index i ^ 1 (negated from Ai), and the shift
        holds <r_i, c>, c's D_i entry, at column rank + i - 1 of [Phi |
        delta_1 .. delta_{n-1}], or is None when c crosses no arc.  The
        growths of the lane bounds (``mcg``) are bits(sum |Jc|) + bits(max
        |c|) and, with a shift, 2 bits(max |c|), bits = ceil(log2).
        """
        data = self._twists.get(name)
        if data is None:
            cs = self.curve(name).support
            h, rank = 2 * self.surface.genus, self.surface.h1_rank
            entries = [a for _, a in cs]
            cut = bisect_left(cs, (h,))  # the handle entries come first
            jc = tuple(sorted((i ^ 1, a if i & 1 else -a) for i, a in cs[:cut]))
            shift = tuple((rank - h + i, a) for i, a in cs[cut:])
            # bits(x) is (x - 1).bit_length(), 0 for x = 0; the crossings are entries of c,
            # so 2 bits(max |c|) >= bits(max |s|) + bits(max |c|)
            a_bits = (max(map(abs, entries), default=1) - 1).bit_length()
            data = self._twists[name] = (
                cs, jc, shift or None,
                ((sum(map(abs, entries[:cut])) or 1) - 1).bit_length() + a_bits,
                2 * a_bits if shift else 0)
        return data

    def has_curve(self, name):
        return name in self._index

    def names(self):
        return tuple(c.name for c in self.curves)

    def __iter__(self):
        return iter(self.curves)

    def __len__(self):
        return len(self.curves)


def _default_table(surface):
    """The unfiltered default curve table of the module docstring.

    Rows are (name, kind, support) triples.
    """
    g, n = surface.genus, surface.boundary_count
    h = 2 * g
    rows = [(f"a{i + 1}", "handle_a", ((2 * i, 1),)) for i in range(g)]
    rows += [(f"b{i + 1}", "handle_b", ((2 * i + 1, 1),)) for i in range(g)]
    rows += [(f"c{i + 1}", "chain", ((2 * i, 1), (2 * i + 2, -1))) for i in range(g - 1)]
    base = tuple((k, -1) for k in range(h, h + n - 1))  # -(D1 + ... + D_{n-1})
    rows += [(f"d{j + 1}", "boundary_parallel", ((h + j, 1),)) for j in range(n - 1)]
    rows.append((f"d{n}", "boundary_parallel", base))
    rows += [(f"e{j + 1}", "boundary_pair", ((h + j, 1), (h + j + 1, 1))) for j in range(n - 2)]
    rows += [(f"e{n - 1}", "boundary_pair", base[:-1])] * (n > 1)  # d_{n-1} + d_n
    return rows


_KINDS = {"a": "handle_a", "b": "handle_b", "c": "chain", "d": "boundary_parallel",
          "e": "boundary_pair"}


def default_curve(surface, c):
    """(name, kind) of the curve of ``lickorish_system(surface)`` whose class has support c.

    None when there is none; the patterns are in the module docstring.
    """
    g, n = surface.genus, surface.boundary_count
    h, size, name = 2 * g, len(c), None
    if size == 1:
        (i, a), = c
        if a == 1:
            name = f"d{i - h + 1}" if i >= h else f"{'ab'[i % 2]}{i // 2 + 1}"
    elif size == 2:
        (i, a), (k, b) = c
        if (a, b) == (1, -1) and k == i + 2 < h and not i % 2:
            name = f"c{i // 2 + 1}"
        elif a == b == 1 and k == i + 1 and i >= h:
            name = f"e{i - h + 1}"
    elif not size:  # null: d1 on Sigma_{g,1}, e1 on Sigma_{g,2}, both dropped when planar
        name = {1: "d1", 2: "e1"}.get(n) if g else None
    if name is None and size in (n - 1, n - 2) and {a for _, a in c} == {-1} and (
            c[0][0] == h and c[-1][0] == h + size - 1):  # -(D1 + ... + D_size)
        name = f"d{n}" if size == n - 1 else f"e{n - 1}"
    return name and (name, _KINDS[name[0]])


_systems = {}  # Surface -> CurveConfig, emptied when full


def lickorish_system(surface):
    """The default curve system: immutable, so shared while cached (``SYSTEM_CACHE_RANK``)."""
    cfg = _systems.get(surface)
    if cfg is not None:
        return cfg
    if sum(s.h1_rank for s in _systems) + surface.h1_rank > SYSTEM_CACHE_RANK:
        _systems.clear()
    # on a planar page a null class bounds a disk: the disk's d1, the annulus' e1
    curves = [ConfiguredCurve._of(*row) for row in _default_table(surface)
              if surface.genus or row[2]]
    cfg = _systems[surface] = CurveConfig(surface, curves)
    return cfg


def is_default(cfg):
    """Whether cfg is ``lickorish_system(page)``; another size answers before it is built."""
    g, n = cfg.surface.genus, cfg.surface.boundary_count  # its size: the table less null rows
    return (len(cfg) == max(3 * g - 1, 0) + 2 * n - 1 - (not g and n <= 2)
            and cfg == lickorish_system(cfg.surface))


def _dense(c, page):
    """The class with support c as a list of the page's rank entries (JSON only)."""
    out = [0] * page.h1_rank
    for i, a in c:
        out[i] = a
    return out


def config_to_dict(cfg):
    return {"curves": [{"name": c.name, "kind": c.kind, "class": _dense(c.support, cfg.surface)}
                       for c in cfg.curves]}


def config_from_dict(data, surface):
    """The CurveConfig of {"curves": [{"name", "kind", "class"}, ...]}, each class checked once."""
    curves = data.get("curves") if isinstance(data, dict) else None
    if not isinstance(curves, list) or not all(
            isinstance(c, dict) and {"name", "kind", "class"} <= c.keys() for c in curves):
        raise ValueError("configuration needs a list of curves, each with name, kind "
                         "and class")
    rank, out, built = surface.h1_rank, [], []
    for rec in curves:
        name, kind, c = rec["name"], rec["kind"], rec["class"]
        _check_name(name, kind)
        # bool is a subclass of int, so it is rejected by the exact type test
        if not isinstance(c, (list, tuple)) or not {int}.issuperset(map(type, c)):
            raise ValueError(f"curve {name}: class must be a list of integers")
        if len(c) != rank:
            out.append(f"curve {name}: class has dimension {len(c)}, expected {rank}")
        built.append(ConfiguredCurve._of(name, kind, tuple(compress(enumerate(c), c))))
    if out:
        raise ValueError("; ".join(out))
    return CurveConfig(surface, built)


def load_config_override(text, surface):
    """Load a configuration from JSON text; returns the CurveConfig.

    The format carries curves, each kind with only the classes the
    default table gives it, and, optionally, an explicit arc table that
    must agree with the crossing numbers the classes force:
    {"curves": [{"name", "class", "kind"}, ...],
     "arcs": [{"index": i, "intersections": {"name": value, ...}}, ...]}
    Class entries, arc indices and values must be JSON integers.
    """
    data = read_json(text)
    cfg = config_from_dict(data, surface)
    arcs = data.get("arcs") or []
    if not isinstance(arcs, list) or not all(isinstance(rec, dict) for rec in arcs):
        raise ValueError("arcs must be a list of objects")
    allowed = {(kind, c) for _, kind, c in _default_table(surface)}
    out = [f"{c.kind} curve {c.name}: class {_dense(c.support, surface)} "
           f"is not a default {c.kind} class" for c in cfg
           if (c.kind, c.support) not in allowed]
    for rec in arcs:
        index, values = rec.get("index"), rec.get("intersections", {})
        if (type(index) is not int or not isinstance(values, dict)
                or any(type(v) is not int for v in values.values())):
            raise ValueError("arc entries need an integer index and integer intersections")
        for name, value in sorted(values.items()):
            if not cfg.has_curve(name):
                out.append(f"arc table references unknown curve {name!r}")
                continue
            try:
                want = surface.crossing(index, cfg.curve(name).support)
            except IndexError as exc:
                out.append(str(exc))
                continue
            if value != want:
                out.append(f"arc table entry <r{index},{name}> = {value} is inconsistent "
                           f"with the curve class (forced value {want})")
    if out:
        raise ValueError("invalid configuration override: " + "; ".join(out))
    return cfg
