"""Surfaces with boundary, their homology, and configured curve systems.

This module is the only one that knows how page classes are written;
every other module goes through ``Surface.unit``, ``Surface.dual``,
``Surface.crossing``, ``CurveConfig.twist``, ``boundary_class``, the
class maps of stabilization (``split_boundary``, ``join_boundaries``)
and the default curve table.

A page Sigma_{g,n} is drawn as g handles in a row followed by n-1
punctures, all inside one outer boundary circle, which is boundary
component number n (the base).  The first homology basis is ordered

    A1, B1, A2, B2, ..., Ag, Bg, D1, ..., D_{n-1}

Pairing rule: <Ai,Bi> = +1 = -<Bi,Ai>, all other pairings of basis
classes are 0, so the Dj lie in the radical.  ``Surface.dual(c)`` is
J c with <x, c> = x . J c: it carries c's Bi entry to place Ai and
minus its Ai entry to place Bi.

Boundary classes: ``boundary_class(surface, m)`` is Dm for m <= n-1;
the base m = n is the dependent class -(D1 + ... + D_{n-1}).

The default twist-generating system (``_default_table``) is

    a_i           class Ai                   (handle_a)
    b_i           class Bi                   (handle_b)
    c_i           class Ai - A_{i+1}         (chain, i = 1..g-1)
    d_j           boundary_class(j)          (boundary_parallel, j = 1..n)
    e_j           boundary_class(j) + boundary_class(j+1)
                                             (boundary_pair, j = 1..n-1)

``lickorish_system`` drops the members that are null on a planar page:
d_1 on the disk and e_1 on the annulus bound disks and twist trivially.
A configuration is the page's default exactly when it equals
``lickorish_system(page)`` (``is_default``); an open book carries a
``config`` line exactly when its configuration is not the default.

Pages, curves and configurations are immutable values (``Value``, from
``intlinalg``: equality, hash and repr by field), valid by
construction.  ``Surface`` rejects a genus or boundary count that is
not a nonnegative int, and ``CurveConfig`` rejects duplicate names and
classes of the wrong dimension; each raises one ValueError.  Only
``load_config_override`` (JSON text, with an optional arc table)
applies the kind rule: a curve of each kind may carry only the classes
this table gives that kind.  It and ``config_from_dict`` raise nothing
else on malformed input.

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
from collections import OrderedDict

from .intlinalg import Value

CURVE_KINDS = ("handle_a", "handle_b", "chain", "boundary_pair", "boundary_parallel")

# Largest page rank 2g + n - 1 accepted, checked before anything is built.
# The benchmark corpus tops out at rank 24; the cap is not yet tied to a
# measured per-operation budget.
MAX_PAGE_RANK = 1000

# lickorish_system keeps the most recently used systems while their ranks
# sum to at most this.  A system's size grows as rank^2, about 12 MiB at
# rank 1000, so the cache stays within about 24 MiB.  The twist tables of
# CurveConfig.twist add about 1 MiB at rank 1000 (tracemalloc, Sigma_{0,1000}).
SYSTEM_CACHE_RANK = 2 * MAX_PAGE_RANK


class Surface(Value):
    """Compact orientable surface with genus g and n boundary circles."""

    __slots__ = ("genus", "boundary_count")

    def __init__(self, genus, boundary_count):
        # bool is a subclass of int, so it is rejected by the exact type test
        if type(genus) is not int or type(boundary_count) is not int:
            raise ValueError(f"genus and boundary must be integers, got {genus!r}, "
                             f"{boundary_count!r}")
        if genus < 0 or boundary_count < 0:
            raise ValueError("genus and boundary count must be nonnegative")
        self._set(genus, boundary_count)
        if self.h1_rank > MAX_PAGE_RANK:
            raise ValueError(f"page rank {self.h1_rank} exceeds the limit {MAX_PAGE_RANK}")

    @property
    def euler_characteristic(self):
        return 2 - 2 * self.genus - self.boundary_count

    @property
    def h1_rank(self):
        g, n = self.genus, self.boundary_count
        return 2 * g + max(n - 1, 0)

    def __str__(self):
        return f"Sigma_{{{self.genus},{self.boundary_count}}}"

    def unit(self, index):
        """The index-th basis class (0-based, in the order above)."""
        return (0,) * index + (1,) + (0,) * (self.h1_rank - index - 1)

    def dual(self, c):
        """J c, so that <x, c> = x . J c (the pairing rule)."""
        h = 2 * self.genus
        out = [0] * self.h1_rank
        out[0:h:2] = c[1:h:2]
        out[1:h:2] = [-a for a in c[0:h:2]]
        return tuple(out)

    def pair(self, x, y):
        """Intersection pairing <x, y> of two class vectors."""
        x, y = tuple(x), tuple(y)
        if len(x) != self.h1_rank or len(y) != self.h1_rank:
            raise ValueError("class vector has wrong dimension")
        return sum(a * b for a, b in zip(x, self.dual(y)))

    def crossing(self, i, c):
        """Crossing number <r_i, c> of arc r_i (1-based) with a curve of class c."""
        count = max(self.boundary_count - 1, 0)
        if not 1 <= i <= count:
            raise IndexError(f"arc index {i} out of range 1..{count}")
        return c[2 * self.genus + i - 1]


def boundary_class(surface, m):
    """Class of boundary component m (1-based); the base m = n is dependent."""
    g, n = surface.genus, surface.boundary_count
    if not 1 <= m <= n:
        raise IndexError(f"boundary component {m} out of range 1..{n}")
    if m < n:
        return surface.unit(2 * g + m - 1)
    return tuple(-1 if k >= 2 * g else 0 for k in range(surface.h1_rank))


def split_boundary(surface, j):
    """(new page, push, fresh class) of plumbing a band with both feet on component j.

    push is the inclusion of pages on classes, a rule on coordinates
    that builds one tuple per class.  The split-off piece of component
    j is the new last puncture n and the base keeps its role, so a
    class gains its D_j entry as its new D'_n entry (0 when j = n, the
    base).  The fresh class is D'_n.
    """
    g, n = surface.genus, surface.boundary_count
    if not 1 <= j <= n:
        raise ValueError(f"attachment index {j} out of range 1..{n}")
    new_page, at = Surface(g, n + 1), 2 * g + j - 1

    def push(c):
        return c + ((c[at],) if j < n else (0,))
    return new_page, push, boundary_class(new_page, n)


def join_boundaries(surface, j, k):
    """(new page, push, fresh class) of plumbing a band joining components j and k.

    The other components keep their order and the merged one is the new
    base.  With x_m a class's D_m entry (x_n = 0) and j < k, push gives
    A'_{g+1} 0, B'_{g+1} (the loop around j) x_j - x_k, and the D' entry
    of every other m x_m - x_k.  The fresh class is A'_{g+1}, the curve
    over the band.
    """
    g, n = surface.genus, surface.boundary_count
    if j == k:
        raise ValueError("join requires two distinct boundary components")
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"attachment indices ({j},{k}) out of range 1..{n}")
    j, k = min(j, k), max(j, k)
    new_page, h = Surface(g + 1, n - 1), 2 * g

    def push(c):
        x = c[h:] + (0,)
        xk = x[k - 1]
        rest = x[:j - 1] + x[j:k - 1] + x[k:]
        return c[:h] + (0, x[j - 1] - xk) + (tuple(y - xk for y in rest) if xk else rest)
    return new_page, push, new_page.unit(h)


class ConfiguredCurve(Value):
    """A named simple closed curve, remembered through its class only."""

    __slots__ = ("name", "kind", "homology_class")

    def __init__(self, name, kind, homology_class):
        if not isinstance(name, str):
            raise ValueError(f"curve name must be a string, got {name!r}")
        if kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {kind!r}")
        # bool is a subclass of int, so it is rejected by the exact type test
        if not isinstance(homology_class, (list, tuple)) or not {int}.issuperset(
                map(type, homology_class)):
            raise ValueError(f"curve {name}: class must be a list of integers")
        self._set(name, kind, tuple(homology_class))


class CurveConfig(Value):
    """An ordered system of named curves on a fixed surface.

    An invalid system raises one ValueError listing every violation.
    """

    __slots__ = ("surface", "curves", "_index", "_twists")

    def __init__(self, surface, curves):
        curves = tuple(curves)
        rank = surface.h1_rank
        index, out = {}, []
        for c in curves:
            if c.name in index:
                out.append(f"duplicate curve name {c.name!r}")
            index[c.name] = c
            if len(c.homology_class) != rank:
                out.append(f"curve {c.name}: class has dimension {len(c.homology_class)}, "
                           f"expected {rank}")
        if out:
            raise ValueError("; ".join(out))
        self._set(surface, curves, index, {})

    def curve(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown curve name {name!r}") from None

    def twist(self, name):
        """(support of c, support of Jc, arc shift) of curve ``name``, built once.

        Each is a tuple of nonzero (index, entry) pairs; the shift holds
        <r_i, c> at column rank + i - 1 of [Phi | delta_1 .. delta_{n-1}],
        or is None when c crosses no arc.  It is sparse: a dense shift
        row per curve would cost rank^2 on planar pages.
        """
        data = self._twists.get(name)
        if data is None:
            page, c = self.surface, self.curve(name).homology_class
            rank = page.h1_rank
            shift = tuple((rank + i - 1, x) for i in range(1, page.boundary_count)
                          if (x := page.crossing(i, c)))
            data = self._twists[name] = (tuple((i, a) for i, a in enumerate(c) if a),
                                         tuple((k, b) for k, b in enumerate(page.dual(c)) if b),
                                         shift or None)
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

    Rows are (name, kind, class) triples.
    """
    g, n = surface.genus, surface.boundary_count
    a = [surface.unit(2 * i) for i in range(g)]
    rows = [(f"a{i + 1}", "handle_a", a[i]) for i in range(g)]
    rows += [(f"b{i + 1}", "handle_b", surface.unit(2 * i + 1)) for i in range(g)]
    rows += [(f"c{i + 1}", "chain", tuple(x - y for x, y in zip(a[i], a[i + 1])))
             for i in range(g - 1)]
    d = [boundary_class(surface, j) for j in range(1, n + 1)]
    rows += [(f"d{j + 1}", "boundary_parallel", d[j]) for j in range(n)]
    rows += [(f"e{j + 1}", "boundary_pair", tuple(x + y for x, y in zip(d[j], d[j + 1])))
             for j in range(n - 1)]
    return rows


_systems = OrderedDict()  # Surface -> CurveConfig, least recently used first


def lickorish_system(surface):
    """The default twist-generating curve system.

    It is immutable, so one copy per surface is shared while it stays in
    the cache (``SYSTEM_CACHE_RANK``).  Raises ValueError on closed
    surfaces: pages must have boundary.
    """
    cfg = _systems.get(surface)
    if cfg is not None:
        _systems.move_to_end(surface)
        return cfg
    if surface.boundary_count < 1:
        raise ValueError("page must have boundary")
    # on a planar page a null class bounds a disk: the disk's d1, the annulus' e1
    curves = [ConfiguredCurve(*row) for row in _default_table(surface)
              if surface.genus or any(row[2])]
    cfg = _systems[surface] = CurveConfig(surface, curves)
    total = sum(s.h1_rank for s in _systems)
    while total > SYSTEM_CACHE_RANK:
        evicted, _ = _systems.popitem(last=False)
        total -= evicted.h1_rank
    return cfg


def is_default(cfg):
    """Whether cfg is its page's default system, ``lickorish_system(page)``."""
    return cfg.surface.boundary_count > 0 and cfg == lickorish_system(cfg.surface)


def config_to_dict(cfg):
    return {"curves": [{"name": c.name, "kind": c.kind,
                        "class": list(c.homology_class)} for c in cfg.curves]}


def config_from_dict(data, surface):
    """The CurveConfig of {"curves": [{"name", "kind", "class"}, ...]}."""
    curves = data.get("curves") if isinstance(data, dict) else None
    if not isinstance(curves, list) or not all(
            isinstance(c, dict) and {"name", "kind", "class"} <= c.keys() for c in curves):
        raise ValueError("configuration needs a list of curves, each with name, kind "
                         "and class")
    return CurveConfig(surface, [ConfiguredCurve(c["name"], c["kind"], c["class"])
                                 for c in curves])


def load_config_override(text, surface):
    """Load a configuration from JSON text; returns the CurveConfig.

    The format carries curves, each kind with only the classes the
    default table gives it, and, optionally, an explicit arc table that
    must agree with the crossing numbers the classes force:
    {"curves": [{"name", "class", "kind"}, ...],
     "arcs": [{"index": i, "intersections": {"name": value, ...}}, ...]}
    Class entries, arc indices and values must be JSON integers.
    """
    data = json.loads(text)
    cfg = config_from_dict(data, surface)
    arcs = data.get("arcs") or []
    if not isinstance(arcs, list) or not all(isinstance(rec, dict) for rec in arcs):
        raise ValueError("arcs must be a list of objects")
    allowed = {(kind, c) for _, kind, c in _default_table(surface)}
    out = [f"{c.kind} curve {c.name}: class {list(c.homology_class)} "
           f"is not a default {c.kind} class" for c in cfg
           if (c.kind, c.homology_class) not in allowed]
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
                want = surface.crossing(index, cfg.curve(name).homology_class)
            except IndexError as exc:
                out.append(str(exc))
                continue
            if value != want:
                out.append(f"arc table entry <r{index},{name}> = {value} is inconsistent "
                           f"with the curve class (forced value {want})")
    if out:
        raise ValueError("invalid configuration override: " + "; ".join(out))
    return cfg
