"""Surfaces with boundary, their homology, and configured curve systems.

This module is the only one that knows how page classes are written;
every other module goes through ``Surface.unit``, ``Surface.dual``,
``Surface.crossing``, ``boundary_class`` and the default curve table.

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

The default twist-generating system (``_default_curves``) is

    a_i           class Ai                   (handle_a)
    b_i           class Bi                   (handle_b)
    c_i           class Ai - A_{i+1}         (chain, i = 1..g-1)
    d_j           boundary_class(j)          (boundary_parallel, j = 1..n)
    e_j           boundary_class(j) + boundary_class(j+1)
                                             (boundary_pair, j = 1..n-1)

A standard configuration may give a curve of each kind only the classes
this table gives that kind.  ``lickorish_system`` drops the members
that are null on a planar page: d_1 on the disk and e_1 on the annulus
bound disks and twist trivially.

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
from dataclasses import dataclass, field
from functools import lru_cache

CURVE_KINDS = ("handle_a", "handle_b", "chain", "boundary_pair", "boundary_parallel")

# Largest page rank 2g + n - 1 accepted, checked before anything is built
# (the largest benchmark page has rank 83).
MAX_PAGE_RANK = 1000


@dataclass(frozen=True)
class Surface:
    """Compact orientable surface with genus g and n boundary circles."""

    genus: int
    boundary_count: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary_count < 0:
            raise ValueError("genus and boundary count must be nonnegative")
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
        return tuple(1 if k == index else 0 for k in range(self.h1_rank))

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


@dataclass(frozen=True)
class ConfiguredCurve:
    """A named simple closed curve, remembered through its class only."""

    name: str
    kind: str
    homology_class: tuple

    def __post_init__(self):
        c = self.homology_class
        if not isinstance(self.name, str):
            raise ValueError(f"curve name must be a string, got {self.name!r}")
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        # bool is a subclass of int, so it is rejected by the exact type test
        if not isinstance(c, (list, tuple)) or any(type(x) is not int for x in c):
            raise ValueError(f"curve {self.name}: class must be a list of integers")
        object.__setattr__(self, "homology_class", tuple(c))


@dataclass(frozen=True)
class CurveConfig:
    """An ordered system of named curves on a fixed surface.

    standard=True marks the default (or a user-supplied standard)
    system, for which the kind of each curve pins its class shape.
    Configurations produced by stabilization are not standard: their
    classes are pushforwards and leave the default patterns.
    """

    surface: Surface
    curves: tuple
    standard: bool = True
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "_index", {c.name: c for c in self.curves})

    def curve(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown curve name {name!r}") from None

    def has_curve(self, name):
        return name in self._index

    def names(self):
        return tuple(c.name for c in self.curves)

    def __iter__(self):
        return iter(self.curves)

    def __len__(self):
        return len(self.curves)


def _default_curves(surface):
    """The unfiltered default curve table of the module docstring."""
    g, n = surface.genus, surface.boundary_count
    a = [surface.unit(2 * i) for i in range(g)]
    curves = [ConfiguredCurve(f"a{i + 1}", "handle_a", a[i]) for i in range(g)]
    curves += [ConfiguredCurve(f"b{i + 1}", "handle_b", surface.unit(2 * i + 1))
               for i in range(g)]
    curves += [ConfiguredCurve(f"c{i + 1}", "chain",
                               tuple(x - y for x, y in zip(a[i], a[i + 1])))
               for i in range(g - 1)]
    d = [boundary_class(surface, j) for j in range(1, n + 1)]
    curves += [ConfiguredCurve(f"d{j + 1}", "boundary_parallel", d[j]) for j in range(n)]
    curves += [ConfiguredCurve(f"e{j + 1}", "boundary_pair",
                               tuple(x + y for x, y in zip(d[j], d[j + 1])))
               for j in range(n - 1)]
    return curves


@lru_cache(maxsize=256)
def lickorish_system(surface):
    """The default twist-generating curve system.

    It is immutable, so one copy per surface is shared.  Raises
    ValueError on closed surfaces: pages must have boundary.
    """
    if surface.boundary_count < 1:
        raise ValueError("page must have boundary")
    # on a planar page a null class bounds a disk: the disk's d1, the annulus' e1
    curves = [c for c in _default_curves(surface)
              if surface.genus or any(c.homology_class)]
    return CurveConfig(surface, curves, standard=True)


def validate_config(cfg, arc_table=()):
    """Check the structural invariants of a curve system and an arc table.

    arc_table holds (arc index, curve name, crossing number) triples, as
    given by an override file; each value must be the forced one.
    Returns a list of violation strings; empty means valid.
    """
    surface = cfg.surface
    rank = surface.h1_rank
    out = []

    seen = set()
    for c in cfg.curves:
        if c.name in seen:
            out.append(f"duplicate curve name {c.name!r}")
        seen.add(c.name)
        if len(c.homology_class) != rank:
            out.append(f"curve {c.name}: class has dimension {len(c.homology_class)}, "
                       f"expected {rank}")

    if cfg.standard:
        allowed = {(d.kind, d.homology_class) for d in _default_curves(surface)}
        for c in cfg.curves:
            if len(c.homology_class) == rank and (c.kind, c.homology_class) not in allowed:
                out.append(f"{c.kind} curve {c.name}: class {list(c.homology_class)} "
                           f"is not a default {c.kind} class")

    for i, name, value in arc_table:
        if not cfg.has_curve(name):
            out.append(f"arc table references unknown curve {name!r}")
            continue
        c = cfg.curve(name).homology_class
        if len(c) != rank:
            continue  # reported above
        try:
            want = surface.crossing(i, c)
        except IndexError as exc:
            out.append(str(exc))
            continue
        if value != want:
            out.append(f"arc table entry <r{i},{name}> = {value} is inconsistent "
                       f"with the curve class (forced value {want})")
    return out


def config_to_dict(cfg):
    return {"curves": [{"name": c.name, "kind": c.kind,
                        "class": list(c.homology_class)} for c in cfg.curves]}


def config_from_dict(data, surface, standard=False):
    curves = [ConfiguredCurve(c["name"], c["kind"], c["class"]) for c in data["curves"]]
    return CurveConfig(surface, curves, standard=standard)


def load_config_override(path_or_text, surface):
    """Load and validate a user configuration file (JSON); returns the CurveConfig.

    The format carries curves and, optionally, an explicit arc table
    that must agree with the crossing numbers the classes force:
    {"curves": [{"name", "class", "kind"}, ...],
     "arcs": [{"index": i, "intersections": {"name": value, ...}}, ...]}
    Class entries, arc indices and values must be JSON integers.
    """
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith("{"):
        data = json.loads(path_or_text)
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    cfg = config_from_dict(data, surface, standard=True)
    arc_table = []
    for rec in data.get("arcs") or ():
        index, values = rec["index"], rec.get("intersections", {})
        if (type(index) is not int or not isinstance(values, dict)
                or any(type(v) is not int for v in values.values())):
            raise ValueError("arc entries need an integer index and integer intersections")
        arc_table += [(index, name, value) for name, value in sorted(values.items())]
    violations = validate_config(cfg, arc_table)
    if violations:
        raise ValueError("invalid configuration override: " + "; ".join(violations))
    return cfg
