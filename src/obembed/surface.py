"""Surfaces with boundary, homology bases, and configured curve systems.

This module is the only one that knows how page classes are written;
every other module goes through ``H1Basis.unit``, ``H1Basis.dual``,
``boundary_class`` and the default curve table.

A page Sigma_{g,n} is drawn as g handles in a row followed by n-1
punctures, all inside one outer boundary circle, which is boundary
component number n (the base).  The first homology basis is ordered

    A1, B1, A2, B2, ..., Ag, Bg, D1, ..., D_{n-1}

Pairing rule: <Ai,Bi> = +1 = -<Bi,Ai>, all other pairings of basis
classes are 0, so the Dj lie in the radical.  ``H1Basis.dual(c)`` is
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
of the class:

    <r_i, c> = [c]_{D_i}

In particular <r_i, d_n> = -1 and <r_i, e_{n-1}> is -1 for i <= n-2
and 0 for i = n-1; no other values are consistent with the classes
above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .intlinalg import IntMatrix

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


@dataclass(frozen=True)
class H1Basis:
    """Ordered basis of H1(Sigma) with its intersection pairing."""

    surface: Surface
    labels: tuple

    @classmethod
    def for_surface(cls, surface):
        return _basis_for(surface.genus, surface.boundary_count)

    @property
    def rank(self):
        return len(self.labels)

    def unit(self, index):
        return tuple(1 if k == index else 0 for k in range(self.rank))

    def dual(self, c):
        """J c, so that <x, c> = x . J c (the pairing rule)."""
        h = 2 * self.surface.genus
        out = [0] * self.rank
        out[0:h:2] = c[1:h:2]
        out[1:h:2] = [-a for a in c[0:h:2]]
        return tuple(out)

    @property
    def pairing(self):
        """The pairing matrix J; column j is J of the j-th basis class."""
        rank = self.rank
        return IntMatrix(rank, rank, zip(*(self.dual(self.unit(j)) for j in range(rank))))

    def pair(self, x, y):
        """Intersection pairing <x, y> of two class vectors."""
        x, y = tuple(x), tuple(y)
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("class vector has wrong dimension")
        return sum(a * b for a, b in zip(x, self.dual(y)))


@lru_cache(maxsize=None)
def _basis_for(genus, boundary_count):
    labels = [f"{x}{i}" for i in range(1, genus + 1) for x in "AB"]
    labels += [f"D{j}" for j in range(1, boundary_count)]
    return H1Basis(Surface(genus, boundary_count), tuple(labels))


def boundary_class(surface, m):
    """Class of boundary component m (1-based); the base m = n is dependent."""
    g, n = surface.genus, surface.boundary_count
    if not 1 <= m <= n:
        raise IndexError(f"boundary component {m} out of range 1..{n}")
    basis = H1Basis.for_surface(surface)
    if m < n:
        return basis.unit(2 * g + m - 1)
    return tuple(-1 if k >= 2 * g else 0 for k in range(basis.rank))


@dataclass(frozen=True)
class ConfiguredCurve:
    """A named simple closed curve, remembered through its class only."""

    name: str
    kind: str
    homology_class: tuple

    def __post_init__(self):
        object.__setattr__(self, "homology_class",
                           tuple(int(x) for x in self.homology_class))
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")


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

    def basis(self):
        return H1Basis.for_surface(self.surface)


@dataclass(frozen=True)
class ArcSystem:
    """Arcs from the base boundary component to each of the others.

    Crossing numbers with curves are read off the homology classes (see
    the module docstring); an explicit table, as found in user override
    files, is only checked against them by ``validate_config``.
    """

    surface: Surface
    explicit: tuple = None  # ((arc_index, curve_name, value), ...) or None

    @property
    def count(self):
        return max(self.surface.boundary_count - 1, 0)

    def intersection(self, arc_index, curve):
        if not 1 <= arc_index <= self.count:
            raise IndexError(f"arc index {arc_index} out of range 1..{self.count}")
        return curve.homology_class[2 * self.surface.genus + arc_index - 1]


def _default_curves(surface):
    """The unfiltered default curve table of the module docstring."""
    g, n = surface.genus, surface.boundary_count
    basis = H1Basis.for_surface(surface)
    a = [basis.unit(2 * i) for i in range(g)]
    curves = [ConfiguredCurve(f"a{i + 1}", "handle_a", a[i]) for i in range(g)]
    curves += [ConfiguredCurve(f"b{i + 1}", "handle_b", basis.unit(2 * i + 1))
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
    """The default twist-generating curve system and arc system.

    Both are immutable, so one copy per surface is shared.  Raises
    ValueError on closed surfaces: pages must have boundary.
    """
    if surface.boundary_count < 1:
        raise ValueError("page must have boundary")
    # on a planar page a null class bounds a disk: the disk's d1, the annulus' e1
    curves = [c for c in _default_curves(surface)
              if surface.genus or any(c.homology_class)]
    return CurveConfig(surface, curves, standard=True), ArcSystem(surface)


def validate_config(cfg, arcs=None):
    """Check the structural invariants of a curve/arc system.

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

    if arcs is not None:
        if arcs.surface != surface:
            out.append("arc system is attached to a different surface")
        for i, name, value in arcs.explicit or ():
            if not 1 <= i <= arcs.count:
                out.append(f"arc index {i} out of range 1..{arcs.count}")
                continue
            if not cfg.has_curve(name):
                out.append(f"arc table references unknown curve {name!r}")
                continue
            curve = cfg.curve(name)
            if len(curve.homology_class) != rank:
                continue  # reported above
            want = arcs.intersection(i, curve)
            if value != want:
                out.append(f"arc table entry <r{i},{name}> = {value} is inconsistent "
                           f"with the curve class (forced value {want})")
    return out


def config_to_dict(cfg):
    return {"curves": [{"name": c.name, "kind": c.kind,
                        "class": list(c.homology_class)} for c in cfg.curves]}


def config_from_dict(data, surface, standard=False):
    curves = [ConfiguredCurve(str(c["name"]), str(c["kind"]),
                              tuple(int(x) for x in c["class"]))
              for c in data["curves"]]
    return CurveConfig(surface, curves, standard=standard)


def load_config_override(path_or_text, surface):
    """Load a user configuration file (JSON), validating it.

    The format carries curves and, optionally, an explicit arc table:
    {"curves": [{"name", "class", "kind"}, ...],
     "arcs": [{"index": i, "intersections": {"name": value, ...}}, ...]}
    """
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith("{"):
        data = json.loads(path_or_text)
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    cfg = config_from_dict(data, surface, standard=True)
    explicit = None
    if "arcs" in data and data["arcs"] is not None:
        triples = []
        for rec in data["arcs"]:
            idx = int(rec["index"])
            for name, value in sorted(rec.get("intersections", {}).items()):
                triples.append((idx, str(name), int(value)))
        explicit = tuple(triples)
    arcs = ArcSystem(surface, explicit)
    violations = validate_config(cfg, arcs)
    if violations:
        raise ValueError("invalid configuration override: " + "; ".join(violations))
    return cfg, arcs
