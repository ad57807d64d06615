"""Surfaces with boundary, homology bases, and configured curve systems.

Conventions (fixed once, used by every other module):

A page Sigma_{g,n} is drawn as g handles in a row followed by n-1
punctures, all inside one outer boundary circle, which is boundary
component number n (the base).  The first homology basis is ordered

    A1, B1, A2, B2, ..., Ag, Bg, D1, ..., D_{n-1}

where Ai, Bi is the symplectic pair of handle i (<Ai,Bi> = +1) and Dj
is the class of puncture j's boundary circle.  The base component's
class is the dependent one, -(D1 + ... + D_{n-1}).

The default twist-generating system consists of

    a_i           class Ai                 (handle_a)
    b_i           class Bi                 (handle_b)
    c_i           class Ai - A_{i+1}       (chain, i = 1..g-1)
    d_j           class Dj  for j <= n-1   (boundary_parallel)
    d_n           class -(D1+...+D_{n-1})  (boundary_parallel, base side)
    e_j           class Dj + D_{j+1}       (boundary_pair, j = 1..n-1,
                  with D_n read as the dependent class)

Null-homotopic members are dropped: d_1 on the disk and e_1 on the
annulus bound disks and twist trivially.

Arcs r_1 .. r_{n-1} run from the base component to each puncture.  The
algebraic crossing number of an arc with a curve depends only on the
curve's homology class (it is the Lefschetz pairing against the arc's
relative class), and for this arc system it equals the Dj-coordinate
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


@dataclass(frozen=True)
class Surface:
    """Compact orientable surface with genus g and n boundary circles."""

    genus: int
    boundary_count: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary_count < 0:
            raise ValueError("genus and boundary count must be nonnegative")

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
    pairing: IntMatrix

    @classmethod
    def for_surface(cls, surface):
        return _basis_for(surface.genus, surface.boundary_count)

    @property
    def rank(self):
        return len(self.labels)

    def pair(self, x, y):
        """Intersection pairing <x, y> of two class vectors."""
        x, y = tuple(x), tuple(y)
        n = self.rank
        if len(x) != n or len(y) != n:
            raise ValueError("class vector has wrong dimension")
        jy = self.pairing.apply(y)
        return sum(x[i] * jy[i] for i in range(n))

    def unit(self, index):
        return tuple(1 if k == index else 0 for k in range(self.rank))


@lru_cache(maxsize=None)
def _basis_for(genus, boundary_count):
    surface = Surface(genus, boundary_count)
    g, n = genus, boundary_count
    labels = []
    for i in range(1, g + 1):
        labels.append(f"A{i}")
        labels.append(f"B{i}")
    for j in range(1, max(n - 1, 0) + 1):
        labels.append(f"D{j}")
    rank = len(labels)
    rows = [[0] * rank for _ in range(rank)]
    for i in range(g):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = -1
    return H1Basis(surface, tuple(labels), IntMatrix(rank, rank, rows))


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

    Crossing numbers with curves are derived from homology classes
    (see the module docstring); an explicit table, as found in user
    override files, is honored after validation.
    """

    surface: Surface
    explicit: tuple = None  # ((arc_index, curve_name, value), ...) or None

    @property
    def count(self):
        return max(self.surface.boundary_count - 1, 0)

    def derived_intersection(self, arc_index, curve):
        if not 1 <= arc_index <= self.count:
            raise IndexError(f"arc index {arc_index} out of range 1..{self.count}")
        return curve.homology_class[2 * self.surface.genus + arc_index - 1]

    def intersection(self, arc_index, curve):
        if self.explicit is not None:
            for i, name, value in self.explicit:
                if i == arc_index and name == curve.name:
                    return value
        return self.derived_intersection(arc_index, curve)


@lru_cache(maxsize=256)
def lickorish_system(surface):
    """The default twist-generating curve system and arc system.

    Both are immutable, so one copy per surface is shared.  Raises
    ValueError on closed surfaces: pages must have boundary.
    """
    g, n = surface.genus, surface.boundary_count
    if n < 1:
        raise ValueError("page must have boundary")
    basis = H1Basis.for_surface(surface)
    rank = basis.rank
    curves = []

    def unit(idx):
        return tuple(1 if k == idx else 0 for k in range(rank))

    def d_class(j):
        # class of boundary component j; the base one is dependent
        if j <= n - 1:
            return unit(2 * g + j - 1)
        return tuple(-1 if 2 * g <= k < rank else 0 for k in range(rank))

    for i in range(1, g + 1):
        curves.append(ConfiguredCurve(f"a{i}", "handle_a", unit(2 * (i - 1))))
    for i in range(1, g + 1):
        curves.append(ConfiguredCurve(f"b{i}", "handle_b", unit(2 * (i - 1) + 1)))
    for i in range(1, g):
        cls = tuple(a - b for a, b in zip(unit(2 * (i - 1)), unit(2 * i)))
        curves.append(ConfiguredCurve(f"c{i}", "chain", cls))
    for j in range(1, n + 1):
        if g == 0 and n == 1:
            break  # boundary-parallel curve on the disk bounds a disk
        curves.append(ConfiguredCurve(f"d{j}", "boundary_parallel", d_class(j)))
    if n >= 2 and not (g == 0 and n == 2):
        for j in range(1, n):
            cls = tuple(a + b for a, b in zip(d_class(j), d_class(j + 1)))
            curves.append(ConfiguredCurve(f"e{j}", "boundary_pair", cls))

    return CurveConfig(surface, curves, standard=True), ArcSystem(surface)


def _check_kind_class(curve, basis, surface):
    """Kind-to-class rules for standard systems; returns violations."""
    g, n = surface.genus, surface.boundary_count
    rank = basis.rank
    cls = curve.homology_class
    out = []

    def unit(idx):
        return tuple(1 if k == idx else 0 for k in range(rank))

    if curve.kind == "chain":
        ok = any(cls == tuple(a - b for a, b in zip(unit(2 * i), unit(2 * i + 2)))
                 for i in range(max(g - 1, 0)))
        if not ok:
            out.append(f"chain curve {curve.name}: class is not of the form Ai - A(i+1)")
    elif curve.kind == "boundary_parallel":
        units = [unit(2 * g + j) for j in range(max(n - 1, 0))]
        dependent = tuple(-1 if 2 * g <= k < rank else 0 for k in range(rank))
        if cls not in units and cls != dependent:
            out.append(f"boundary_parallel curve {curve.name}: class is neither a Dj "
                       "nor the dependent boundary class")
    elif curve.kind == "boundary_pair":
        pairs = []
        for j in range(1, n):
            dj = unit(2 * g + j - 1)
            dj1 = (unit(2 * g + j) if j + 1 <= n - 1
                   else tuple(-1 if 2 * g <= k < rank else 0 for k in range(rank)))
            pairs.append(tuple(a + b for a, b in zip(dj, dj1)))
        if cls not in pairs:
            out.append(f"boundary_pair curve {curve.name}: class is not Dj + D(j+1)")
    elif curve.kind == "handle_a":
        if cls not in [unit(2 * i) for i in range(g)]:
            out.append(f"handle_a curve {curve.name}: class is not an Ai")
    elif curve.kind == "handle_b":
        if cls not in [unit(2 * i + 1) for i in range(g)]:
            out.append(f"handle_b curve {curve.name}: class is not a Bi")
    return out


def validate_config(cfg, arcs=None, surface=None, basis=None):
    """Check the structural invariants of a curve/arc system.

    Returns a list of violation strings; empty means valid.
    """
    surface = surface or cfg.surface
    basis = basis or H1Basis.for_surface(surface)
    rank = basis.rank
    out = []

    if cfg.surface != surface:
        out.append("configuration is attached to a different surface")

    seen = set()
    for c in cfg.curves:
        if c.name in seen:
            out.append(f"duplicate curve name {c.name!r}")
        seen.add(c.name)
        if len(c.homology_class) != rank:
            out.append(f"curve {c.name}: class has dimension {len(c.homology_class)}, "
                       f"expected {rank}")

    # Pairing matrix shape: skew, symplectic on the handle block,
    # boundary classes in the radical.
    J = basis.pairing
    if J.rows != rank or J.cols != rank:
        out.append("pairing matrix has wrong shape")
    else:
        for i in range(rank):
            for j in range(rank):
                if J.entry(i, j) != -J.entry(j, i):
                    out.append(f"pairing matrix not skew at ({i},{j})")
        g = surface.genus
        for i in range(g):
            if J.entry(2 * i, 2 * i + 1) != 1:
                out.append(f"pairing <A{i+1},B{i+1}> is {J.entry(2*i, 2*i+1)}, expected 1")
        for i in range(2 * g, rank):
            if any(J.entry(i, j) != 0 for j in range(rank)) or \
               any(J.entry(j, i) != 0 for j in range(rank)):
                out.append(f"boundary class {basis.labels[i]} is not in the radical")

    if cfg.standard:
        for c in cfg.curves:
            if len(c.homology_class) == rank:
                out.extend(_check_kind_class(c, basis, surface))

    if arcs is not None:
        if arcs.surface != surface:
            out.append("arc system is attached to a different surface")
        if arcs.explicit is not None:
            for i, name, value in arcs.explicit:
                if not 1 <= i <= arcs.count:
                    out.append(f"arc index {i} out of range 1..{arcs.count}")
                    continue
                if not cfg.has_curve(name):
                    out.append(f"arc table references unknown curve {name!r}")
                    continue
                want = arcs.derived_intersection(i, cfg.curve(name))
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
    violations = validate_config(cfg, arcs, surface)
    if violations:
        raise ValueError("invalid configuration override: " + "; ".join(violations))
    return cfg, arcs
