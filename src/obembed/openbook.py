"""Abstract open books and their first-homology invariants.

An abstract open book is a page Sigma_{g,n} (n >= 1) together with a
monodromy word.  The closed manifold it presents is the mapping torus
of the page glued to one solid torus per boundary component.

First homology comes out of the Mayer-Vietoris sequence for that
gluing.  Writing Phi for the homology action of the monodromy:

    H1(mapping torus) = Z (+) coker(Phi - I)

and each solid torus kills the section circle over its boundary
component.  Picking the base component as reference, the section over
component i differs from the base section by the defect class
delta_i = [phi(r_i) - r_i] of the arc r_i, so

    H1(closed manifold) = Z^{2g+n-1} / (im(Phi - I) + <delta_1..delta_{n-1}>).

Positive stabilization plumbs a band onto the page and prepends one
positive twist along a curve crossing the band once.  The output open
book carries the pushforward of the input's curve classes through the
inclusion of pages (an "attached" configuration); when those classes
match default-system classes the result is renamed onto the default
configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .intlinalg import AbelianGroup, IntMatrix, cokernel
from .mcg import TwistWord, WordSyntaxError, format_word, parse_word, word_action, arc_defect
from .surface import (ConfiguredCurve, CurveConfig, Surface, boundary_class,
                      config_from_dict, config_to_dict, lickorish_system, validate_config)

FORMAT_HEADER = "openbook v1"


class OpenBookParseError(ValueError):
    """Malformed open-book text; carries the offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class AbstractOpenBook:
    """A (page, monodromy word) pair presenting a closed 3-manifold."""

    page: Surface
    word: TwistWord
    config: CurveConfig
    label: str = None

    def __post_init__(self):
        if self.page.boundary_count < 1:
            raise ValueError("page must have boundary")
        if self.config.surface != self.page:
            raise ValueError("configuration belongs to a different surface")
        for name, _ in self.word:
            if not self.config.has_curve(name):
                raise ValueError(f"monodromy letter {name!r} is not a configured curve")

    @classmethod
    def with_default_config(cls, page, word=TwistWord(), label=None):
        return cls(page, word, lickorish_system(page), label)

    def to_dict(self):
        d = {"genus": self.page.genus,
             "boundary": self.page.boundary_count,
             "word": format_word(self.word)}
        if not self.config.standard:
            d["config"] = config_to_dict(self.config)
        if self.label:
            d["label"] = self.label
        return d

    @classmethod
    def from_dict(cls, data):
        genus, boundary, word_text = data["genus"], data["boundary"], data.get("word", "")
        if type(genus) is not int or type(boundary) is not int:
            raise ValueError(f"genus and boundary must be integers, got {genus!r}, "
                             f"{boundary!r}")
        if not isinstance(word_text, str):
            raise ValueError(f"word must be a string, got {word_text!r}")
        page = Surface(genus, boundary)
        word = parse_word(word_text)
        if data.get("config"):
            cfg = _attached_config(data["config"], page)
        else:
            cfg = lickorish_system(page)
        return cls(page, word, cfg, data.get("label"))


def _attached_config(data, page):
    """An attached configuration from its JSON form, checked like an override."""
    cfg = config_from_dict(data, page, standard=False)
    violations = validate_config(cfg)
    if violations:
        raise ValueError("; ".join(violations))
    return cfg


def parse_openbook(text):
    """Parse the open-book text format.

    Four fixed lines (header, genus, boundary, word) and one optional
    ``config <json>`` line carrying an attached configuration.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise OpenBookParseError(1, f"expected header {FORMAT_HEADER!r}")

    def field_line(idx, key):
        if len(lines) <= idx:
            raise OpenBookParseError(idx + 1, f"missing {key!r} line")
        line = lines[idx]
        if line != key and not line.startswith(key + " "):
            raise OpenBookParseError(idx + 1, f"expected {key!r} line, got {line!r}")
        return line[len(key):].strip()

    g_text = field_line(1, "genus")
    try:
        genus = int(g_text)
        if genus < 0:
            raise ValueError
    except ValueError:
        raise OpenBookParseError(2, f"genus must be a nonnegative integer, got {g_text!r}")

    n_text = field_line(2, "boundary")
    try:
        boundary = int(n_text)
        if boundary < 1:
            raise ValueError
    except ValueError:
        raise OpenBookParseError(3, f"boundary must be a positive integer, got {n_text!r}")
    try:
        page = Surface(genus, boundary)
    except ValueError as exc:
        raise OpenBookParseError(3, str(exc))

    word_text = field_line(3, "word")
    try:
        word = parse_word(word_text)
    except WordSyntaxError as exc:
        raise OpenBookParseError(4, str(exc))

    cfg = None
    extra = [(i, ln) for i, ln in enumerate(lines[4:], start=5) if ln.strip()]
    for lineno, line in extra:
        if line.startswith("config "):
            if cfg is not None:
                raise OpenBookParseError(lineno, "duplicate config line")
            try:
                cfg = _attached_config(json.loads(line[len("config "):]), page)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise OpenBookParseError(lineno, f"bad config payload: {exc}")
        else:
            raise OpenBookParseError(lineno, f"unexpected line {line!r}")

    if cfg is None:
        cfg = lickorish_system(page)
    try:
        return AbstractOpenBook(page, word, cfg)
    except ValueError as exc:
        raise OpenBookParseError(4, str(exc))


def serialize_openbook(ob):
    lines = [FORMAT_HEADER,
             f"genus {ob.page.genus}",
             f"boundary {ob.page.boundary_count}",
             ("word " + format_word(ob.word)).rstrip()]
    if not ob.config.standard:
        payload = json.dumps(config_to_dict(ob.config),
                             sort_keys=True, separators=(",", ":"))
        lines.append("config " + payload)
    return "\n".join(lines) + "\n"


def read_openbook(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_openbook(fh.read())


def write_openbook(ob, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_openbook(ob))


def _relation_matrix(phi, defects=()):
    """Phi - I, followed by one column per defect class."""
    rank = phi.rows
    rows = [[phi.entry(i, j) - (i == j) for j in range(rank)] + [d[i] for d in defects]
            for i in range(rank)]
    return IntMatrix(rank, rank + len(defects), rows)


def mapping_torus_h1(ob):
    """H1 of the page's mapping torus: Z (+) coker(Phi - I)."""
    c = cokernel(_relation_matrix(word_action(ob.word, ob.config)))
    return AbelianGroup(c.free_rank + 1, c.torsion)


def closed_h1(ob):
    """H1 of the closed manifold presented by the open book."""
    phi = word_action(ob.word, ob.config)
    defects = [arc_defect(ob.word, i, ob.config) for i in range(1, ob.page.boundary_count)]
    return cokernel(_relation_matrix(phi, defects))


@dataclass(frozen=True)
class SameBoundary:
    """Plumb with both band feet on boundary component j."""

    j: int


@dataclass(frozen=True)
class JoinBoundaries:
    """Plumb with the band joining distinct components j and k."""

    j: int
    k: int


def _push_classes(images, vector):
    """Apply a basis map given by per-coordinate image vectors."""
    if not images:
        return ()
    out = [0] * len(images[0])
    for coeff, img in zip(vector, images):
        if coeff:
            for idx, x in enumerate(img):
                out[idx] += coeff * x
    return tuple(out)


def _attach(page, attachment):
    """New page, basis image vectors and fresh class of a stabilization.

    With d_m = boundary_class(page, m) and d'_m on the new page, the
    inclusion of pages fixes the handle classes and acts on the basis
    classes d_1 .. d_{n-1} by one rule:

    same_boundary(j): the split-off piece of component j is the new last
      puncture n, so d_j -> d'_j + d'_n, every other d_m -> d'_m, and
      the fresh class is d'_n (the base keeps its role).
    join_boundaries(j < k): the other components keep their order and
      the merged one is the new base; d_j -> B'_{g+1} (the loop around
      j), d_k -> d'_base - B'_{g+1}, and the fresh class is A'_{g+1},
      the curve over the band.
    """
    g, n = page.genus, page.boundary_count
    if isinstance(attachment, SameBoundary):
        j = attachment.j
        if not 1 <= j <= n:
            raise ValueError(f"attachment index {j} out of range 1..{n}")
        new_page = Surface(g, n + 1)
        fresh = boundary_class(new_page, n)
        bounds = {m: boundary_class(new_page, m) for m in range(1, n)}
        if j < n:
            bounds[j] = tuple(x + y for x, y in zip(bounds[j], fresh))
    elif isinstance(attachment, JoinBoundaries):
        j, k = attachment.j, attachment.k
        if j == k:
            raise ValueError("join requires two distinct boundary components")
        if not (1 <= j <= n and 1 <= k <= n):
            raise ValueError(f"attachment indices ({j},{k}) out of range 1..{n}")
        j, k = min(j, k), max(j, k)
        new_page = Surface(g + 1, n - 1)
        fresh, b_new = new_page.unit(2 * g), new_page.unit(2 * g + 1)
        others = [m for m in range(1, n + 1) if m not in (j, k)]
        bounds = {m: boundary_class(new_page, i) for i, m in enumerate(others, start=1)}
        bounds[j] = b_new
        bounds[k] = tuple(x - y for x, y in zip(boundary_class(new_page, n - 1), b_new))
    else:
        raise TypeError(f"unknown attachment {attachment!r}")
    images = [new_page.unit(i) for i in range(2 * g)] + [bounds[m] for m in range(1, n)]
    return new_page, images, fresh


def _fresh_name(taken):
    i = 1
    while f"s{i}" in taken:
        i += 1
    return f"s{i}"


def _canonicalize(page, curves, word):
    """Try to rename pushforward curves onto the default configuration.

    Succeeds when every class matches a default class exactly or up to
    sign (a twist cannot see the curve's orientation) with distinct
    targets; returns None otherwise.
    """
    default_cfg = lickorish_system(page)
    defaults = list(default_cfg.curves)
    mapping = {}
    used = set()
    for c in curves:
        target = None
        for d in defaults:
            if d.name not in used and d.homology_class == c.homology_class:
                target = d
                break
        if target is None:
            neg = tuple(-x for x in c.homology_class)
            for d in defaults:
                if d.name not in used and d.homology_class == neg:
                    target = d
                    break
        if target is None:
            return None
        mapping[c.name] = target.name
        used.add(target.name)
    return AbstractOpenBook(page, word.rename(mapping), default_cfg)


def stabilize_positive(ob, attachment):
    """Positive stabilization of an open book; preserves the manifold.

    same_boundary(j) splits component j, giving Sigma_{g,n+1};
    join_boundaries(j,k) merges two distinct components, giving
    Sigma_{g+1,n-1}.  The new word is one positive twist along the
    fresh over-the-band curve followed by the old word.
    """
    new_page, images, fresh_class = _attach(ob.page, attachment)
    kept_names = list(dict.fromkeys(name for name, _ in ob.word))
    fresh = _fresh_name(set(kept_names))
    pushed = [ConfiguredCurve(fresh, "boundary_parallel"
                              if isinstance(attachment, SameBoundary) else "handle_a",
                              fresh_class)]
    for name in kept_names:
        old = ob.config.curve(name)
        pushed.append(ConfiguredCurve(name, old.kind,
                                      _push_classes(images, old.homology_class)))
    new_word = TwistWord(((fresh, 1),) + ob.word.letters)

    canonical = _canonicalize(new_page, pushed, new_word)
    if canonical is not None:
        return AbstractOpenBook(canonical.page, canonical.word, canonical.config,
                                ob.label)
    cfg = CurveConfig(new_page, pushed, standard=False)
    return AbstractOpenBook(new_page, new_word, cfg, ob.label)


def reduce_to_one_boundary(ob):
    """Join boundary components until a single one remains.

    Each step is a positive stabilization, so the closed manifold and
    its homology are unchanged.
    """
    while ob.page.boundary_count > 1:
        n = ob.page.boundary_count
        ob = stabilize_positive(ob, JoinBoundaries(n - 1, n))
    return ob


def core_twist_total(ob):
    """Total core-twist power of an annulus-page word.

    On the annulus every essential curve is the core; a letter whose
    class is +-D1 twists along it either way.  Raises ValueError when
    the page is not the annulus or a letter's class is not +-D1 (a
    null class bounds a disk and is rejected too).
    """
    if (ob.page.genus, ob.page.boundary_count) != (0, 2):
        raise ValueError("page must be the annulus")
    total = 0
    for name, exp in ob.word:
        if ob.config.curve(name).homology_class not in ((1,), (-1,)):
            raise ValueError(f"letter {name!r} is not a core (boundary-parallel) twist")
        total += exp
    return total


def identify_known(ob):
    """Catalog name of the presented manifold, or None.

    Only exact catalog matches are reported; H1 alone never names a
    manifold.
    """
    g, n = ob.page.genus, ob.page.boundary_count
    if g == 0 and n == 1 and ob.word.is_empty():
        return "S3"
    if g == 0 and n == 2:
        try:
            k = core_twist_total(ob)
        except ValueError:
            return None
        if k == 0:
            return "S1xS2"
        if k in (1, -1):
            return "S3"
        if k >= 2:
            return f"L({k},1)"
        return None
    if g == 0 and n >= 3 and ob.word.is_empty():
        return f"#{n - 1}(S1xS2)"
    return None
