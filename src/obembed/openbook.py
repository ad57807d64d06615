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

A book's text form and ``to_dict`` carry a ``config`` exactly when its
configuration is not the page's default system (``surface.is_default``).
Only ``surface.load_config_override`` applies the kind rule.

Positive stabilization plumbs a band onto the page and prepends one
positive twist along a curve crossing the band once.  The output open
book carries the pushforward of the input's curve classes through the
inclusion of pages (an "attached" configuration); when those classes
match default-system classes the result is renamed onto the default
configuration.  The new page, the fresh class and the inclusion, a rule
on coordinates, come from ``surface.split_boundary`` and
``surface.join_boundaries``; this module never writes a page class.
"""

from __future__ import annotations

import json

from .intlinalg import AbelianGroup, IntMatrix, Value, cokernel
# arc_defect is unused here; bench/tracer.py wraps it under this module's name
from .mcg import TwistWord, WordSyntaxError, arc_defect, format_word, parse_word, word_action
from .surface import (ConfiguredCurve, CurveConfig, Surface, config_from_dict, config_to_dict,
                      is_default, join_boundaries, lickorish_system, split_boundary)

FORMAT_HEADER = "openbook v1"


class OpenBookParseError(ValueError):
    """Malformed open-book text; carries the offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class AbstractOpenBook(Value):
    """A (page, monodromy word) pair presenting a closed 3-manifold.

    The label, if any, must be a string; anything else raises ValueError.
    """

    __slots__ = ("page", "word", "config", "label")

    def __init__(self, page, word, config, label=None):
        if page.boundary_count < 1:
            raise ValueError("page must have boundary")
        if config.surface != page:
            raise ValueError("configuration belongs to a different surface")
        for name in word.curve_names():
            if not config.has_curve(name):
                raise ValueError(f"monodromy letter {name!r} is not a configured curve")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        self._set(page, word, config, label)

    @classmethod
    def with_default_config(cls, page, word=TwistWord(), label=None):
        return cls(page, word, lickorish_system(page), label)

    def to_dict(self):
        d = {"genus": self.page.genus,
             "boundary": self.page.boundary_count,
             "word": format_word(self.word)}
        if not is_default(self.config):
            d["config"] = config_to_dict(self.config)
        if self.label:
            d["label"] = self.label
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or not {"genus", "boundary"} <= data.keys():
            raise ValueError("open book needs an object with genus and boundary")
        page = Surface(data["genus"], data["boundary"])
        word_text = data.get("word", "")
        if not isinstance(word_text, str):
            raise ValueError(f"word must be a string, got {word_text!r}")
        word = parse_word(word_text)
        if data.get("config"):
            cfg = config_from_dict(data["config"], page)
        else:
            cfg = lickorish_system(page)
        return cls(page, word, cfg, data.get("label"))


def parse_openbook(text):
    """Parse the open-book text format.

    Four fixed lines (header, genus, boundary, word) and one optional
    ``config <json>`` line carrying a configuration other than the default.
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

    def count_line(idx, key, least, what):
        text = field_line(idx, key)
        try:
            value = int(text)
            if value < least:
                raise ValueError
        except ValueError:
            raise OpenBookParseError(idx + 1, f"{key} must be a {what} integer, got {text!r}")
        return value

    genus = count_line(1, "genus", 0, "nonnegative")
    boundary = count_line(2, "boundary", 1, "positive")
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
                cfg = config_from_dict(json.loads(line[len("config "):]), page)
            except ValueError as exc:
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
    d = ob.to_dict()
    lines = [FORMAT_HEADER] + [f"{key} {d[key]}".rstrip() for key in ("genus", "boundary", "word")]
    if "config" in d:
        lines.append("config " + json.dumps(d["config"], sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def read_openbook(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_openbook(fh.read())


def _relation_matrix(action):
    """[delta_1 .. delta_{n-1} | Phi - I] from a word action [Phi | delta_1 .. delta_{n-1}].

    The defect columns go first: with them last, the previous Bareiss
    pivot shares the handle block's determinant with the last one, and
    the cokernel's split by that pivot (intlinalg, step 2a) gains
    nothing.  Column order does not change the cokernel.
    """
    rank = action.rows
    rows = []
    for i, row in enumerate(action.data):
        row = list(row[rank:] + row[:rank])
        row[action.cols - rank + i] -= 1
        rows.append(row)
    return IntMatrix(rank, action.cols, rows)


def mapping_torus_h1(ob):
    """H1 of the page's mapping torus: Z (+) coker(Phi - I)."""
    c = cokernel(_relation_matrix(word_action(ob.word, ob.config)))
    return AbelianGroup(c.free_rank + 1, c.torsion)


def closed_h1(ob):
    """H1 of the closed manifold presented by the open book."""
    return cokernel(_relation_matrix(word_action(ob.word, ob.config, arcs=True)))


class SameBoundary(Value):
    """Plumb with both band feet on boundary component j."""

    __slots__ = ("j",)

    def __init__(self, j):
        # bool is a subclass of int, so it is rejected by the exact type test
        if type(j) is not int:
            raise ValueError(f"attachment index must be an integer, got {j!r}")
        self._set(j)


class JoinBoundaries(Value):
    """Plumb with the band joining distinct components j and k."""

    __slots__ = ("j", "k")

    def __init__(self, j, k):
        if type(j) is not int or type(k) is not int:
            raise ValueError(f"attachment indices must be integers, got {j!r}, {k!r}")
        self._set(j, k)


def _fresh_name(taken):
    i = 1
    while f"s{i}" in taken:
        i += 1
    return f"s{i}"


def _canonicalize(page, curves):
    """Renaming of pushforward curves onto the default configuration.

    Each class goes to the first unused default curve, in table order,
    with that class, or failing that with its negative (a twist cannot
    see the curve's orientation); returns None when one has no match.
    """
    by_class = {}
    for d in lickorish_system(page):
        by_class.setdefault(d.homology_class, []).append(d.name)
    mapping = {}
    for c in curves:
        names = (by_class.get(c.homology_class)
                 or by_class.get(tuple(-x for x in c.homology_class)))
        if not names:
            return None
        mapping[c.name] = names.pop(0)
    return mapping


def stabilize_positive(ob, attachment):
    """Positive stabilization of an open book; preserves the manifold.

    same_boundary(j) splits component j, giving Sigma_{g,n+1};
    join_boundaries(j,k) merges two distinct components, giving
    Sigma_{g+1,n-1}.  The new word is one positive twist along the
    fresh over-the-band curve followed by the old word.
    """
    if isinstance(attachment, SameBoundary):
        new_page, push, fresh_class = split_boundary(ob.page, attachment.j)
        kind = "boundary_parallel"
    elif isinstance(attachment, JoinBoundaries):
        new_page, push, fresh_class = join_boundaries(ob.page, attachment.j, attachment.k)
        kind = "handle_a"
    else:
        raise TypeError(f"unknown attachment {attachment!r}")
    kept_names = ob.word.curve_names()
    fresh = _fresh_name(set(kept_names))
    pushed = [ConfiguredCurve(fresh, kind, fresh_class)]
    for name in kept_names:
        old = ob.config.curve(name)
        pushed.append(ConfiguredCurve(name, old.kind, push(old.homology_class)))
    new_word = TwistWord(((fresh, 1),) + ob.word.letters)

    mapping = _canonicalize(new_page, pushed)
    if mapping is None:
        cfg = CurveConfig(new_page, pushed)
    else:
        new_word, cfg = new_word.rename(mapping), lickorish_system(new_page)
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
