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
Only ``surface.load_config_override`` applies the kind rule.  Lines of
the text form, and of a manifest, end as ``text_lines`` ends them.
``read_text`` and ``write_text`` are the package's file I/O, on bare
``os`` calls with the messages and file modes of built-in ``open``.
``parse_openbook`` reads each ``config`` line once per process, through a
table keyed by (page, line text) that is bounded as ``mcg``'s letter table
is: a repeated line gives the same configuration, its twist tables built.

Positive stabilization plumbs a band onto the page and prepends one
positive twist along a curve crossing the band once.  The output open
book carries the pushforward of the input's curve classes through the
inclusion of pages (an "attached" configuration); when those classes
match default-system classes the result is renamed onto the default
configuration.  The new page, the fresh class and the inclusion, a rule
on class supports, come from ``surface.split_boundary`` and
``surface.join_boundaries``, and the default names from
``surface.default_curve``; this module never writes a page class.  The
boundary reduction is one pass of n-1 joins of the last two components,
each a pure move of coordinates, that builds the word and one
configuration at the end: the final page's system or the pushforward.
"""

import errno
import os
from itertools import count

from .intlinalg import AbelianGroup, IntMatrix, Value, brief, cokernel
# arc_defect is unused here; bench/tracer.py wraps it under this module's name
from .mcg import TwistWord, WordSyntaxError, arc_defect, format_word, parse_word, word_action
from .surface import (ConfiguredCurve, CurveConfig, Surface, canonical_json,
                      config_from_dict, config_to_dict, default_curve, is_default, join_boundaries,
                      lickorish_system, read_json, split_boundary)

FORMAT_HEADER = "openbook v1"


class OpenBookParseError(ValueError):
    """Malformed open-book text; carries the offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class AbstractOpenBook(Value):
    """A (page, monodromy word) pair presenting a closed 3-manifold.

    The word must be a TwistWord, the configuration a CurveConfig of the
    page and the label, if any, a string; anything else raises ValueError.
    """

    __slots__ = ("page", "word", "config", "label")

    def __init__(self, page, word, config, label=None):
        if not (isinstance(word, TwistWord) and isinstance(config, CurveConfig)):
            raise ValueError(f"open book needs a TwistWord and a CurveConfig, got "
                             f"{type(word).__name__} and {type(config).__name__}")
        if config.surface != page:
            raise ValueError("configuration belongs to a different surface")
        if not dict(word.letters).keys() <= config._index.keys():
            name = next(n for n in word.curve_names() if not config.has_curve(n))
            raise ValueError(f"monodromy letter {brief(name)} is not a configured curve")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"label must be a string, got {brief(label)}")
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
            raise ValueError(f"word must be a string, got {brief(word_text)}")
        word = parse_word(word_text)
        # a present config is read whatever it holds, so {}, 0 or null is an error
        cfg = (config_from_dict(data["config"], page) if "config" in data
               else lickorish_system(page))
        return cls(page, word, cfg, data.get("label"))


def _field(lines, idx, key, least=None, what=None):
    """The value of line idx (from 0), ``key <value>``: an int >= least when least is given."""
    if len(lines) <= idx:
        raise OpenBookParseError(idx + 1, f"missing {key!r} line")
    head, _, value = lines[idx].partition(" ")
    if head != key:
        raise OpenBookParseError(idx + 1, f"expected {key!r} line, got {brief(lines[idx])}")
    value = value.strip()
    if least is None:
        return value
    try:
        if (n := int(value)) >= least:
            return n
    except ValueError:
        pass
    raise OpenBookParseError(idx + 1, f"{key} must be a {what} integer, got {brief(value)}")


# The config-line table keeps lines read well of at most _CONFIG_LINE_LIMIT characters (the
# corpus' longest is 2.9 K), and is emptied when full (a benchmark sample has <= 8).  The
# densest, two all-ones classes at rank 1000, holds 368 KB with its twist tables
# (tracemalloc, Python 3.11), so the table stays within 4 MB.
_CONFIG_TABLE_SIZE = 10
_CONFIG_LINE_LIMIT = 4096


class _Configs(dict):
    def __missing__(self, key):  # read a config line; a bad one raises, and only good ones are kept
        page, text = key
        cfg = config_from_dict(read_json(text), page)
        if len(self) >= _CONFIG_TABLE_SIZE:
            self.clear()
        return self.setdefault(key, cfg) if len(text) <= _CONFIG_LINE_LIMIT else cfg


_configs = _Configs()  # the config-line table: (page, JSON text) -> CurveConfig


def parse_openbook(text):
    """Parse the open-book text format.

    Four fixed lines (header, genus, boundary, word) and one optional
    ``config <json>`` line carrying a configuration other than the default.
    """
    lines = text_lines(text)
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise OpenBookParseError(1, f"expected header {FORMAT_HEADER!r}")
    genus = _field(lines, 1, "genus", 0, "nonnegative")
    boundary = _field(lines, 2, "boundary", 1, "positive")
    try:
        page = Surface(genus, boundary)
    except ValueError as exc:
        raise OpenBookParseError(3, str(exc))
    try:
        word = parse_word(_field(lines, 3, "word"))
    except WordSyntaxError as exc:
        raise OpenBookParseError(4, str(exc))
    cfg = None
    for lineno, line in enumerate(lines[4:], start=5):
        if line.startswith("config "):
            if cfg is not None:
                raise OpenBookParseError(lineno, "duplicate config line")
            try:
                cfg = _configs[page, line[len("config "):]]
            except ValueError as exc:
                raise OpenBookParseError(lineno, f"bad config payload: {exc}")
        elif line.strip():
            raise OpenBookParseError(lineno, f"unexpected line {brief(line)}")
    try:
        return AbstractOpenBook(page, word, lickorish_system(page) if cfg is None else cfg)
    except ValueError as exc:
        raise OpenBookParseError(4, str(exc))


def serialize_openbook(ob):
    d = ob.to_dict()
    lines = [FORMAT_HEADER] + [f"{key} {d[key]}".rstrip() for key in ("genus", "boundary", "word")]
    if "config" in d:
        lines.append("config " + canonical_json(d["config"]))
    return "\n".join(lines) + "\n"


def _newlines(text):  # each "\r\n" and lone "\r" as "\n", as a text-mode read gives them
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def text_lines(text):
    r"""Lines as a text-mode read splits them (a last line end starts none): at "\n", "\r\n"
    and a lone "\r", not at ``str.splitlines``' ``\v \f \x1c \x1d \x1e \x85 \u2028 \u2029``."""
    lines = _newlines(text).split("\n")
    return lines[:-1] if lines[-1] == "" else lines


_O_BINARY = getattr(os, "O_BINARY", 0)  # Windows only


def _open(path, flags):
    """os.open of path, a created file with mode 0o666 less the umask, and no newline mapping."""
    try:
        return os.open(path, flags | _O_BINARY, 0o666)
    except ValueError:
        if "\0" in os.fsdecode(path):
            raise OSError("embedded null byte") from None  # built-in open's error and message
        raise  # such as a UnicodeEncodeError of a lone surrogate


# Bytes read from one input, past which it fails with EFBIG: 16 times the largest real input,
# the 3.9 MB book of ROADMAP item 5's table (item 1's S5 plan of Sigma_{0,320} is 758 KB).
MAX_INPUT_BYTES = 1 << 26


def read_text(path):
    """The file at path decoded as UTF-8, with a text-mode read's universal newlines: any file
    (a pipe, a FIFO, /dev/stdin too) in 64 KiB reads to end of file, so one under 64 KiB takes
    four system calls, and past ``MAX_INPUT_BYTES`` an OSError EFBIG, ``File too large``."""
    fd = _open(path, os.O_RDONLY)
    try:
        chunks, size = [], 0
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
            if (size := size + len(chunk)) > MAX_INPUT_BYTES:
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG), os.fspath(path))
    except IsADirectoryError as exc:  # os.read's own carries no file name
        raise IsADirectoryError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return _newlines(b"".join(chunks).decode("utf-8"))


def write_text(path, text):
    """Write text to the file at path as UTF-8, with "\\n" line ends on every platform: a new
    file gets mode 0o666 less the umask, an old one is truncated, and every byte goes out."""
    data = text.encode("utf-8")
    fd = _open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def read_openbook(path):
    return parse_openbook(read_text(path))


def _relation_matrix(action):
    """[delta_1 .. delta_{n-1} | Phi - I] from a word action [Phi | delta_1 .. delta_{n-1}].

    The defect columns go first: with them last, the previous Bareiss
    pivot shares the handle block's determinant with the last one, and
    the cokernel's split by that pivot (intlinalg, step 2a) gains
    nothing.  Column order does not change the cokernel.  The action's
    ints need no second check.
    """
    rank, cols = action.rows, action.cols
    rows = []
    for i, row in enumerate(action.data):
        row = list(row[rank:] + row[:rank])
        row[cols - rank + i] -= 1
        rows.append(tuple(row))
    return IntMatrix._of(rank, cols, tuple(rows))


def mapping_torus_h1(ob):
    """H1 of the page's mapping torus: Z (+) coker(Phi - I)."""
    c = cokernel(_relation_matrix(word_action(ob.word, ob.config)))
    return AbelianGroup._of(c.free_rank + 1, c.torsion)


def closed_h1(ob):
    """H1 of the closed manifold presented by the open book."""
    return cokernel(_relation_matrix(word_action(ob.word, ob.config, arcs=True)))


class SameBoundary(Value):
    """Plumb with both band feet on boundary component j."""

    __slots__ = ("j",)

    def __init__(self, j):
        # bool is a subclass of int, so it is rejected by the exact type test
        if type(j) is not int:
            raise ValueError(f"attachment index must be an integer, got {brief(j)}")
        self._set(j)


class JoinBoundaries(Value):
    """Plumb with the band joining distinct components j and k."""

    __slots__ = ("j", "k")

    def __init__(self, j, k):
        if type(j) is not int or type(k) is not int:
            raise ValueError(f"attachment indices must be integers, got {brief(j)}, {brief(k)}")
        self._set(j, k)


def _canonicalize(page, classes):
    """(name, kind, matched class) of the default curve of each pushforward support, or None.

    A class goes to the default curve of that class, else of its negative (a
    twist cannot see orientation), unless an earlier class took it.
    """
    out, taken = [], set()
    for c in classes:
        found = default_curve(page, c)
        if found is None or found in taken:
            c = tuple((i, -a) for i, a in c)
            found = default_curve(page, c)
            if found is None or found in taken:
                return None
        taken.add(found)
        out.append((*found, c))
    return out


def _stabilize(ob, attachments):
    """ob after one positive stabilization along each attachment in turn.

    Each step pushes the word's curves as supports, prepends the fresh one, and
    renames them all when ``_canonicalize`` matches; the word and config come at the end.
    """
    page, names = ob.page, ob.word.curve_names()
    curves = [(c.name, c.kind, c.support) for c in map(ob.config.curve, names)]
    found = None
    for attachment in attachments:
        if isinstance(attachment, SameBoundary):
            step, kind = split_boundary(page, attachment.j), "boundary_parallel"
        elif isinstance(attachment, JoinBoundaries):
            step, kind = join_boundaries(page, attachment.j, attachment.k), "handle_a"
        else:
            raise TypeError(f"unknown attachment {brief(attachment)}")
        page, push, fresh_class = step
        taken = {name for name, _, _ in curves}
        fresh = next(f"s{i}" for i in count(1) if f"s{i}" not in taken)
        curves = [(fresh, kind, fresh_class)] + [(name, k, push(c)) for name, k, c in curves]
        found = _canonicalize(page, [c for _, _, c in curves])
        curves = found or curves
    steps = len(curves) - len(names)
    rename = dict(zip(names, (name for name, _, _ in curves[steps:])))
    word = TwistWord._of(tuple((name, 1) for name, _, _ in curves[:steps])
                         + tuple((rename[name], e) for name, e in ob.word.letters))
    cfg = lickorish_system(page) if found else CurveConfig(page, [
        ConfiguredCurve._of(*c) for c in curves])
    return AbstractOpenBook(page, word, cfg, ob.label)


def stabilize_positive(ob, attachment):
    """Positive stabilization of an open book; preserves the manifold.

    same_boundary(j) splits component j, giving Sigma_{g,n+1};
    join_boundaries(j,k) merges two distinct components, giving
    Sigma_{g+1,n-1}.  The new word is one positive twist along the
    fresh over-the-band curve followed by the old word.
    """
    return _stabilize(ob, (attachment,))


def reduce_to_one_boundary(ob):
    """Join boundary components until a single one remains.

    Each step is a positive stabilization joining the last two
    components, so the closed manifold and its homology are unchanged.
    The reduced page Sigma_{g+n-1,1} is built first, so a page past the
    rank cap fails before the first join.
    """
    n = ob.page.boundary_count
    Surface(ob.page.genus + n - 1, 1)
    return _stabilize(ob, [JoinBoundaries(m - 1, m) for m in range(n, 1, -1)]) if n > 1 else ob


def core_twist_total(ob):
    """Total core-twist power of an annulus-page word.

    On the annulus every essential curve is the core; a letter whose
    class is +-D1, the default d1 or d2, twists along it either way.
    Raises ValueError when the page is not the annulus or a letter's
    class is neither (a null class bounds a disk and is rejected too).
    """
    if (ob.page.genus, ob.page.boundary_count) != (0, 2):
        raise ValueError("page must be the annulus")
    for name in ob.word.curve_names():
        if default_curve(ob.page, ob.config.curve(name).support) is None:
            raise ValueError(f"letter {brief(name)} is not a core (boundary-parallel) twist")
    return sum(exp for _, exp in ob.word)


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
