"""Hypothesis property tests of the text format and the validator.

- Any open book, including user configurations loaded as overrides and
  the attached configurations that stabilization produces, survives
  serialize -> parse unchanged.
- ``validate_certificate`` is total: with any JSON value set at any
  field of a valid certificate it returns a list of violations; it
  raises ValueError only for a non-object.
- The JSON loaders of open books and configurations raise nothing but
  ValueError, whatever the structure of their input.
"""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obembed import (AbelianGroup, AbstractOpenBook, JoinBoundaries, SameBoundary, Surface,
                     TwistWord, lickorish_system, load_config_override, parse_openbook,
                     parse_word, serialize_openbook, stabilize_positive)
from obembed.surface import CURVE_KINDS, config_from_dict
from obembed.embedder import (build_annulus_s5, build_flexible_embedding,
                              build_openbook_embedding, build_s5_plan, validate_certificate)

from helpers import override_book


@st.composite
def open_books(draw):
    page = Surface(draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    cfg = lickorish_system(page)
    letters = draw(st.lists(st.tuples(st.sampled_from(cfg.names()), st.integers(-3, 3)),
                            max_size=8)) if len(cfg) else []
    ob = AbstractOpenBook(page, TwistWord(tuple(letters)), cfg)
    if draw(st.booleans()):
        ob = override_book(ob)
    for _ in range(draw(st.integers(0, 2))):
        n = ob.page.boundary_count
        if n >= 2 and draw(st.booleans()):
            j, k = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            ob = stabilize_positive(ob, JoinBoundaries(j, k))
        else:
            ob = stabilize_positive(ob, SameBoundary(draw(st.integers(1, n))))
    return ob


@settings(max_examples=150)
@given(open_books())
def test_parse_serialize_round_trip(ob):
    text = serialize_openbook(ob)
    back = parse_openbook(text)
    assert back == ob
    assert serialize_openbook(back) == text
    assert AbstractOpenBook.from_dict(ob.to_dict()) == ob


def _book(g, n, word):
    return AbstractOpenBook.with_default_config(Surface(g, n), parse_word(word))


CERTIFICATES = [build_flexible_embedding(Surface(1, 2), 1),
                build_openbook_embedding(_book(1, 1, "t(a1) t(b1)^-2"), 3),
                build_annulus_s5(_book(0, 2, "t(d1)^3 t(d2)")),
                build_s5_plan(_book(0, 2, "t(d1)^2"))]


def _paths(obj, prefix=()):
    if prefix:
        yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


FIELDS = [(i, path) for i, cert in enumerate(CERTIFICATES) for path in _paths(cert)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


# the path () stands for the whole certificate
@settings(max_examples=400)
@given(st.sampled_from(FIELDS) | st.just((0, ())), json_values)
def test_validator_is_total_on_json_fields(field, value):
    index, path = field
    cert = copy.deepcopy(CERTIFICATES[index])
    if path:
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        cert = value
    if isinstance(cert, dict):
        assert isinstance(validate_certificate(cert), list)
    else:
        with pytest.raises(ValueError):
            validate_certificate(cert)


def _objects(fields):
    """Objects with any subset of the given keys, each a fitting or an arbitrary value."""
    return st.fixed_dictionaries({}, optional={key: values | json_values
                                               for key, values in fields.items()})


_names = st.sampled_from(["x", "d1"])
configs = _objects({
    "curves": st.lists(_objects({"name": _names, "kind": st.sampled_from(CURVE_KINDS),
                                 "class": st.lists(st.integers(-1, 1), max_size=3)})
                       | json_values, max_size=3),
    "arcs": st.lists(_objects({"index": st.integers(0, 3),
                               "intersections": st.dictionaries(
                                   _names, st.integers(-1, 1) | json_values, max_size=2)})
                     | json_values, max_size=2)})
books = _objects({"genus": st.integers(0, 2), "boundary": st.integers(0, 3),
                  "word": st.sampled_from(["", "t(x)", "t(d1)^2"]), "config": configs,
                  "label": st.text(max_size=3)})
groups = _objects({"free_rank": st.integers(-1, 2),
                   "torsion": st.lists(st.integers(-1, 6), max_size=3)})


@settings(max_examples=300)
@given(books | configs | groups | json_values,
       st.sampled_from([Surface(0, 2), Surface(1, 1)]))
@example({"genus": 0, "boundary": 2, "config": {"curves": [[1]]}}, Surface(0, 2))
@example({"torsion": []}, Surface(0, 2))
def test_json_loaders_raise_only_value_error(value, page):
    loaders = (AbstractOpenBook.from_dict, lambda v: config_from_dict(v, page),
               lambda v: load_config_override(json.dumps(v), page), AbelianGroup.from_dict)
    for load in loaders:
        try:
            load(value)
        except ValueError:
            pass
