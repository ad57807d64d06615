"""Hypothesis property tests of the text format and the validator.

- Any open book, including the attached configurations that
  stabilization produces, survives serialize -> parse unchanged.
- ``validate_certificate`` is total: with any JSON value set at any
  field of a valid certificate it returns a list of violations; it
  raises ValueError only for a non-object or an unknown ``kind``.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from obembed import (AbstractOpenBook, JoinBoundaries, SameBoundary, Surface, TwistWord,
                     lickorish_system, parse_openbook, parse_word, serialize_openbook,
                     stabilize_positive)
from obembed.embedder import (build_annulus_s5, build_flexible_embedding,
                              build_openbook_embedding, build_s5_plan, validate_certificate)


@st.composite
def open_books(draw):
    page = Surface(draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    cfg, _ = lickorish_system(page)
    letters = draw(st.lists(st.tuples(st.sampled_from(cfg.names()), st.integers(-3, 3)),
                            max_size=8)) if len(cfg) else []
    ob = AbstractOpenBook(page, TwistWord(tuple(letters)), cfg)
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
KINDS = [cert["kind"] for cert in CERTIFICATES]

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
    try:
        assert isinstance(validate_certificate(cert), list)
    except ValueError:
        assert not isinstance(cert, dict) or cert.get("kind") not in KINDS
