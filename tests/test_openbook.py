"""Open book invariants, stabilization, and the text format.

Independent oracles frozen here:
- L(k,1) has pi_1 = Z/k, so its H1 is Z/k (abelianization).
- #m(S1xS2) has H1 = Z^m.
- For the (Sigma_{1,1}, t(a1) t(b1)) book, Phi - I = [[-1,-1],[1,0]]
  has determinant +1, so coker(Phi - I) = 0.
"""

import hashlib
import json
import os
import random
import tempfile
import tracemalloc
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obembed import (AbelianGroup, AbstractOpenBook, ConfiguredCurve, CurveConfig,
                     JoinBoundaries, OpenBookParseError, SameBoundary, Surface, TwistWord,
                     arc_defect, closed_h1, format_word, identify_known, lickorish_system,
                     load_config_override, mapping_torus_h1, parse_openbook, parse_word,
                     reduce_to_one_boundary, serialize_openbook,
                     stabilize_positive, word_action)
from obembed import surface as surface_module
from obembed import openbook
from obembed.openbook import core_twist_total, read_text
from obembed.surface import canonical_json, config_to_dict, is_default

from helpers import (book, dense, distinct_pair, fixed_length_book, override_book,
                     random_open_book, random_word, reduce_by_joins, sparse, stabilize_by_system)

trivial = AbelianGroup(0)


def test_page_must_have_boundary():
    with pytest.raises(ValueError):
        AbstractOpenBook.with_default_config(Surface(1, 0))


def test_word_letters_must_be_configured():
    with pytest.raises(ValueError, match="not a configured curve"):
        book(0, 1, "t(a1)")


def test_first_unconfigured_name_in_word_order_is_reported():
    # the check runs once per distinct name; repeats must not change which one it names
    with pytest.raises(ValueError, match="^monodromy letter 'zz' is not a configured curve$"):
        book(1, 1, "t(a1) t(zz)^2 t(a1) t(yy) t(zz) t(yy)^-1")
    with pytest.raises(OpenBookParseError, match="^line 4: monodromy letter 'yy' "):
        parse_openbook("openbook v1\ngenus 1\nboundary 1\n"
                       "word t(yy) t(b1) t(zz) t(yy) t(zz)\n")


# mapping torus

def test_mapping_torus_trivial_monodromies():
    assert mapping_torus_h1(book(0, 2)) == AbelianGroup(2)      # S1 x annulus
    assert mapping_torus_h1(book(0, 1)) == AbelianGroup(1)      # solid torus


def test_mapping_torus_trefoil_book():
    assert mapping_torus_h1(book(1, 1, "t(a1) t(b1)")) == AbelianGroup(1)


def test_mapping_torus_always_has_a_circle_factor():
    rng = random.Random(2)
    for _ in range(40):
        ob = random_open_book(rng)
        assert mapping_torus_h1(ob).free_rank >= 1


def test_mapping_torus_model_fields():
    from helpers import det_bareiss, mat_rows
    ob = book(1, 2, "t(a1) t(e1)^2")
    assert abs(det_bareiss(mat_rows(word_action(ob.word, ob.config)))) == 1
    assert len(arc_defect(ob.word, 1, ob.config)) == ob.page.h1_rank
    with pytest.raises(IndexError):  # one arc on a two-boundary page
        arc_defect(ob.word, 2, ob.config)


# closed manifold

def test_trivial_open_book_is_s3():
    ob = book(0, 1)
    assert closed_h1(ob) == trivial
    assert identify_known(ob) == "S3"


def test_lens_space_family():
    for k in range(0, 13):
        ob = book(0, 2, f"t(d1)^{k}" if k else "")
        got = closed_h1(ob)
        if k == 0:
            assert got == AbelianGroup(1)
        elif k == 1:
            assert got == trivial
        else:
            assert got == AbelianGroup(0, (k,))


def test_connected_sums():
    for m in range(1, 6):
        assert closed_h1(book(0, m + 1)) == AbelianGroup(m)


def test_trefoil_page_closed_h1():
    assert closed_h1(book(1, 1, "t(a1) t(b1)")) == trivial


def test_one_boundary_closed_h1_equals_cokernel():
    from obembed import IntMatrix, cokernel
    rng = random.Random(13)
    for _ in range(30):
        g = rng.randint(1, 3)
        page = Surface(g, 1)
        cfg = lickorish_system(page)
        w = random_word(rng, cfg, 8)
        ob = AbstractOpenBook(page, w, cfg)
        phi = word_action(w, cfg)
        rank = phi.rows
        rel = IntMatrix(rank, rank,
                        [[phi.entry(i, j) - (i == j) for j in range(rank)]
                         for i in range(rank)])
        assert closed_h1(ob) == cokernel(rel)


def test_closed_h1_equals_cokernel_of_the_phi_first_layout():
    # closed_h1 puts the defect columns first; the group of [Phi - I | delta] is the same
    from obembed import IntMatrix, cokernel
    rng = random.Random(43)
    for _ in range(80):
        page = Surface(rng.randint(0, 3), rng.randint(2, 4))
        cfg = lickorish_system(page)
        ob = AbstractOpenBook(page, random_word(rng, cfg, 16), cfg)
        action = word_action(ob.word, cfg, arcs=True)
        rel = IntMatrix(action.rows, action.cols,
                        [[x - (i == j) for j, x in enumerate(action.row(i))]
                         for i in range(action.rows)])
        assert closed_h1(ob) == cokernel(rel)


def test_torsion_order_equals_det_when_finite():
    from math import prod
    from helpers import det_bareiss, mat_rows
    from obembed import IntMatrix
    rng = random.Random(29)
    found = 0
    for _ in range(200):
        ob = random_open_book(rng, max_genus=2, max_boundary=1, max_len=8)
        phi = word_action(ob.word, ob.config)
        rank = phi.rows
        rel = [[phi.entry(i, j) - (i == j) for j in range(rank)] for i in range(rank)]
        det = det_bareiss(rel)
        if det == 0:
            continue
        found += 1
        h = closed_h1(ob)
        assert h.free_rank == 0
        assert (prod(h.torsion) if h.torsion else 1) == abs(det)
    assert found > 20


def test_conjugation_invariance():
    rng = random.Random(37)
    for _ in range(60):
        ob = random_open_book(rng, max_genus=2, max_boundary=3, max_len=8)
        psi = random_word(rng, ob.config, 5)
        conj = psi.concat(ob.word).concat(psi.inverse())
        other = AbstractOpenBook(ob.page, conj, ob.config)
        assert closed_h1(other) == closed_h1(ob)


# Oracles at rank 100-120, sharing no code with cokernel: local ranks mod
# small primes, the determinant, and invariance under stabilization and
# conjugation.  The words are long enough that Phi - I has full rank.

def relation_rows(ob):
    """Phi - I and one defect column per arc, built from the word action alone."""
    phi = word_action(ob.word, ob.config)
    defects = [arc_defect(ob.word, i, ob.config) for i in range(1, ob.page.boundary_count)]
    rows = [list(phi.row(i)) + [d[i] for d in defects] for i in range(phi.rows)]
    for i in range(phi.rows):
        rows[i][i] -= 1
    return rows


@pytest.mark.parametrize("g, n", [(50, 4), (60, 1)])
def test_closed_h1_local_ranks_mod_p_at_rank_100_plus(g, n):
    # Z^f + sum Z/d_i tensored with F_p has dimension f + #{d_i : p | d_i},
    # which is also rows - rank_Fp of the relation matrix.
    from helpers import rank_mod_p
    ob = fixed_length_book(g, n, 2000, 1000 * g + n)
    rows = relation_rows(ob)
    assert 100 <= len(rows) <= 120
    h = closed_h1(ob)
    assert h.torsion
    for p in (2, 3, 5, 7):
        local = h.free_rank + sum(1 for d in h.torsion if d % p == 0)
        assert local == len(rows) - rank_mod_p(rows, p), p


@pytest.mark.parametrize("g, length", [(50, 1500), (60, 2000)])
def test_torsion_order_equals_det_at_rank_100_plus(g, length):
    from math import prod
    from helpers import det_bareiss
    ob = fixed_length_book(g, 1, length, 1000 * g + 1)
    det = det_bareiss(relation_rows(ob))
    assert det != 0
    h = closed_h1(ob)
    assert h.free_rank == 0
    assert prod(h.torsion) == abs(det)


def test_closed_h1_invariance_at_rank_100_plus():
    ob = fixed_length_book(50, 3, 1500, 50003)
    assert ob.page.h1_rank == 102
    h = closed_h1(ob)
    assert len(h.torsion) > 5
    rng = random.Random(59)
    psi = random_word(rng, ob.config, 100)
    conj = AbstractOpenBook(ob.page, psi.concat(ob.word).concat(psi.inverse()), ob.config)
    for other in (stabilize_positive(ob, SameBoundary(2)),
                  stabilize_positive(ob, JoinBoundaries(1, 3)),
                  conj):
        assert closed_h1(other) == h


# identify

def test_identify_catalog():
    assert identify_known(book(0, 2, "t(d1)^5")) == "L(5,1)"
    assert identify_known(book(0, 2, "t(d1)")) == "S3"
    assert identify_known(book(0, 2, "t(d1)^-1")) == "S3"
    assert identify_known(book(0, 2, "t(d2)^2")) == "L(2,1)"   # d2 is the same core
    assert identify_known(book(0, 2)) == "S1xS2"
    assert identify_known(book(0, 3)) == "#2(S1xS2)"
    assert identify_known(book(0, 4)) == "#3(S1xS2)"


def test_identify_stays_conservative():
    rng = random.Random(41)
    cfg = lickorish_system(Surface(2, 1))
    w = random_word(rng, cfg, 6)
    assert identify_known(AbstractOpenBook(Surface(2, 1), w, cfg)) is None
    # mirror lens spaces are not in the catalog
    assert identify_known(book(0, 2, "t(d1)^-4")) is None
    # nonempty words block the connected-sum match
    assert identify_known(book(0, 3, "t(d1)")) is None


def test_identify_rejects_null_class_annulus_letters():
    # the core-twist rule rejects a letter along a null class, as the
    # annulus certificate builder does
    from obembed import ConfiguredCurve, CurveConfig
    page = Surface(0, 2)
    cfg = CurveConfig(page, [ConfiguredCurve("d1", "boundary_parallel", ((0, 1),)),
                             ConfiguredCurve("z", "boundary_parallel", ())])
    assert identify_known(AbstractOpenBook(page, parse_word("t(d1)^3"), cfg)) == "L(3,1)"
    assert identify_known(AbstractOpenBook(page, parse_word("t(d1)^3 t(z)"), cfg)) is None


def test_core_twists_are_the_letters_of_class_plus_or_minus_d1():
    # the annulus has rank 1, so a support is () or ((0, a),)
    page = Surface(0, 2)
    for support in [()] + [((0, a),) for a in range(-5, 6) if a]:
        cfg = CurveConfig(page, [ConfiguredCurve("x", "boundary_parallel", support)])
        ob = AbstractOpenBook(page, parse_word("t(x)^3 t(x)^-1"), cfg)
        if support in (((0, 1),), ((0, -1),)):
            assert core_twist_total(ob) == 2
        else:
            with pytest.raises(ValueError, match="letter 'x' is not a core"):
                core_twist_total(ob)


# stabilization

def test_stabilize_disk_gives_hopf_band_book():
    st = stabilize_positive(book(0, 1), SameBoundary(1))
    assert st.page == Surface(0, 2)
    assert format_word(st.word) == "t(d1)"
    assert st.config is lickorish_system(st.page)
    assert closed_h1(st) == trivial
    assert identify_known(st) == "S3"


def test_stabilize_annulus_join_gives_genus_one():
    for k in (0, 1, 3, 5):
        ob = book(0, 2, f"t(d1)^{k}" if k else "")
        st = stabilize_positive(ob, JoinBoundaries(1, 2))
        assert st.page == Surface(1, 1)
        assert closed_h1(st) == closed_h1(ob)
    st = stabilize_positive(book(0, 2, "t(d1)^3"), JoinBoundaries(1, 2))
    assert format_word(st.word) == "t(a1) t(b1)^3"


def test_stabilize_same_boundary_splits_component():
    ob = book(0, 2, "t(d1)^2")
    st = stabilize_positive(ob, SameBoundary(1))
    assert st.page == Surface(0, 3)
    assert closed_h1(st) == AbelianGroup(0, (2,))
    # the new word has the fresh positive twist in front
    assert len(st.word) == len(ob.word) + 1
    assert st.word.letters[0][1] == 1


def test_stabilize_disk_with_attached_config():
    # the disk has rank 0: its classes push to the zero class of the annulus
    ob = parse_openbook("openbook v1\ngenus 0\nboundary 1\nword t(x)^3\n"
                        'config {"curves":[{"name":"x","kind":"handle_a","class":[]}]}\n')
    st = stabilize_positive(ob, SameBoundary(1))
    assert st.page == Surface(0, 2)
    assert st.config.curve("x").support == ()
    assert closed_h1(st) == closed_h1(ob) == trivial


def test_stabilize_bad_indices():
    ob = book(1, 2)
    with pytest.raises(ValueError):
        stabilize_positive(ob, SameBoundary(3))
    with pytest.raises(ValueError):
        stabilize_positive(ob, JoinBoundaries(2, 2))
    with pytest.raises(ValueError):
        stabilize_positive(ob, JoinBoundaries(1, 5))
    # indices are ints, not bools or floats, checked when the attachment is built
    for attachment, indices in ((SameBoundary, (1.5,)), (SameBoundary, (True,)),
                                (JoinBoundaries, (1.0, 2)), (JoinBoundaries, (1, False))):
        with pytest.raises(ValueError, match="integer"):
            attachment(*indices)


def test_stabilize_euler_characteristic_drops_by_one():
    rng = random.Random(43)
    for _ in range(40):
        ob = random_open_book(rng)
        n = ob.page.boundary_count
        st = stabilize_positive(ob, SameBoundary(rng.randint(1, n)))
        assert st.page.euler_characteristic == ob.page.euler_characteristic - 1
        if n >= 2:
            j, k = distinct_pair(rng, n)
            st = stabilize_positive(ob, JoinBoundaries(j, k))
            assert st.page.euler_characteristic == ob.page.euler_characteristic - 1


def test_stabilize_preserves_closed_h1_fuzz():
    rng = random.Random(47)
    for _ in range(100):
        ob = random_open_book(rng)
        h = closed_h1(ob)
        n = ob.page.boundary_count
        st = stabilize_positive(ob, SameBoundary(rng.randint(1, n)))
        assert closed_h1(st) == h
        if n >= 2:
            j, k = distinct_pair(rng, n)
            st = stabilize_positive(ob, JoinBoundaries(j, k))
            assert closed_h1(st) == h


def test_stacked_stabilizations_preserve_h1():
    rng = random.Random(53)
    for _ in range(25):
        ob = random_open_book(rng, max_genus=2, max_boundary=2, max_len=6)
        h = closed_h1(ob)
        for _ in range(3):
            n = ob.page.boundary_count
            if n >= 2 and rng.random() < 0.5:
                j, k = distinct_pair(rng, n)
                ob = stabilize_positive(ob, JoinBoundaries(j, k))
            else:
                ob = stabilize_positive(ob, SameBoundary(rng.randint(1, n)))
            assert closed_h1(ob) == h


def test_reduce_to_one_boundary():
    ob = book(2, 1, "t(a1)")
    assert reduce_to_one_boundary(ob) is ob   # nothing to do at n = 1

    for k in (0, 2, 7):
        ob = book(0, 2, f"t(d1)^{k}" if k else "")
        red = reduce_to_one_boundary(ob)
        assert red.page.boundary_count == 1
        assert closed_h1(red) == closed_h1(ob)

    ob = book(0, 3)
    red = reduce_to_one_boundary(ob)
    assert red.page.boundary_count == 1
    assert closed_h1(red) == AbelianGroup(2)


# one-pass reduction against one stabilization per join

@st.composite
def stabilized_books(draw):
    """Books on default, override, arbitrary and attached configurations.

    Arbitrary classes are what a config line may carry; attached
    configurations come from stabilizations.
    """
    page = Surface(draw(st.integers(0, 2)), draw(st.integers(1, 6)))
    cfg = lickorish_system(page)
    if draw(st.booleans()):
        row = st.lists(st.integers(-1, 1), min_size=page.h1_rank, max_size=page.h1_rank)
        cfg = CurveConfig(page, [ConfiguredCurve(f"x{i}", "chain", sparse(c)) for i, c in
                                 enumerate(draw(st.lists(row, min_size=1, max_size=4)))])
    letters = draw(st.lists(st.tuples(st.sampled_from(cfg.names()), st.integers(-2, 2)),
                            max_size=8)) if len(cfg) else []
    ob = AbstractOpenBook(page, TwistWord(letters), cfg)
    if cfg == lickorish_system(page) and draw(st.booleans()):
        ob = override_book(ob, numbered=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        n = ob.page.boundary_count
        if n >= 2 and draw(st.booleans()):
            j, k = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            attachment = JoinBoundaries(j, k)
        else:
            attachment = SameBoundary(draw(st.integers(1, n)))
        ob = stabilize_positive(ob, attachment)
    return ob


@settings(max_examples=300)
@given(stabilized_books(), st.data())
def test_stabilize_and_reduce_match_the_dense_oracles(ob, data):
    n = ob.page.boundary_count
    attachment = data.draw(st.sampled_from(
        [SameBoundary(j) for j in range(1, n + 1)]
        + [JoinBoundaries(j, k) for j in range(1, n + 1) for k in range(1, n + 1) if j != k]))
    assert stabilize_positive(ob, attachment) == stabilize_by_system(ob, attachment)
    reduced, _ = reduce_by_joins(ob)
    assert reduce_to_one_boundary(ob) == reduced


def test_reduction_canonicalizes_at_some_joins_and_not_others():
    # classes D1 and -D1 on the attached Sigma_{0,5} book: no default curve has -D1
    # until Sigma_{2,3}, where it is e2
    ob = book(0, 3, "t(d1) t(e2)^3")
    ob = stabilize_positive(stabilize_positive(ob, SameBoundary(3)), SameBoundary(4))
    reduced, steps = reduce_by_joins(ob)
    assert steps == [False, True, True, False]
    assert reduce_to_one_boundary(ob) == reduced
    # D1 + D2 + D3 is no default class on Sigma_{0,5}, but minus d4 on Sigma_{1,4}: the
    # next join keeps d4's class, not the class the book came with
    page = Surface(0, 5)
    ob = AbstractOpenBook(page, parse_word("t(x)^2"), CurveConfig(
        page, [ConfiguredCurve("x", "boundary_pair", ((0, 1), (1, 1), (2, 1)))]))
    reduced, steps = reduce_by_joins(ob)
    assert steps == [True, False, False, False]
    assert reduce_to_one_boundary(ob) == reduced
    assert reduced.config.curve("d4").support == ((3, -1), (5, -1), (7, -1))
    assert reduced.page.h1_rank == 8
    # a base curve mixes handle and D coordinates at the first join, and never matches again
    ob = fixed_length_book(1, 4, 12, 3)
    reduced, steps = reduce_by_joins(ob)
    assert not any(steps) and "t(d4)" in format_word(ob.word)
    assert reduce_to_one_boundary(ob) == reduced


def test_reduction_fresh_names_skip_override_names():
    # the seven default curves of Sigma_{1,3}, a1 b1 d1 d2 d3 e1 e2, renamed s1..s7
    ob = override_book(book(1, 3, "t(d1)^2 t(d3) t(d2)^-1 t(a1) t(e1)"), numbered=True)
    assert format_word(ob.word) == "t(s3)^2 t(s5) t(s4)^-1 t(s1) t(s6)"
    reduced = reduce_to_one_boundary(ob)
    assert reduced == reduce_by_joins(ob)[0]
    assert reduced.page == Surface(3, 1)
    assert format_word(reduced.word) == "t(s7) t(s2) t(s3)^2 t(s5) t(s4)^-1 t(s1) t(s6)"
    assert reduced.config.names() == ("s7", "s2", "s3", "s5", "s4", "s1", "s6")


def test_reduction_builds_at_most_the_final_system(monkeypatch):
    ob = fixed_length_book(2, 40, 200, 1)
    table, calls = surface_module._default_table, []
    monkeypatch.setattr(surface_module, "_default_table",
                        lambda page: calls.append(page) or table(page))
    reduced = reduce_to_one_boundary(ob)
    assert len(calls) <= 1 and set(calls) <= {Surface(41, 1)}
    assert reduced.page == Surface(41, 1)


# text format

def test_parse_serialize_round_trip():
    ob = book(1, 2, "t(a1) t(e1)^-2")
    text = serialize_openbook(ob)
    assert text == "openbook v1\ngenus 1\nboundary 2\nword t(a1) t(e1)^-2\n"
    back = parse_openbook(text)
    assert back.page == ob.page
    assert back.word == ob.word
    assert serialize_openbook(back) == text
    # a user configuration is written out unless it equals the page's default system
    page = Surface(1, 1)
    for curves, line in (('[{"name": "x", "kind": "handle_a", "class": [1, 0]}]',
                          'config {"curves":[{"class":[1,0],"kind":"handle_a","name":"x"}]}\n'),
                         (json.dumps(config_to_dict(lickorish_system(page))["curves"]), "")):
        cfg = load_config_override(f'{{"curves": {curves}}}', page)
        ob = AbstractOpenBook(page, TwistWord(), cfg)
        text = serialize_openbook(ob)
        assert text == "openbook v1\ngenus 1\nboundary 1\nword\n" + line
        assert parse_openbook(text) == ob == AbstractOpenBook.from_dict(ob.to_dict())
    # a config line equal to the default system reads as the default: it is not written back
    line = canonical_json(config_to_dict(lickorish_system(page)))
    back = parse_openbook(f"openbook v1\ngenus 1\nboundary 1\nword t(b1)\nconfig {line}\n")
    assert is_default(back.config) and back.config is not lickorish_system(page)
    assert serialize_openbook(back) == "openbook v1\ngenus 1\nboundary 1\nword t(b1)\n"


def test_serialize_empty_word():
    assert serialize_openbook(book(0, 1)) == "openbook v1\ngenus 0\nboundary 1\nword\n"


def test_parse_errors_carry_line_numbers():
    cases = [
        ("nope\n", 1),
        ("openbook v1\ngenus x\nboundary 1\nword\n", 2),
        ("openbook v1\ngenus 0\nboundary 0\nword\n", 3),
        ("openbook v1\ngenus 0\nboundary 1\nword t(\n", 4),
        ("openbook v1\ngenus 0\nboundary 1\nword\njunk\n", 5),
    ]
    for text, line in cases:
        with pytest.raises(OpenBookParseError) as exc:
            parse_openbook(text)
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)


# structural errors of the text format, each at its own line
STRUCTURE_ERRORS = [
    ("openbook v1\ngenus 0\nboundary 1\n", 4, "missing 'word' line"),
    ("openbook v1\ngenera 0\nboundary 1\nword\n", 2, "expected 'genus' line, got 'genera 0'"),
    ("openbook v1\ngenus 0\nboundary 1\nword t(x)\n"
     'config {"curves":[{"name":"x","kind":"handle_a","class":[]}]}\n'
     'config {"curves":[{"name":"x","kind":"handle_a","class":[]}]}\n', 6,
     "duplicate config line"),
]


@pytest.mark.parametrize("text, line, message", STRUCTURE_ERRORS)
def test_parse_reports_structure_errors(text, line, message):
    with pytest.raises(OpenBookParseError) as exc:
        parse_openbook(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_config_of_another_surface_is_rejected():
    with pytest.raises(ValueError, match="^configuration belongs to a different surface$"):
        AbstractOpenBook(Surface(1, 1), TwistWord(), lickorish_system(Surface(1, 2)))


def test_stabilize_rejects_an_unknown_attachment():
    with pytest.raises(TypeError, match="^unknown attachment"):
        stabilize_positive(book(0, 2, "t(d1)"), (1, 2))


def test_attached_config_round_trips_through_text():
    # force a non-canonical stabilization by using a word whose letters
    # cannot all match default classes after pushforward
    ob = book(1, 3, "t(d1) t(d2) t(e1) t(a1)")
    st = stabilize_positive(ob, SameBoundary(1))
    h = closed_h1(st)
    text = serialize_openbook(st)
    back = parse_openbook(text)
    assert closed_h1(back) == h
    assert serialize_openbook(back) == text


def test_labels_survive_dict_round_trip():
    ob = book(0, 2, "t(d1)^5", label="lens")
    back = AbstractOpenBook.from_dict(ob.to_dict())
    assert back.label == "lens"
    assert back.word == ob.word


def attached(curves_json, word):
    return ("openbook v1\ngenus 0\nboundary 2\nword " + word + "\n"
            "config {\"curves\":[" + curves_json + "]}\n")


def test_attached_config_rejects_duplicate_names():
    text = attached('{"name":"x","kind":"boundary_parallel","class":[1]},'
                    '{"name":"x","kind":"boundary_parallel","class":[0]}', "t(x)^3")
    with pytest.raises(OpenBookParseError, match="duplicate curve name") as exc:
        parse_openbook(text)
    assert exc.value.line == 5


def test_attached_config_rejects_wrong_dimension():
    text = attached('{"name":"x","kind":"boundary_parallel","class":[1,0]}', "t(x)^3")
    for _ in range(2):  # a bad line is read again, and raises again
        with pytest.raises(OpenBookParseError, match="dimension") as exc:
            parse_openbook(text)
        assert exc.value.line == 5
    text = attached('{"name":"x","kind":"boundary_parallel","class":[1]}', "t(x)^3")
    good = parse_openbook(text)
    assert closed_h1(good) == AbelianGroup(0, (3,))
    assert parse_openbook(text).config is good.config  # a good line is read once


def test_from_dict_requires_integer_fields():
    for bad in ({"genus": 1.5, "boundary": 1}, {"genus": True, "boundary": 1},
                {"genus": 0, "boundary": "2"}, {"genus": 0, "boundary": 2, "word": None},
                {"genus": 0}, [0, 2], {"genus": 0, "boundary": 2, "config": {"curves": [[1]]}},
                {"genus": 0, "boundary": 2, "config": {"curves": [{"name": "x"}]}}):
        with pytest.raises(ValueError):
            AbstractOpenBook.from_dict(bad)


@pytest.mark.parametrize("config", [{}, 0, False, None, [], ""])
def test_from_dict_reads_any_present_config(config):
    # only an absent config means the page's default system
    with pytest.raises(ValueError, match="configuration needs a list of curves"):
        AbstractOpenBook.from_dict({"genus": 0, "boundary": 2, "word": "t(d1)",
                                    "config": config})
    default = AbstractOpenBook.from_dict({"genus": 0, "boundary": 2, "word": "t(d1)"})
    assert default == book(0, 2, "t(d1)")


@pytest.mark.parametrize("make", [
    lambda: CurveConfig(Surface(1, 2), [1]),
    lambda: CurveConfig(Surface(1, 2), 5),
    lambda: CurveConfig(None, []),
    lambda: CurveConfig((1, 2), lickorish_system(Surface(1, 2)).curves),
    lambda: AbstractOpenBook(Surface(0, 2), "x", lickorish_system(Surface(0, 2))),
    lambda: AbstractOpenBook(Surface(0, 2), TwistWord(), None),
    lambda: AbstractOpenBook(Surface(0, 2), (("d1", 1),), lickorish_system(Surface(0, 2))),
    lambda: AbstractOpenBook(None, TwistWord(), lickorish_system(Surface(0, 2))),
], ids=["curve_int", "curves_int", "surface_none", "surface_tuple", "word_str",
        "config_none", "word_tuple", "page_none"])
def test_constructors_raise_one_value_error_on_wrong_types(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("label", [7, True, ["lens"], {"name": "lens"}, b"lens"])
def test_label_must_be_a_string(label):
    page = Surface(0, 2)
    with pytest.raises(ValueError, match="label must be a string"):
        AbstractOpenBook(page, parse_word("t(d1)^5"), lickorish_system(page), label)
    with pytest.raises(ValueError, match="label must be a string"):
        AbstractOpenBook.from_dict({"genus": 0, "boundary": 2, "word": "t(d1)^5",
                                    "label": label})
    assert AbstractOpenBook.from_dict({"genus": 0, "boundary": 2, "label": "lens"}).label == "lens"


def test_attached_config_classes_must_be_integers():
    for cls in ('"10"', "[1.7]", "[true]", "10", '"0001"'):
        text = attached('{"name":"x","kind":"boundary_parallel","class":' + cls + '}',
                        "t(x)^3")
        with pytest.raises(OpenBookParseError, match="list of integers") as exc:
            parse_openbook(text)
        assert exc.value.line == 5
        config = {"curves": [{"name": "x", "kind": "boundary_parallel",
                              "class": json.loads(cls)}]}
        with pytest.raises(ValueError, match="list of integers"):
            AbstractOpenBook.from_dict({"genus": 0, "boundary": 2, "word": "t(x)^3",
                                        "config": config})


# parse_openbook reads every config line through one table per process (openbook._configs),
# keyed by (page, line text), which keeps only lines read well and at most
# openbook._CONFIG_LINE_LIMIT characters long, and is emptied when full.

def _config_line(page, names):
    """A config line of one curve per name, each class 1 at every index."""
    return canonical_json({"curves": [{"name": name, "kind": "chain",
                                       "class": [1] * page.h1_rank} for name in names]})


def _config_book(page, line, word=""):
    return (f"openbook v1\ngenus {page.genus}\nboundary {page.boundary_count}\nword {word}\n"
            f"config {line}\n")


def test_config_line_is_read_once_with_its_twist_tables():
    page = Surface(1, 2)
    line = _config_line(page, ["x", "y"])
    text = _config_book(page, line, "t(x)^2 t(y)^-1")
    openbook._configs.clear()
    first = parse_openbook(text)
    h1 = closed_h1(first)  # builds the twist tables of x and y
    assert first.config._twists.keys() == {"x", "y"}
    again = parse_openbook(text)
    assert again.config is first.config and again == first
    assert list(openbook._configs) == [(page, line)]
    assert closed_h1(again) == h1 == closed_h1(AbstractOpenBook.from_dict(first.to_dict()))


def test_bad_config_line_raises_every_time_and_is_never_kept():
    page = Surface(1, 2)
    good = _config_line(page, ["x"])
    openbook._configs.clear()
    for line, message in ((good[:-1], "Expecting ',' delimiter"),
                          (good.replace("[1,", "[true,"), "curve x: class must be a list"),
                          (_config_line(Surface(2, 1), ["x"]), "curve x: class has dimension 4")):
        for _ in range(3):
            with pytest.raises(OpenBookParseError,
                               match=f"^line 5: bad config payload: {message}"):
                parse_openbook(_config_book(page, line))
            assert not openbook._configs


def test_long_config_line_is_read_every_time_and_never_kept():
    page = Surface(0, 2)
    name = "x" * openbook._CONFIG_LINE_LIMIT
    line = _config_line(page, [name])
    assert len(line) > openbook._CONFIG_LINE_LIMIT
    openbook._configs.clear()
    books = [parse_openbook(_config_book(page, line)) for _ in range(2)]
    assert books[0] == books[1] and books[0].config is not books[1].config
    assert books[0].config.names() == (name,)
    assert not openbook._configs


def test_same_line_on_two_pages_of_one_rank_gives_each_page_its_own():
    # index 15 is B8 on Sigma_{8,1} and D2 on Sigma_{7,3}: one class, two twists
    line = canonical_json({"curves": [{"name": "x", "kind": "chain",
                                       "class": [0] * 15 + [1]}]})
    openbook._configs.clear()
    handle, boundary = (parse_openbook(_config_book(page, line, "t(x)^3"))
                        for page in (Surface(8, 1), Surface(7, 3)))
    assert handle.config.surface == Surface(8, 1) and boundary.config.surface == Surface(7, 3)
    assert handle.config.twist("x")[1:3] == (((14, 1),), None)
    assert boundary.config.twist("x")[1:3] == ((), ((17, 1),))  # <r_2, x> at column 16 + 1
    assert len(openbook._configs) == 2
    for ob in (handle, boundary):
        assert parse_openbook(serialize_openbook(ob)).config is ob.config


def test_full_config_table_is_emptied():
    page = Surface(0, 3)
    lines = [_config_line(page, [f"x{i}"]) for i in range(openbook._CONFIG_TABLE_SIZE + 1)]
    openbook._configs.clear()
    kept = [parse_openbook(_config_book(page, line)).config for line in lines[:-1]]
    assert len(openbook._configs) == openbook._CONFIG_TABLE_SIZE
    assert parse_openbook(_config_book(page, lines[0])).config is kept[0]  # a hit adds nothing
    last = parse_openbook(_config_book(page, lines[-1])).config
    assert list(openbook._configs.values()) == [last]
    assert parse_openbook(_config_book(page, lines[0])).config is not kept[0]


def test_config_table_holds_at_most_4_mb():
    # the densest lines within the limit: two all-ones classes at rank 1000, twists built
    page = Surface(0, 1001)
    lines = [_config_line(page, [f"x{i:02d}", f"y{i:02d}"])
             for i in range(2 * openbook._CONFIG_TABLE_SIZE + 3)]
    assert all(len(line) <= openbook._CONFIG_LINE_LIMIT for line in lines)
    openbook._configs.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for line in lines:
            cfg = parse_openbook(_config_book(page, line)).config
            for name in cfg.names():
                cfg.twist(name)
        del cfg
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0 < len(openbook._configs) <= openbook._CONFIG_TABLE_SIZE
    assert held < 4_000_000


# stabilization pins: the page conventions written out independently

def _attachments(n):
    return ([SameBoundary(j) for j in range(1, n + 1)]
            + [JoinBoundaries(j, k) for j in range(1, n + 1) for k in range(1, n + 1)
               if j != k])


def _stabilization_texts():
    rng = random.Random(61)
    for g in range(4):
        for n in range(1, 6):
            cfg = lickorish_system(Surface(g, n))
            for _ in range(2):
                ob = AbstractOpenBook(Surface(g, n), random_word(rng, cfg, 6), cfg)
                yield serialize_openbook(reduce_to_one_boundary(ob))
                for first in _attachments(n):
                    once = stabilize_positive(ob, first)
                    yield serialize_openbook(once)
                    for second in _attachments(once.page.boundary_count):
                        yield serialize_openbook(stabilize_positive(once, second))
                    yield serialize_openbook(reduce_to_one_boundary(once))


def test_stabilization_outputs_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for text in _stabilization_texts():
        digest.update(text.encode())
        count += 1
    assert count == 7352
    assert digest.hexdigest() == ("b6712692252c47099001d427633f504f"
                                  "925a69646295264850ba579b4e948ada")


def _boundary(g, n, m):
    """Class of boundary component m of Sigma_{g,n}; the base is -(D1+...+D_{n-1})."""
    rank = 2 * g + n - 1
    if m < n:
        return tuple(int(i == 2 * g + m - 1) for i in range(rank))
    return tuple(-int(i >= 2 * g) for i in range(rank))


def _pair(g, x, y):
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(g))


def _pushforward(g, n, attachment, classes):
    """Stabilize a book whose curves carry the given classes; returns
    (new page, fresh class, images of the classes)."""
    rank = 2 * g + n - 1
    # the doubled class matches no default class, so no renaming happens;
    # on the disk z is the zero class, which the annulus' system lacks too
    curves = [ConfiguredCurve(f"x{i}", "chain", sparse(c)) for i, c in enumerate(classes)]
    curves.append(ConfiguredCurve("z", "chain", ((0, 2),) if rank else ()))
    word = TwistWord(tuple((c.name, 1) for c in curves))
    ob = AbstractOpenBook(Surface(g, n), word, CurveConfig(Surface(g, n), curves))
    st = stabilize_positive(ob, attachment)
    classes = [dense(st.page, st.config.curve(name).support) for name, _ in st.word.letters]
    return st.page, classes[0], classes[1:-1]


def test_stabilization_preserves_the_pairing():
    for g in range(5):
        for n in range(1, 7):
            rank = 2 * g + n - 1
            units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
            for att in _attachments(n):
                page, _, images = _pushforward(g, n, att, units)
                for x, ix in zip(units, images):
                    for y, iy in zip(units, images):
                        assert _pair(page.genus, ix, iy) == _pair(g, x, y), (g, n, att)


def test_stabilization_rule_on_boundary_classes():
    for g in range(5):
        for n in range(1, 7):
            bounds = [_boundary(g, n, m) for m in range(1, n + 1)]
            for att in _attachments(n):
                page, fresh, images = _pushforward(g, n, att, bounds)
                g2, n2 = page.genus, page.boundary_count
                new = [None] + [_boundary(g2, n2, m) for m in range(1, n2 + 1)]
                if isinstance(att, SameBoundary):
                    # the split-off piece is the new last puncture n; the
                    # base stays the base
                    assert fresh == new[n]
                    want = dict(enumerate(new[1:n], start=1))
                    want[n] = new[n + 1]
                    want[att.j] = tuple(a + b for a, b in zip(want[att.j], fresh))
                else:
                    j, k = sorted((att.j, att.k))
                    b = tuple(int(i == 2 * g + 1) for i in range(2 * g2 + n2 - 1))
                    assert fresh == tuple(int(i == 2 * g) for i in range(len(b)))
                    others = [m for m in range(1, n + 1) if m not in (j, k)]
                    want = {m: new[i] for i, m in enumerate(others, start=1)}
                    want[j] = b
                    want[k] = tuple(x - y for x, y in zip(new[n2], b))
                assert images == [want[m] for m in range(1, n + 1)], (g, n, att)


def test_stabilization_push_is_additive():
    # with the handle classes fixed and the rule on boundary classes above,
    # additivity pins the whole map
    rng = random.Random(67)
    for g in range(4):
        for n in range(1, 6):
            rank = 2 * g + n - 1
            handles = [tuple(int(i == j) for i in range(rank)) for j in range(2 * g)]
            xs = [tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(4)]
            sums = [tuple(map(add, x, y)) for x, y in zip(xs, xs[1:])]
            for att in _attachments(n):
                _, _, images = _pushforward(g, n, att, handles + xs + sums)
                # both attachments raise the rank by one and fix the handle classes
                for j in range(2 * g):
                    assert images[j] == handles[j] + (0,), (g, n, att)
                pushed = images[2 * g:]
                for i in range(3):
                    assert pushed[4 + i] == tuple(map(add, pushed[i], pushed[i + 1])), (g, n, att)


def test_oversized_pages_are_rejected_before_anything_is_built():
    with pytest.raises(OpenBookParseError) as info:
        parse_openbook("openbook v1\ngenus 100000000\nboundary 1\nword\n")
    assert info.value.line == 3
    with pytest.raises(ValueError, match="exceeds the limit"):
        AbstractOpenBook.from_dict({"genus": 0, "boundary": 10 ** 12, "word": ""})


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=40),
                 st.text(alphabet="\r\n\x0b\x85  abé", max_size=40).map(str.encode)))
def test_read_text_matches_a_text_mode_read(data):
    # the bytes read, decoded once, gives what open(..., encoding="utf-8").read() gives,
    # universal newlines and decode errors included
    fd, path = tempfile.mkstemp()
    try:
        os.write(fd, data)
        os.close(fd)
        try:
            with open(path, encoding="utf-8") as fh:
                want = fh.read()
        except UnicodeDecodeError as exc:
            want = str(exc)
        try:
            got = read_text(path)
        except UnicodeDecodeError as exc:
            got = str(exc)
        assert got == want
    finally:
        os.unlink(path)
