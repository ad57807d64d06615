"""Twist word tests.

Frozen 2x2 values, derived by hand from the transvection rule
x -> x + e<x,c>c in the basis (A1, B1) with <A1,B1> = 1:

    T_a1 = [[1,-1],[0,1]]   (B1 -> B1 - A1)
    T_b1 = [[1,0],[1,1]]    (A1 -> A1 + B1)
    T_a1 * T_b1 = [[0,-1],[1,1]]   so A1 -> B1, B1 -> B1 - A1.
"""

import random

import pytest

from obembed import (AbstractOpenBook, IntMatrix, Surface, TwistWord, WordSyntaxError,
                     arc_defect, format_word, lickorish_system, parse_word,
                     relation_report, twist_matrix, word_action)

from helpers import det_bareiss, mat_rows, pairing_matrix, random_word

T_A1 = IntMatrix.from_rows([[1, -1], [0, 1]])
T_B1 = IntMatrix.from_rows([[1, 0], [1, 1]])


def setup_surface(g, n):
    page = Surface(g, n)
    return lickorish_system(page), page


def test_parse_and_format_round_trip():
    w = parse_word("t(a1) t(b1)^-1 t(e1)^3")
    assert w.letters == (("a1", 1), ("b1", -1), ("e1", 3))
    assert format_word(w) == "t(a1) t(b1)^-1 t(e1)^3"
    assert parse_word(format_word(w)) == w


def test_parse_empty_word():
    assert parse_word("").is_empty()
    assert format_word(TwistWord()) == ""


def test_parse_rejects_garbage():
    for bad in ("a1", "t(a1", "t(a1)^", "t(a1)^x", "t()", "t(a1)t(b1)"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


def test_zero_exponents_dropped():
    w = TwistWord((("a1", 0), ("b1", 2)))
    assert w.letters == (("b1", 2),)


def test_radical_class_twists_trivially_on_h1():
    cfg, page = setup_surface(0, 2)
    assert twist_matrix(cfg.curve("d1"), 1, page).is_identity()


def test_twist_matrix_frozen_values():
    cfg, page = setup_surface(1, 1)
    assert twist_matrix(cfg.curve("a1"), 1, page) == T_A1
    assert twist_matrix(cfg.curve("b1"), 1, page) == T_B1


def test_twist_and_inverse_cancel():
    cfg, page = setup_surface(2, 1)
    for name in cfg.names():
        m = twist_matrix(cfg.curve(name), 1, page)
        minv = twist_matrix(cfg.curve(name), -1, page)
        assert (m * minv).is_identity()


def test_twist_power_matches_repeated_product():
    cfg, page = setup_surface(1, 2)
    for name in cfg.names():
        cubed = twist_matrix(cfg.curve(name), 3, page)
        single = twist_matrix(cfg.curve(name), 1, page)
        assert cubed == single * single * single


def test_unknown_curve_rejected():
    cfg, _ = setup_surface(1, 1)
    with pytest.raises(KeyError):
        word_action(parse_word("t(zz)"), cfg)


def test_word_action_frozen_example():
    cfg, _ = setup_surface(1, 1)
    phi = word_action(parse_word("t(a1) t(b1)"), cfg)
    assert phi == T_A1 * T_B1
    assert phi == IntMatrix.from_rows([[0, -1], [1, 1]])
    # column images: A1 -> B1, B1 -> B1 - A1
    assert phi.apply((1, 0)) == (0, 1)
    assert phi.apply((0, 1)) == (-1, 1)


def test_word_action_matches_product_of_twist_matrices():
    rng = random.Random(29)
    for g, n in [(1, 1), (2, 3), (0, 4), (3, 2)]:
        cfg, page = setup_surface(g, n)
        for _ in range(25):
            w = random_word(rng, cfg, 12)
            product = IntMatrix.identity(page.h1_rank)
            for name, exp in w:
                product = product * twist_matrix(cfg.curve(name), exp, page)
            assert word_action(w, cfg) == product


def test_wrong_class_dimension_rejected():
    from obembed import ConfiguredCurve, CurveConfig
    page = Surface(1, 1)
    cfg = CurveConfig(page, [ConfiguredCurve("x", "handle_a", (1, 0, 0))], standard=False)
    with pytest.raises(ValueError, match="dimension"):
        word_action(parse_word("t(x)"), cfg)


def test_empty_word_is_identity():
    cfg, _ = setup_surface(2, 2)
    assert word_action(TwistWord(), cfg).is_identity()


def test_word_inverse_property():
    rng = random.Random(17)
    cfg, _ = setup_surface(2, 2)
    for _ in range(100):
        w = random_word(rng, cfg, 8)
        m = word_action(w.concat(w.inverse()), cfg)
        assert m.is_identity()


def test_word_action_is_a_homomorphism():
    rng = random.Random(23)
    cfg, _ = setup_surface(1, 3)
    for _ in range(60):
        w1, w2 = random_word(rng, cfg, 6), random_word(rng, cfg, 6)
        lhs = word_action(w1.concat(w2), cfg)
        rhs = word_action(w1, cfg) * word_action(w2, cfg)
        assert lhs == rhs


def test_twists_preserve_pairing_and_are_unimodular():
    rng = random.Random(31)
    for g, n in [(1, 1), (2, 2), (0, 3)]:
        cfg, page = setup_surface(g, n)
        j = pairing_matrix(page)
        for _ in range(40):
            w = random_word(rng, cfg, 6)
            m = word_action(w, cfg)
            assert m.transpose() * j * m == j
            assert det_bareiss(mat_rows(m)) == 1


def test_arc_defect_empty_word():
    cfg, _ = setup_surface(0, 3)
    assert arc_defect(TwistWord(), 1, cfg) == (0, 0)


def test_arc_defect_annulus_powers():
    # Each twist step adds D1: <r1,d1> = 1 and <D1,D1> = 0, so tau^k
    # accumulates k*D1.
    cfg, _ = setup_surface(0, 2)
    for k in range(-4, 7):
        w = TwistWord((("d1", k),)) if k else TwistWord()
        assert arc_defect(w, 1, cfg) == (k,)


def test_arc_defect_rejects_one_boundary_pages():
    cfg, _ = setup_surface(2, 1)
    with pytest.raises(IndexError):
        arc_defect(parse_word("t(a1)"), 1, cfg)


def test_arc_defect_index_out_of_range():
    cfg, _ = setup_surface(0, 3)
    with pytest.raises(IndexError):
        arc_defect(TwistWord(), 3, cfg)


def test_arc_defect_cocycle_property():
    # defect(w1 w2) = defect(w1) + action(w1) * defect(w2)
    rng = random.Random(41)
    cfg, _ = setup_surface(1, 3)
    for _ in range(80):
        w1, w2 = random_word(rng, cfg, 6), random_word(rng, cfg, 6)
        for i in (1, 2):
            lhs = arc_defect(w1.concat(w2), i, cfg)
            d2 = arc_defect(w2, i, cfg)
            pushed = word_action(w1, cfg).apply(d2)
            d1 = arc_defect(w1, i, cfg)
            assert lhs == tuple(a + b for a, b in zip(d1, pushed))


def test_relation_report_genus_one():
    cfg, _ = setup_surface(1, 1)
    report = relation_report(cfg)
    names = {c.name: c.passed for c in report.checks}
    assert names["braid(a1,b1)"] is True
    assert names["order6(a1,b1)"] is True
    assert report.all_pass


def test_relation_report_commutation():
    cfg, _ = setup_surface(2, 1)
    report = relation_report(cfg)
    byname = {c.name: c for c in report.checks}
    assert byname["commute(a1,a2)"].passed
    assert byname["braid(b1,c1)"].kind == "braid"
    assert report.all_pass


def test_order_six_by_repeated_multiplication():
    # independent of relation_report: multiply the frozen matrices
    prod = T_A1 * T_B1
    power = IntMatrix.identity(2)
    for _ in range(6):
        power = power * prod
    assert power.is_identity()
    # and no smaller power works
    power = IntMatrix.identity(2)
    for i in range(1, 6):
        power = power * prod
        assert not power.is_identity()


def test_relation_report_passes_small_sweep():
    for g in range(3):
        for n in range(1, 3):
            cfg, _ = setup_surface(g, n)
            assert relation_report(cfg).all_pass
