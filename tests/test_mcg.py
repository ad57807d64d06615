"""Twist word tests.

Frozen 2x2 values, derived by hand from the transvection rule
x -> x + e<x,c>c in the basis (A1, B1) with <A1,B1> = 1:

    T_a1 = [[1,-1],[0,1]]   (B1 -> B1 - A1)
    T_b1 = [[1,0],[1,1]]    (A1 -> A1 + B1)
    T_a1 * T_b1 = [[0,-1],[1,1]]   so A1 -> B1, B1 -> B1 - A1.
"""

import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obembed import (AbstractOpenBook, ConfiguredCurve, CurveConfig, IntMatrix,
                     JoinBoundaries, SameBoundary, Surface, TwistWord, WordSyntaxError,
                     arc_defect, format_word, lickorish_system, parse_word, relation_report,
                     stabilize_positive, word_action)

from obembed import mcg
from obembed.mcg import RelationCheck

from helpers import (apply, dense, det_bareiss, fixed_length_word, from_rows, is_identity,
                     mat_mul, mat_rows, pairing_matrix, parse_word_by_tokens, random_word,
                     relation_report_by_matrices, relation_report_by_rows, sparse, transpose,
                     twist_matrix, unit, word_action_by_rows)

T_A1 = from_rows([[1, -1], [0, 1]])
T_B1 = from_rows([[1, 0], [1, 1]])


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


def _parsed(parse, text):
    try:
        return parse(text).letters
    except WordSyntaxError as exc:
        return str(exc)


# Letter-like pieces, near misses, Unicode letters and digits, joined by
# separators that str.split() and the regex \s both take as whitespace
# (\x1c, \x85, \xa0, \u3000) or neither does (the zero-width space \u200b).
_pieces = st.sampled_from(["t(a1)", "t(b_2)^-3", "t(Zz9)^0", "t(a1)^+3", "t(a1)x", "t(a1)^",
                           "t(a1)^-", "t()", "t(1a)", "t(aé)", "t(a٣)", "t(a1", "^2", "x",
                           "-", "٣", "t(a1)^٣"])
_separators = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x1c", "\x85", "\xa0",
                               "\u3000", "\u200b", ""])
word_texts = st.lists(st.tuples(_pieces | st.text(max_size=3), _separators), max_size=8).map(
    lambda parts: "".join(piece + sep for piece, sep in parts))


@settings(max_examples=500)
@given(word_texts | st.text(max_size=20))
@example("t(a1)x")
@example("t(a1)^+3")
@example("t(a1)^٣ \x1ct(b1)^-٣\x85t(c1)\xa0t(d1)\u3000 t(e1)")
@example("t(a1)\u200bt(b1)")
@example("t(a1)^" + "7" * 5000)
@example("t(a1)^" + "7" * 5000 + " t(b1)x")
@example("t(b1)x t(a1)^" + "7" * 5000)
def test_parse_word_matches_token_by_token_oracle(text):
    assert _parsed(parse_word, text) == _parsed(parse_word_by_tokens, text)


# Long words repeat a few distinct tokens, and parse_word keeps each good one it
# reads: a bad token first seen after repeated good ones, a bad token that
# repeats, and two spellings of one letter must give the oracle's result.
_alphabet = st.lists(st.sampled_from(["t(a1)", "t(a1)^1", "t(a1)^01", "t(b1)^-2", "t(c1)^0",
                                      "t(a1)^" + "7" * 5000, "t(a1)x", "t(b1)^+1", "t()", "x"]),
                     min_size=1, max_size=5, unique=True)
repeated_words = _alphabet.flatmap(lambda tokens: st.lists(st.sampled_from(tokens),
                                                           max_size=80)).map(" ".join)


@settings(max_examples=300)
@given(repeated_words)
@example("t(a1) t(b1)^-2 t(a1) t(b1)^-2 t(a1) t(b1)x t(a1) t(b1)x")
@example("t(a1)x t(a1) t(a1)x")
@example("t(a1)^01 t(a1)^1 t(a1) t(a1)^01")
@example("t(a1) t(a1) t(a1)^" + "7" * 5000 + " t(a1)x t(a1)^" + "7" * 5000)
def test_parse_word_of_repeated_tokens_matches_oracle(text):
    assert _parsed(parse_word, text) == _parsed(parse_word_by_tokens, text)


# Letters of any name and power, ^0 and ^1 and a bare letter included
_letters = st.tuples(st.sampled_from(["a1", "b1", "e12", "x_y", "Z9"]),
                     st.sampled_from(["", "^0", "^-0", "^1", "^-1", "^2", "^-7", "^01",
                                      "^" + "9" * 30]))


@settings(max_examples=300)
@given(st.lists(_letters, max_size=12), _separators.filter(str.isspace))
def test_parse_word_equals_the_checked_constructor(letters, sep):
    text = sep.join(f"t({name}){exp}" for name, exp in letters)
    word = parse_word(text)
    assert word == TwistWord([(name, int(exp[1:] or 1)) for name, exp in letters])
    assert all(exp for _, exp in word.letters)


# parse_word reads every token through one letter table per process (mcg._letters),
# which keeps only tokens read well and at most mcg._TOKEN_LIMIT characters long.

@settings(max_examples=300)
@given(word_texts | repeated_words | st.text(max_size=20))
def test_parse_word_from_a_cold_and_a_warm_table_matches_oracle(text):
    mcg._letters.clear()
    want = _parsed(parse_word_by_tokens, text)
    assert _parsed(parse_word, text) == want  # cold
    assert _parsed(parse_word, text) == want  # warm: every good short token is kept


def test_bad_token_is_read_again_every_time():
    text = "t(a1) t(a1)^1 t(a1)^+1 t(a1)^+1"
    want = _parsed(parse_word_by_tokens, text)
    assert want == "bad twist letter 't(a1)^+1' (expected t(<name>) with optional ^<int>)"
    mcg._letters.clear()
    for _ in range(3):
        assert _parsed(parse_word, text) == want
        assert list(mcg._letters) == ["t(a1)", "t(a1)^1"]


def test_table_never_exceeds_its_bound():
    tokens = [f"t(a{i})^{i % 5 - 2}" for i in range(mcg._TABLE_SIZE + 100)]
    mcg._letters.clear()
    head = " ".join(tokens[:mcg._TABLE_SIZE])
    assert parse_word(head) == parse_word_by_tokens(head)
    assert len(mcg._letters) == mcg._TABLE_SIZE
    text = " ".join(tokens)
    for _ in range(2):  # a full table is emptied before the next entry, then refilled
        assert parse_word(text) == parse_word_by_tokens(text)
        assert len(mcg._letters) <= mcg._TABLE_SIZE


def test_long_tokens_are_not_kept():
    limit = sys.get_int_max_str_digits()
    long_good, too_many_digits = "t(a1)^" + "7" * 100, "t(b1)^" + "7" * 5000
    text = f"t(a1) {long_good} {too_many_digits}"
    mcg._letters.clear()
    assert _parsed(parse_word, text) == _parsed(parse_word_by_tokens, text)
    try:
        sys.set_int_max_str_digits(0)  # no limit: the 5000-digit exponent reads well
        assert parse_word(text) == parse_word_by_tokens(text)
        assert list(mcg._letters) == ["t(a1)"]
    finally:
        sys.set_int_max_str_digits(limit)
    # nothing read under the lifted limit is kept, so the default limit refuses again
    want = _parsed(parse_word_by_tokens, text)
    assert want.startswith("bad exponent of t(b1): ")
    assert _parsed(parse_word, text) == want


def test_table_holds_little_after_a_word_of_huge_exponents():
    # a Sigma_{1,1} word of 1000 letters with 4000-digit exponents, 3.9 MB of text
    rng = random.Random(3)
    text = " ".join(f"t({rng.choice('ab')}1)^{rng.choice(['', '-'])}"
                    f"{rng.randrange(10 ** 3999, 10 ** 4000)}" for _ in range(1000))
    mcg._letters.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(parse_word(text)) == 1000
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert not mcg._letters


def test_table_of_the_longest_tokens_holds_under_4_3_mb():
    # the stated worst case: a full table of distinct tokens of the length limit, whose
    # exponents are written in 4-byte digits (U+1D7CE..U+1D7D7), so that every token is
    # stored at 4 bytes a character; 4.30 MB on Python 3.10, 4.21 MB on 3.11, 4.01 MB on
    # 3.12 and 3.13 (less when the tuples come from the interpreter's free list)
    bold = str.maketrans("0123456789", "".join(map(chr, range(0x1D7CE, 0x1D7D8))))
    width = mcg._TOKEN_LIMIT - len("t(a1)^9")
    tokens = ["t(a1)^" + f"9{i:0{width}d}".translate(bold) for i in range(mcg._TABLE_SIZE)]
    assert {len(token) for token in tokens} == {mcg._TOKEN_LIMIT}
    text = " ".join(tokens)
    mcg._letters.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(parse_word(text)) == mcg._TABLE_SIZE
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(mcg._letters) == mcg._TABLE_SIZE
    mcg._letters.clear()
    assert held < 4_300_000


def test_zero_exponents_dropped():
    w = TwistWord((("a1", 0), ("b1", 2)))
    assert w.letters == (("b1", 2),)


@pytest.mark.parametrize("letter", [("a1", 1.7), ("a1", 2.0), ("a1", "3"), ("a1", True),
                                    ("a1", None), (1, 1), (None, 2), (b"a1", 1)])
def test_twist_word_takes_string_names_and_int_exponents(letter):
    with pytest.raises(ValueError, match="string name and an integer exponent"):
        TwistWord((letter,))


@pytest.mark.parametrize("letter", [("a1", 1, 2), ("a1",), ("a1", 2, "x")])
def test_twist_word_rejects_letters_that_are_not_pairs(letter):
    with pytest.raises(ValueError):
        TwistWord((("b1", 1), letter))


def test_twist_word_reads_a_generator_once():
    letters = [("a1", 2), ("b1", -1), ("c1", 0), ("a1", 1)]
    assert TwistWord(x for x in letters) == TwistWord(tuple(letters))
    assert TwistWord(x for x in letters).letters == (("a1", 2), ("b1", -1), ("a1", 1))
    with pytest.raises(ValueError, match="string name and an integer exponent"):
        TwistWord(x for x in [("a1", 1), ("b1", True)])


def test_twist_word_accepts_large_and_negative_ints():
    big = 10 ** 40
    assert TwistWord((("a1", big), ("b1", -3))).letters == (("a1", big), ("b1", -3))


def test_radical_class_twists_trivially_on_h1():
    cfg, page = setup_surface(0, 2)
    assert is_identity(twist_matrix(cfg.curve("d1"), 1, page))


def test_twist_matrix_frozen_values():
    cfg, page = setup_surface(1, 1)
    assert twist_matrix(cfg.curve("a1"), 1, page) == T_A1
    assert twist_matrix(cfg.curve("b1"), 1, page) == T_B1


def test_twist_and_inverse_cancel():
    cfg, page = setup_surface(2, 1)
    for name in cfg.names():
        m = twist_matrix(cfg.curve(name), 1, page)
        minv = twist_matrix(cfg.curve(name), -1, page)
        assert is_identity(mat_mul(m, minv))


def test_twist_power_matches_repeated_product():
    cfg, page = setup_surface(1, 2)
    for name in cfg.names():
        cubed = twist_matrix(cfg.curve(name), 3, page)
        single = twist_matrix(cfg.curve(name), 1, page)
        assert cubed == mat_mul(single, single, single)


def test_unknown_curve_rejected():
    cfg, _ = setup_surface(1, 1)
    with pytest.raises(KeyError):
        word_action(parse_word("t(zz)"), cfg)


def test_word_action_frozen_example():
    cfg, _ = setup_surface(1, 1)
    phi = word_action(parse_word("t(a1) t(b1)"), cfg)
    assert phi == mat_mul(T_A1, T_B1)
    assert phi == from_rows([[0, -1], [1, 1]])
    # column images: A1 -> B1, B1 -> B1 - A1
    assert apply(phi, (1, 0)) == (0, 1)
    assert apply(phi, (0, 1)) == (-1, 1)


def test_word_action_matches_product_of_twist_matrices():
    rng = random.Random(29)
    for g, n in [(1, 1), (2, 3), (0, 4), (3, 2)]:
        cfg, page = setup_surface(g, n)
        for _ in range(25):
            w = random_word(rng, cfg, 12)
            product = IntMatrix.identity(page.h1_rank)
            for name, exp in w:
                product = mat_mul(product, twist_matrix(cfg.curve(name), exp, page))
            assert word_action(w, cfg) == product


def test_wrong_class_dimension_rejected():
    from obembed import ConfiguredCurve, CurveConfig
    page = Surface(1, 1)
    with pytest.raises(ValueError, match="past the rank"):
        CurveConfig(page, [ConfiguredCurve("x", "handle_a", ((0, 1), (2, 1)))])


def test_empty_word_is_identity():
    cfg, _ = setup_surface(2, 2)
    assert is_identity(word_action(TwistWord(), cfg))


def test_word_inverse_property():
    rng = random.Random(17)
    cfg, _ = setup_surface(2, 2)
    for _ in range(100):
        w = random_word(rng, cfg, 8)
        m = word_action(w.concat(w.inverse()), cfg)
        assert is_identity(m)


def test_word_action_is_a_homomorphism():
    rng = random.Random(23)
    cfg, _ = setup_surface(1, 3)
    for _ in range(60):
        w1, w2 = random_word(rng, cfg, 6), random_word(rng, cfg, 6)
        lhs = word_action(w1.concat(w2), cfg)
        rhs = mat_mul(word_action(w1, cfg), word_action(w2, cfg))
        assert lhs == rhs


def test_twists_preserve_pairing_and_are_unimodular():
    rng = random.Random(31)
    for g, n in [(1, 1), (2, 2), (0, 3)]:
        cfg, page = setup_surface(g, n)
        j = pairing_matrix(page)
        for _ in range(40):
            w = random_word(rng, cfg, 6)
            m = word_action(w, cfg)
            assert mat_mul(transpose(m), j, m) == j
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
            pushed = apply(word_action(w1, cfg), d2)
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
    prod = mat_mul(T_A1, T_B1)
    power = IntMatrix.identity(2)
    for _ in range(6):
        power = mat_mul(power, prod)
    assert is_identity(power)
    # and no smaller power works
    power = IntMatrix.identity(2)
    for i in range(1, 6):
        power = mat_mul(power, prod)
        assert not is_identity(power)


# a1 = A1 and b1 = 2 B1 pair to 2: no braid, and T_a1 T_b1 has infinite order
DOUBLED_B1 = CurveConfig(Surface(1, 1), [ConfiguredCurve("a1", "handle_a", ((0, 1),)),
                                         ConfiguredCurve("b1", "handle_b", ((1, 2),))])


def test_relation_report_reports_a_failing_order6():
    report = relation_report(DOUBLED_B1)
    assert report.checks == (RelationCheck("order6(a1,b1)", "order6", False),)
    assert not report.all_pass


@st.composite
def relation_configs(draw):
    """Default systems up to rank 12, or the configuration one stabilization leaves."""
    g = draw(st.integers(0, 4))
    page = Surface(g, draw(st.integers(1, 13 - 2 * g)))
    cfg = lickorish_system(page)
    if not len(cfg) or draw(st.booleans()):
        return cfg
    letters = draw(st.lists(st.tuples(st.sampled_from(cfg.names()), st.integers(-2, 2)),
                            max_size=6))
    ob = AbstractOpenBook(page, TwistWord(tuple(letters)), cfg)
    n = page.boundary_count
    if n >= 2 and draw(st.booleans()):
        j, k = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        return stabilize_positive(ob, JoinBoundaries(j, k)).config
    return stabilize_positive(ob, SameBoundary(draw(st.integers(1, n)))).config


def _attached_config():
    # JoinBoundaries(1, 3) pushes e1 on Sigma_{1,4} off every default class
    cfg = lickorish_system(Surface(1, 4))
    ob = AbstractOpenBook(cfg.surface, parse_word("t(e1) t(a1) t(d3)"), cfg)
    return stabilize_positive(ob, JoinBoundaries(1, 3)).config


@settings(max_examples=100)
@given(relation_configs())
@example(DOUBLED_B1)
@example(_attached_config())
def test_relation_report_matches_dense_matrix_products(cfg):
    assert relation_report(cfg) == relation_report_by_matrices(cfg)


def test_attached_config_example_has_fresh_names():
    assert "s1" in _attached_config().names()


def test_relation_report_passes_small_sweep():
    for g in range(3):
        for n in range(1, 3):
            cfg, _ = setup_surface(g, n)
            assert relation_report(cfg).all_pass


# The packed rows of the word action against the rule on list rows
# (helpers.transvect_rows), and the lane bounds at their edges.

@st.composite
def oracle_books(draw):
    """(configuration, word): a configuration of ``relation_configs``, the disk, the
    annulus or a planar page with many arcs, sometimes with a null-class curve, and a
    word with exponents up to 10^40."""
    shape = draw(st.sampled_from(("relation", "disk or annulus", "planar")))
    if shape == "relation":
        cfg = draw(relation_configs())
    else:
        n = draw(st.integers(1, 2) if shape == "disk or annulus" else st.integers(10, 30))
        cfg = lickorish_system(Surface(0, n))
    if draw(st.booleans()):
        null = ConfiguredCurve("z0", "chain", ())
        cfg = CurveConfig(cfg.surface, cfg.curves + (null,))
    if not len(cfg):
        return cfg, TwistWord()
    exps = st.one_of(st.integers(-3, 3), st.integers(-10 ** 40, 10 ** 40))
    return cfg, TwistWord(tuple(draw(st.lists(st.tuples(st.sampled_from(cfg.names()), exps),
                                              max_size=40))))


@settings(max_examples=150)
@given(oracle_books())
@example((lickorish_system(Surface(0, 1)), TwistWord()))
@example((lickorish_system(Surface(0, 2)), TwistWord()))
@example((_attached_config(), parse_word("t(s1)^-3 t(e1) t(a1)^" + "7" * 40)))
def test_word_action_and_relations_match_list_rows(book):
    cfg, word = book
    for arcs in (False, True):
        assert word_action(word, cfg, arcs=arcs) == word_action_by_rows(word, cfg, arcs=arcs)
    if cfg.surface.h1_rank <= 12:
        assert relation_report(cfg) == relation_report_by_rows(cfg)


def _spy_on_room(monkeypatch):
    """Record (lane before, involved rows' lanes before, lane after) of each mcg._room call."""
    calls, room = [], mcg._room

    def spy(rows, bound, lane, width, involved, hi, checked):
        lanes = {r: mcg._decode([rows[r]], lane, width)[0] for r, _ in involved}
        out = room(rows, bound, lane, width, involved, hi, checked)
        calls.append((lane, lanes, out))
        return out
    monkeypatch.setattr(mcg, "_room", spy)
    return calls


def test_lane_check_at_exactly_two_to_the_lane_minus_head(monkeypatch):
    # t(a1)^e puts -e at row 0, column 1 of Sigma_{1,2}; the +-1 letters then raise
    # row 0's bound to the check while moving that entry by at most one.  The check
    # passes for entries in [-2^(64-H), 2^(64-H)) and widens the lanes otherwise.
    calls = _spy_on_room(monkeypatch)
    cfg = lickorish_system(Surface(1, 2))
    edge = 1 << 64 - mcg._HEAD
    outcome = {}
    for extra in ((), (("a1", 1),), (("a1", -1),)):
        for big in (edge + d for d in range(-3, 4)):
            for e in (big, -big + 1):
                word = TwistWord((("a1", 1), ("a1", -1)) * 8 + extra + (("a1", e),))
                calls.clear()
                for arcs in (False, True):
                    assert word_action(word, cfg, arcs=arcs) == word_action_by_rows(word, cfg,
                                                                                     arcs=arcs)
                lane, lanes, out = calls[0]
                outcome[lanes[0][1]] = "widen" if out > lane else "pass"
    assert {v: outcome[v] for v in (-edge - 1, -edge, edge - 1, edge)} == {
        -edge - 1: "widen", -edge: "pass", edge - 1: "pass", edge: "widen"}


@pytest.mark.parametrize("word", [
    "t(a1)^-1 t(b1) " * 70,
    "t(a1)^-1 t(a1)^-1 t(b1) t(b1) " * 35,
    "t(d1) t(a1)^4611686018427387904 t(b1)^4611686018427387904 t(d2)^-3",
], ids=["one-row-at-a-time", "each-row-twice", "2^62-twice"])
def test_entries_crossing_two_to_the_63_widen_the_lanes(word, monkeypatch):
    calls = _spy_on_room(monkeypatch)
    cfg = lickorish_system(Surface(1, 2))
    word = parse_word(word)
    for arcs in (False, True):
        action = word_action(word, cfg, arcs=arcs)
        assert action == word_action_by_rows(word, cfg, arcs=arcs)
        assert max(abs(x) for row in action.data for x in row) >= 1 << 63
    assert any(out > lane for lane, _, out in calls)


# Oracles for the transvection rule at large rank.  Each compares the
# package's word action or arc defect with a computation that goes
# through twist_matrix, the pairing matrix and det_bareiss only.

@pytest.mark.parametrize("g, n", [(50, 1), (48, 9), (55, 11)])
def test_word_action_is_symplectic_and_unimodular_at_rank_100_plus(g, n):
    cfg, page = setup_surface(g, n)
    assert 100 <= page.h1_rank <= 120
    rng = random.Random(1000 * g + n)
    j = pairing_matrix(page)
    phi = word_action(fixed_length_word(rng, cfg.names(), 200), cfg)
    assert not is_identity(phi)
    assert mat_mul(transpose(phi), j, phi) == j
    assert det_bareiss(mat_rows(phi)) == 1


def _defect_by_twist_matrices(word, i, cfg):
    # v(l_k .. l_L) = T_k v(l_{k+1} .. l_L) + e_k <r_i, c_k> c_k, rightmost first
    page = cfg.surface
    v = (0,) * page.h1_rank
    for name, exp in reversed(word.letters):
        curve = cfg.curve(name)
        c = dense(page, curve.support)
        t = exp * page.crossing(i, curve.support)
        v = tuple(x + t * a for x, a in zip(apply(twist_matrix(curve, exp, page), v), c))
    return v


def _action_by_twist_matrices(word, vector, cfg):
    page = cfg.surface
    for name, exp in reversed(word.letters):
        vector = apply(twist_matrix(cfg.curve(name), exp, page), vector)
    return vector


def test_arc_defect_cocycle_at_rank_60_plus():
    # defect(w1 w2) = defect(w1) + action(w1) * defect(w2), with the action
    # and one side's defects taken from twist matrices
    cfg, page = setup_surface(25, 12)
    assert page.h1_rank >= 60
    rng = random.Random(43)
    seen_nonzero = False
    for _ in range(2):
        w1, w2 = fixed_length_word(rng, cfg.names(), 25), fixed_length_word(rng, cfg.names(), 25)
        for i in (1, 11):
            d1, d2 = arc_defect(w1, i, cfg), arc_defect(w2, i, cfg)
            assert d1 == _defect_by_twist_matrices(w1, i, cfg)
            assert d2 == _defect_by_twist_matrices(w2, i, cfg)
            pushed = _action_by_twist_matrices(w1, d2, cfg)
            assert arc_defect(w1.concat(w2), i, cfg) == tuple(
                a + b for a, b in zip(d1, pushed))
            seen_nonzero = seen_nonzero or any(d1) or any(d2)
    assert seen_nonzero


def test_arcs_action_on_letters_with_pairing_and_shift():
    # No standard system has a letter whose class has both handle and D
    # coordinates; JoinBoundaries(1, 3) on Sigma_{1,4} pushes e1, e2, e3 (and
    # d3) to such classes on Sigma_{2,3}.  Four more curves, in the basis
    # (A1, B1, A2, B2, D1, D2), pair with 2 and 3 basis classes, with and
    # without an arc crossing, and m2, a chain class, pairs with two classes of
    # opposite signs.  Every defect column of the one pass must match the
    # twist-matrix recursion, and its leading block Phi the matrix product.
    rng = random.Random(53)
    cfg, page = setup_surface(1, 4)
    ob = stabilize_positive(AbstractOpenBook(page, fixed_length_word(rng, cfg.names(), 30), cfg),
                            JoinBoundaries(1, 3))
    page = ob.page
    extra = [("p2", (1, 0, 1, 0, 0, 0)), ("p2s", (1, 0, 1, 0, 1, 0)),
             ("p3", (1, 1, 1, 0, 0, 0)), ("p3s", (1, 1, 1, 0, 0, -1)),
             ("m2", (1, 0, -1, 0, 0, 0))]
    cfg = CurveConfig(page, ob.config.curves + tuple(ConfiguredCurve(name, "chain", sparse(c))
                                                     for name, c in extra))
    rank, arcs = page.h1_rank, page.boundary_count - 1
    assert arcs == 2
    both = {name for name in cfg.names() if cfg.twist(name)[1] and cfg.twist(name)[2]}
    assert {"e1", "e2", "e3"} <= both
    words = (ob.word, fixed_length_word(rng, cfg.names(), 40),
             fixed_length_word(rng, cfg.names(), 40))
    # (pairing length, capped at 3, and whether there is an arc shift) of every letter
    shapes = {(min(len(cfg.twist(name)[1]), 3), bool(cfg.twist(name)[2]))
              for w in words for name, _ in w}
    assert {(k, s) for k in (1, 2, 3) for s in (False, True)} <= shapes
    # two-entry pairings without a shift, with equal (p2) and opposite (m2) signs
    signs = {tuple(b for _, b in cfg.twist(name)[1]) for w in words for name, _ in w
             if len(cfg.twist(name)[1]) == 2 and not cfg.twist(name)[2]}
    assert {(-1, -1), (-1, 1)} <= signs
    for w in words:
        action = word_action(w, cfg, arcs=True)
        assert (action.rows, action.cols) == (rank, rank + arcs)
        phi = mat_rows(word_action(w, cfg))
        assert [r[:rank] for r in mat_rows(action)] == phi
        columns = [_action_by_twist_matrices(w, unit(page, j), cfg) for j in range(rank)]
        assert phi == [list(row) for row in zip(*columns)]
        for i in range(1, arcs + 1):
            defect = tuple(r[rank + i - 1] for r in mat_rows(action))
            assert defect == _defect_by_twist_matrices(w, i, cfg)
            assert defect == arc_defect(w, i, cfg)


def test_word_action_matches_twist_matrix_product_at_rank_30():
    cfg, page = setup_surface(12, 7)
    assert page.h1_rank == 30
    rng = random.Random(47)
    for _ in range(4):
        w = fixed_length_word(rng, cfg.names(), 12)
        product = IntMatrix.identity(page.h1_rank)
        for name, exp in w:
            product = mat_mul(product, twist_matrix(cfg.curve(name), exp, page))
        assert word_action(w, cfg) == product
