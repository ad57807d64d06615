"""Surface, pairing, arc crossing and default configuration tests."""

import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obembed import (ConfiguredCurve, CurveConfig, Surface, cokernel, lickorish_system,
                     load_config_override)
from obembed import surface as surface_module
from obembed.surface import (MAX_PAGE_RANK, _default_table, config_from_dict, config_to_dict,
                             default_curve, is_default)

from helpers import (default_table_dense, dense, pair, pairing_matrix, sparse, twist_table_dense,
                     unit)


def census(cfg):
    counts = {}
    for c in cfg:
        counts[c.kind] = counts.get(c.kind, 0) + 1
    return counts


def test_rank_and_euler_formulas():
    for g in range(6):
        for n in range(1, 6):
            s = Surface(g, n)
            assert s.euler_characteristic == 2 - 2 * g - n
            assert s.h1_rank == 2 * g + n - 1
        with pytest.raises(ValueError, match="^page must have boundary$"):
            Surface(g, 0)


def test_page_rank_is_capped():
    assert Surface(0, MAX_PAGE_RANK + 1).h1_rank == MAX_PAGE_RANK
    assert Surface(MAX_PAGE_RANK // 2, 1).h1_rank == MAX_PAGE_RANK
    for g, n in ((0, MAX_PAGE_RANK + 2), (MAX_PAGE_RANK // 2, 2), (10 ** 18, 1)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            Surface(g, n)


def test_system_cache_is_bounded_by_total_rank():
    bound = surface_module.SYSTEM_CACHE_RANK
    pages = [Surface(g, 2) for g in range(120, 130)]
    assert sum(p.h1_rank for p in pages) > bound
    first = lickorish_system(pages[0])
    systems = [lickorish_system(p) for p in pages]
    cached = surface_module._systems
    assert sum(p.h1_rank for p in cached) <= bound
    assert lickorish_system(pages[-1]) is systems[-1]  # the most recent stay
    assert pages[0] not in cached                      # the least recent went
    rebuilt = lickorish_system(pages[0])
    assert rebuilt is not first and rebuilt == first


def test_genus_and_boundary_must_be_integers():
    for g, n in ((1.5, 1), (True, 1), (0, "2"), (None, 1), (0, False)):
        with pytest.raises(ValueError, match="genus and boundary must be integers"):
            Surface(g, n)


def test_disk_has_no_curves():
    page = Surface(0, 1)
    cfg = lickorish_system(page)
    assert len(cfg) == 0
    with pytest.raises(IndexError):  # no arcs
        page.crossing(1, ())


def test_annulus_system():
    page = Surface(0, 2)
    cfg = lickorish_system(page)
    assert cfg.names() == ("d1", "d2")
    assert cfg.curve("d1").support == ((0, 1),)
    assert cfg.curve("d2").support == ((0, -1),)
    with pytest.raises(IndexError):  # one arc
        page.crossing(2, ((0, 1),))
    assert page.crossing(1, cfg.curve("d1").support) == 1
    # opposite orientation of the same core circle
    assert page.crossing(1, cfg.curve("d2").support) == -1


def test_genus_two_one_boundary_census():
    cfg = lickorish_system(Surface(2, 1))
    got = census(cfg)
    assert got == {"handle_a": 2, "handle_b": 2, "chain": 1, "boundary_parallel": 1}
    assert Surface(2, 1).h1_rank == 4


def test_multi_boundary_census():
    cfg = lickorish_system(Surface(1, 3))
    got = census(cfg)
    assert got == {"handle_a": 1, "handle_b": 1, "boundary_parallel": 3,
                   "boundary_pair": 2}
    # chain classes and pair classes
    assert cfg.curve("e1").support == ((2, 1), (3, 1))
    # e2 pairs D2 with the dependent class -(D1+D2)
    assert cfg.curve("e2").support == ((2, -1),)
    assert cfg.curve("d3").support == ((2, -1), (3, -1))


def test_closed_surface_rejected():
    with pytest.raises(ValueError, match="page must have boundary"):
        Surface(2, 0)


def test_default_system_validates():
    for g in range(6):
        for n in range(1, 6):
            cfg = lickorish_system(Surface(g, n))
            assert CurveConfig(cfg.surface, cfg.curves) == cfg
            assert is_default(CurveConfig(cfg.surface, cfg.curves))
            if len(cfg):
                assert not is_default(CurveConfig(cfg.surface, cfg.curves[:-1]))
                renamed = ConfiguredCurve("z", cfg.curves[0].kind, cfg.curves[0].support)
                assert not is_default(CurveConfig(cfg.surface, (renamed,) + cfg.curves[1:]))
            extra = ConfiguredCurve("z", "chain", ())
            assert not is_default(CurveConfig(cfg.surface, cfg.curves + (extra,)))


def test_is_default_of_another_size_builds_no_system():
    page = Surface(40, 7)
    surface_module._systems.pop(page, None)
    before = dict(surface_module._systems)
    attached = CurveConfig(page, [ConfiguredCurve("x", "chain", ((0, 1), (2, -1)))])
    assert not is_default(attached)
    assert surface_module._systems == before


def test_duplicate_name_reported():
    s = Surface(1, 1)
    cfg = lickorish_system(s)
    with pytest.raises(ValueError, match="duplicate curve name 'a1'"):
        CurveConfig(s, list(cfg.curves) + [ConfiguredCurve("a1", "handle_a", ((0, 1),))])


def test_wrong_dimension_reported():
    s = Surface(1, 1)
    with pytest.raises(ValueError, match="^curve a1: class index 2 is past the rank 2$"):
        CurveConfig(s, [ConfiguredCurve("a1", "handle_a", ((0, 1), (2, 1)))])
    for cls, size in (([1, 0, 0], 3), ([0, 0, 0, 0], 4), ([1], 1), ([], 0)):
        message = f"^curve a1: class has dimension {size}, expected 2$"
        with pytest.raises(ValueError, match=message):
            config_from_dict({"curves": [{"name": "a1", "kind": "handle_a", "class": cls}]}, s)


def test_violations_are_reported_together():
    s = Surface(1, 1)
    with pytest.raises(ValueError) as exc:
        CurveConfig(s, [ConfiguredCurve("a1", "chain", ((0, 1),)),
                        ConfiguredCurve("a1", "handle_a", ((5, 1),))])
    assert str(exc.value) == ("duplicate curve name 'a1'; "
                              "curve a1: class index 5 is past the rank 2")
    with pytest.raises(ValueError) as exc:
        config_from_dict({"curves": [{"name": "a1", "kind": "chain", "class": [1, 0, 0]},
                                     {"name": "b1", "kind": "chain", "class": [1]}]}, s)
    assert str(exc.value) == ("curve a1: class has dimension 3, expected 2; "
                              "curve b1: class has dimension 1, expected 2")


def test_kind_class_rules_for_standard_configs():
    # only load_config_override applies the kind rule, in one list with the arc table
    s = Surface(1, 2)
    data = {"curves": [{"name": "x", "kind": "chain", "class": [1, 1, 0]}],
            "arcs": [{"index": 1, "intersections": {"x": 1}}]}
    with pytest.raises(ValueError) as exc:
        load_config_override(json.dumps(data), s)
    assert str(exc.value) == (
        "invalid configuration override: chain curve x: class [1, 1, 0] is not a default "
        "chain class; arc table entry <r1,x> = 1 is inconsistent with the curve class "
        "(forced value 0)")
    # the same class is fine in a pushforward config
    cfg2 = CurveConfig(s, [ConfiguredCurve("x", "chain", ((0, 1), (1, 1)))])
    assert cfg2.names() == ("x",)


LONG = "x" * 10 ** 5
HUGE = 10 ** 4000


def _override_text(name, kind, cls, arcs):
    return json.dumps({"curves": [{"name": name, "kind": kind, "class": cls}],
                       "arcs": [{"index": i, "intersections": {n: v}} for i, n, v in arcs]})


def _raised(call):
    with pytest.raises((KeyError, ValueError)) as info:
        call()
    return info.value.args[0]


@pytest.mark.parametrize("call, start", [
    (lambda s: load_config_override(_override_text(LONG, "chain", [1, 1, 0], []), s),
     "invalid configuration override: chain curve xxx"),
    (lambda s: load_config_override(_override_text("x", "chain", [1] * 198 + [0], []),
                                    Surface(0, 200)),
     "invalid configuration override: chain curve x: class [1, 1, 1"),
    (lambda s: load_config_override(_override_text("d1", "boundary_parallel", [0, 0, 1],
                                                   [(1, LONG, 0)]), s),
     "invalid configuration override: arc table references unknown curve 'xxx"),
    (lambda s: load_config_override(_override_text("d1", "boundary_parallel", [0, 0, 1],
                                                   [(HUGE, "d1", 1)]), s),
     "invalid configuration override: arc index 1000"),
    (lambda s: load_config_override(_override_text(LONG, "boundary_parallel", [0, 0, 1],
                                                   [(1, LONG, 10 ** 100)]), s),
     "invalid configuration override: arc table entry <r1,xxx"),
    (lambda s: lickorish_system(s).curve(LONG), "unknown curve name 'xxx"),
    (lambda s: CurveConfig(s, [ConfiguredCurve(LONG, "handle_a", ((HUGE, 1),))]),
     "curve xxx"),
    (lambda s: ConfiguredCurve(LONG, "handle_a", ((0, 0),)), "curve xxx"),
    (lambda s: config_from_dict({"curves": [{"name": LONG, "kind": "handle_a", "class": "1"}]},
                                s), "curve xxx"),
], ids=["kind_rule_name", "kind_rule_class", "arc_unknown_curve", "arc_index", "arc_entry",
        "unknown_curve", "class_index", "curve_class", "class_type"])
def test_messages_about_long_names_and_values_stay_short(call, start):
    """Each outside name or value is shown as brief shows it, cut to 60 characters."""
    message = _raised(lambda: call(Surface(1, 2)))
    assert message.startswith(start), message
    assert len(message) < 300  # at most two values of 60 characters each, and the text


def test_pairing_rank_is_twice_genus():
    for g in range(4):
        for n in range(1, 4):
            page = Surface(g, n)
            c = cokernel(pairing_matrix(page))
            rank = page.h1_rank - c.free_rank
            assert rank == 2 * g


def test_pairing_values():
    page = Surface(2, 2)
    a1 = unit(page, 0)
    b1 = unit(page, 1)
    d1 = unit(page, 4)
    assert pair(page, a1, b1) == 1
    assert pair(page, b1, a1) == -1
    assert pair(page, a1, d1) == 0
    assert pair(page, d1, d1) == 0


def test_config_json_round_trip():
    cfg = lickorish_system(Surface(2, 2))
    data = config_to_dict(cfg)
    back = config_from_dict(data, Surface(2, 2))
    assert back.names() == cfg.names()
    assert all(back.curve(n).support == cfg.curve(n).support for n in cfg.names())


def test_load_override_accepts_consistent_table(tmp_path):
    cfg = lickorish_system(Surface(0, 2))
    data = config_to_dict(cfg)
    data["arcs"] = [{"index": 1, "intersections": {"d1": 1, "d2": -1}}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    loaded_cfg = load_config_override(path.read_text(), Surface(0, 2))
    assert loaded_cfg.names() == ("d1", "d2")
    assert Surface(0, 2).crossing(1, loaded_cfg.curve("d2").support) == -1


def test_load_override_rejects_inconsistent_table(tmp_path):
    cfg = lickorish_system(Surface(0, 2))
    data = config_to_dict(cfg)
    # the crossing number is forced by the class; +1 here is unrealizable
    data["arcs"] = [{"index": 1, "intersections": {"d2": 1}}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="inconsistent"):
        load_config_override(path.read_text(), Surface(0, 2))


def test_load_override_with_short_class_and_arc_table(tmp_path):
    data = {"curves": [{"name": "d1", "kind": "boundary_parallel", "class": []}],
            "arcs": [{"index": 1, "intersections": {"d1": 1}}]}
    with pytest.raises(ValueError, match="dimension"):
        load_config_override(json.dumps(data), Surface(0, 2))


def test_load_override_takes_json_text_only(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(lickorish_system(Surface(0, 2)))))
    for text in ("[]", str(path), "{", '{"curves": 5}', '{"curves": [{"name": "d1"}]}',
                 '{"curves": [], "arcs": 5}', '{"curves": [], "arcs": [1]}'):
        with pytest.raises(ValueError):
            load_config_override(text, Surface(0, 2))


def test_arc_index_out_of_range():
    page = Surface(1, 2)
    cfg = lickorish_system(page)
    with pytest.raises(IndexError):
        page.crossing(2, cfg.curve("a1").support)


def test_pairing_matrix_is_the_fixed_symplectic_form():
    # skew; <Ai,Bi> = 1 and no other handle pairing; every Dj in the radical
    for g in range(6):
        for n in range(1, 6):
            page = Surface(g, n)
            rows, rank = pairing_matrix(page).row_lists(), page.h1_rank
            assert len(rows) == rank and all(len(r) == rank for r in rows)
            assert all(rows[i][j] == -rows[j][i] for i in range(rank) for j in range(rank))
            handles = {(2 * i, 2 * i + 1) for i in range(g)}
            assert all(rows[i][j] == ((i, j) in handles)
                       for i in range(2 * g) for j in range(i + 1, 2 * g))
            for i in range(2 * g, rank):
                assert not any(rows[i]) and not any(r[i] for r in rows)


def _standard(page, *curves):
    """The violations of a configuration loaded as an override; empty when it is valid."""
    data = {"curves": [{"name": name, "kind": kind, "class": list(c)} for name, kind, c in curves]}
    try:
        load_config_override(json.dumps(data), page)
    except ValueError as exc:
        return str(exc)
    return ""


def test_disk_bounding_default_curves_are_standard():
    # lickorish_system drops them, but their classes are the default ones
    assert _standard(Surface(0, 1), ("d1", "boundary_parallel", ())) == ""
    assert _standard(Surface(0, 2), ("e1", "boundary_pair", (0,))) == ""


def test_default_classes_are_rejected_under_other_kinds():
    extra = {Surface(0, 1): [("d1", "boundary_parallel", ())],
             Surface(0, 2): [("e1", "boundary_pair", (0,))]}
    kinds = ("handle_a", "handle_b", "chain", "boundary_pair", "boundary_parallel")
    for g in range(4):
        for n in range(1, 6):
            page = Surface(g, n)
            cfg = lickorish_system(page)
            curves = [(c.name, c.kind, dense(page, c.support)) for c in cfg] + extra.get(page, [])
            for name, kind, cls in curves:
                assert _standard(page, (name, kind, cls)) == ""
                for other in kinds:
                    if other != kind:
                        assert (f"is not a default {other} class"
                                in _standard(page, (name, other, cls))), (page, name, other)


def test_closed_surface_has_no_boundary_parallel_class():
    # a closed page is no Surface, so no configuration or override exists on it
    with pytest.raises(ValueError, match="^page must have boundary$"):
        _standard(Surface(1, 0), ("d1", "boundary_parallel", (0, 0)))


def _override(page, *arcs):
    """The default configuration of page loaded with the given arc table."""
    data = {**config_to_dict(lickorish_system(page)),
            "arcs": [{"index": i, "intersections": {name: value}} for i, name, value in arcs]}
    return load_config_override(json.dumps(data), page)


def test_crossing_numbers_come_from_the_classes_alone():
    page = Surface(0, 2)
    cfg = lickorish_system(page)
    assert page.crossing(1, cfg.curve("d1").support) == 1
    with pytest.raises(ValueError, match="inconsistent"):
        _override(page, (1, "d1", 5))


def test_arc_table_checks():
    page = Surface(0, 3)
    assert _override(page, (1, "d1", 1), (2, "d3", -1)) == lickorish_system(page)
    for arc, message in (((3, "d1", 0), "out of range 1..2"),
                         ((1, "zz", 0), "unknown curve 'zz'"),
                         ((2, "d3", 1), "forced value -1")):
        with pytest.raises(ValueError, match=message):
            _override(page, arc)


def test_config_classes_must_be_integer_lists():
    good = {"name": "a1", "kind": "handle_a", "class": [1, 0]}
    assert config_from_dict({"curves": [good]}, Surface(1, 1)).names() == ("a1",)
    for field, value in (("class", "10"), ("class", [1.7, 0.2]), ("class", [True, False]),
                         ("class", 10), ("name", 1), ("kind", ["handle_a"])):
        with pytest.raises(ValueError):
            config_from_dict({"curves": [{**good, field: value}]}, Surface(1, 1))


@pytest.mark.parametrize("entries", [[1, True], [1.0, 0], [0, "1"], [None], (0, 2 ** 70, 0.5)])
def test_curve_class_entries_must_be_ints(entries):
    page = Surface(1, 2)
    with pytest.raises(ValueError, match="^curve x: class must be a list of integers$"):
        config_from_dict({"curves": [{"name": "x", "kind": "chain", "class": entries}]}, page)
    with pytest.raises(ValueError, match="^curve x: class must be"):
        ConfiguredCurve("x", "chain", list(enumerate(entries)))
    good = {"curves": [{"name": "x", "kind": "chain", "class": [0, 2 ** 70, -3]}]}
    assert config_from_dict(good, page).curve("x").support == ((1, 2 ** 70), (2, -3))


def test_load_override_rejects_non_integer_arc_entries():
    cfg = lickorish_system(Surface(0, 2))
    for rec in ({"index": "1", "intersections": {"d1": 1}},
                {"index": 1, "intersections": {"d1": 1.0}},
                {"index": True, "intersections": {"d1": 1}},
                {"index": 1, "intersections": {"d1": True}},
                {"index": 1, "intersections": [["d1", 1]]}):
        data = {**config_to_dict(cfg), "arcs": [rec]}
        with pytest.raises(ValueError, match="integer"):
            load_config_override(json.dumps(data), Surface(0, 2))


def test_twist_table_is_sparse_and_lazy():
    # a dense shift row per curve would cost rank^2: about 5 MiB here
    page = Surface(0, 400)
    cfg = CurveConfig(page, lickorish_system(page).curves)
    assert (page.h1_rank, len(cfg), cfg._twists) == (399, 799, {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in cfg.names():
            cfg.twist(name)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20
    assert cfg.twist("d400") is cfg.twist("d400")


def test_twist_table_entries():
    page = Surface(1, 3)
    cfg = lickorish_system(page)
    assert cfg.twist("a1") == (((0, 1),), ((1, -1),), None, 0, 0)
    assert cfg.twist("d1") == (((2, 1),), (), ((4, 1),), 0, 0)
    assert cfg.twist("d3") == (((2, -1), (3, -1)), (), ((4, -1), (5, -1)), 0, 0)
    with pytest.raises(KeyError):
        cfg.twist("zz")
    # growths: bits(sum |Jc|) + bits(max |c|), and 2 bits(max |c|) with a shift
    assert lickorish_system(Surface(2, 1)).twist("c1")[3:] == (1, 0)
    odd = CurveConfig(page, [ConfiguredCurve("x", "chain", ((0, 5), (1, -2), (2, 3))),
                             ConfiguredCurve("y", "chain", ())])
    assert odd.twist("x") == (((0, 5), (1, -2), (2, 3)), ((0, -2), (1, -5)), ((4, 3),),
                              3 + 3, 3 + 3)
    assert odd.twist("y") == ((), (), None, 0, 0)


def test_default_curve_reads_every_default_name_off_its_support():
    for g in range(5):
        for n in range(1, 8):
            page = Surface(g, n)
            for c in lickorish_system(page):
                assert default_curve(page, c.support) == (c.name, c.kind)
    # the planar pages drop their null curve; on Sigma_{1,3} no curve is null
    assert default_curve(Surface(0, 1), ()) is None
    assert default_curve(Surface(0, 2), ()) is None
    assert default_curve(Surface(1, 2), ()) == ("e1", "boundary_pair")
    assert default_curve(Surface(1, 3), ()) is None


_pages = st.sampled_from([(0, 1), (0, 2), (0, 3), (0, 6), (1, 1), (3, 1), (1, 2), (1, 3),
                          (2, 4), (3, 5)])


@st.composite
def page_classes(draw):
    page = Surface(*draw(_pages))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2]) | st.integers(-(1 << 41), 1 << 41)
    return page, tuple(draw(st.lists(entries, min_size=page.h1_rank,
                                     max_size=page.h1_rank)))


@settings(max_examples=400)
@given(page_classes())
@example((Surface(2, 4), (0, 0, 0, 0, -1, -1, -1)))
@example((Surface(2, 4), (0, 0, 0, 0, -1, -1, 0)))
@example((Surface(2, 4), (0, 0, 1, 0, -1, 0, 0)))  # A2 - D1, not a chain curve
@example((Surface(2, 4), (0, 0, 0, 0, 1, -1, 0)))
@example((Surface(0, 3), (-1, 0)))
@example((Surface(2, 1), (1, 0, -1, 0)))
def test_default_curve_matches_the_table(page_class):
    page, c = page_class
    table = {dense(page, d.support): (d.name, d.kind) for d in lickorish_system(page)}
    assert default_curve(page, sparse(c)) == table.get(c)


@settings(max_examples=300)
@given(page_classes())
@example((Surface(0, 1), ()))
@example((Surface(0, 2), (0,)))
@example((Surface(1, 3), (0, 0, 0, 0)))
@example((Surface(3, 1), (1 << 40, -(1 << 45), 0, 3, 0, -1)))
@example((Surface(1, 3), (-(1 << 40), 7, 1 << 41, -1)))
def test_twist_table_matches_the_dense_rule(page_class):
    page, c = page_class
    cfg = CurveConfig(page, [ConfiguredCurve("x", "chain", sparse(c))])
    assert cfg.twist("x") == twist_table_dense(cfg, "x")


def test_default_table_matches_the_dense_oracle():
    # g <= 6 and n <= 8 cover the planar drops, d_n and e_{n-1} with up to seven entries
    for g in range(7):
        for n in range(1, 9):
            page = Surface(g, n)
            rows = _default_table(page)
            assert [(name, kind, dense(page, c)) for name, kind, c in rows] == \
                default_table_dense(page)
            assert all(c == sparse(dense(page, c)) for _, _, c in rows)
            kept = [row for row in default_table_dense(page) if g or any(row[2])]
            assert [(c.name, c.kind, dense(page, c.support))
                    for c in lickorish_system(page)] == kept


def test_default_system_is_linear_in_the_rank():
    # Sigma_{0,1001} has rank 1000: dense classes would hold 2001 x 1000 entries
    page = Surface(0, 1001)
    surface_module._systems.pop(page, None)
    tracemalloc.start()
    try:
        cfg = lickorish_system(page)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cfg) == 2001 and size < 2 << 20
    assert len(cfg.curve("d1001").support) == 1000 and len(cfg.curve("e1000").support) == 999


def _random_config_dict(rng, page):
    rank = page.h1_rank
    entries = [0, 0, 0, 1, -1, 2, -(1 << 70)]
    return {"curves": [{"name": f"x{i}", "kind": rng.choice(("chain", "handle_a")),
                        "class": [rng.choice(entries) for _ in range(rank)]}
                       for i in range(rng.randint(0, 6))]}


def test_config_dict_round_trip_is_byte_identical():
    rng = random.Random(5)
    books = [(Surface(g, n), config_to_dict(lickorish_system(Surface(g, n))))
             for g in range(4) for n in range(1, 5)]
    books += [(page, _random_config_dict(rng, page))
              for page in (Surface(0, 1), Surface(0, 2), Surface(2, 3), Surface(5, 7))
              for _ in range(20)]
    for page, x in books:
        text = json.dumps(x, sort_keys=True)
        assert json.dumps(config_to_dict(config_from_dict(x, page)), sort_keys=True) == text


@pytest.mark.parametrize("support", [
    ((0, True),), ((True, 1),), ((0, 0),), ((1, 1), (0, 1)), ((0, 1), (0, 2)), ((-1, 1),),
    ((0, 1, 2),), ((0,),), (0, 1), "ab", 5, None, {0: 1}, ((0, 1.0),), ((0.0, 1),),
    (((0, 1), 1),), [[0, 1], 3],
])
def test_curve_supports_are_checked(support):
    with pytest.raises(ValueError, match="^curve x: class must be"):
        ConfiguredCurve("x", "chain", support)


def test_curve_checks_raise_value_errors_only():
    page = Surface(1, 2)
    for name, kind in ((1, "chain"), ("x", "loop"), (None, None)):
        with pytest.raises(ValueError):
            ConfiguredCurve(name, kind, ())
    with pytest.raises(ValueError, match="^curve x: class index 3 is past the rank 3$"):
        CurveConfig(page, [ConfiguredCurve("x", "chain", ((0, 1), (3, -1)))])
    curve = ConfiguredCurve("x", "chain", [[0, 1], (2, -5)])
    assert curve.support == ((0, 1), (2, -5))
    assert CurveConfig(page, [curve]).curve("x") is curve

