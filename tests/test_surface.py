"""Surface, pairing, arc crossing and default configuration tests."""

import json

import pytest

from obembed import (ConfiguredCurve, CurveConfig, Surface, cokernel, lickorish_system,
                     load_config_override, validate_config)
from obembed.surface import MAX_PAGE_RANK, config_from_dict, config_to_dict

from helpers import pairing_matrix


def census(cfg):
    counts = {}
    for c in cfg:
        counts[c.kind] = counts.get(c.kind, 0) + 1
    return counts


def test_rank_and_euler_formulas():
    for g in range(6):
        for n in range(6):
            s = Surface(g, n)
            assert s.euler_characteristic == 2 - 2 * g - n
            if n >= 1:
                assert s.h1_rank == 2 * g + n - 1
            else:
                assert s.h1_rank == 2 * g


def test_page_rank_is_capped():
    assert Surface(0, MAX_PAGE_RANK + 1).h1_rank == MAX_PAGE_RANK
    assert Surface(MAX_PAGE_RANK // 2, 1).h1_rank == MAX_PAGE_RANK
    for g, n in ((0, MAX_PAGE_RANK + 2), (MAX_PAGE_RANK // 2, 2), (10 ** 18, 1)):
        with pytest.raises(ValueError, match="exceeds the limit"):
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
    assert cfg.curve("d1").homology_class == (1,)
    assert cfg.curve("d2").homology_class == (-1,)
    with pytest.raises(IndexError):  # one arc
        page.crossing(2, (1,))
    assert page.crossing(1, cfg.curve("d1").homology_class) == 1
    # opposite orientation of the same core circle
    assert page.crossing(1, cfg.curve("d2").homology_class) == -1


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
    assert cfg.curve("e1").homology_class == (0, 0, 1, 1)
    # e2 pairs D2 with the dependent class -(D1+D2)
    assert cfg.curve("e2").homology_class == (0, 0, -1, 0)
    assert cfg.curve("d3").homology_class == (0, 0, -1, -1)


def test_closed_surface_rejected():
    with pytest.raises(ValueError, match="page must have boundary"):
        lickorish_system(Surface(2, 0))


def test_default_system_validates():
    for g in range(6):
        for n in range(1, 6):
            cfg = lickorish_system(Surface(g, n))
            assert validate_config(cfg) == []


def test_duplicate_name_reported():
    s = Surface(1, 1)
    cfg = lickorish_system(s)
    dup = CurveConfig(s, list(cfg.curves) + [ConfiguredCurve("a1", "handle_a",
                                                             (1, 0))],
                      standard=True)
    violations = validate_config(dup)
    assert any("duplicate" in v for v in violations)


def test_wrong_dimension_reported():
    s = Surface(1, 1)
    cfg = CurveConfig(s, [ConfiguredCurve("a1", "handle_a", (1, 0, 0))])
    violations = validate_config(cfg)
    assert any("dimension" in v for v in violations)


def test_kind_class_rules_for_standard_configs():
    s = Surface(1, 2)
    cfg = CurveConfig(s, [ConfiguredCurve("x", "chain", (1, 1, 0))], standard=True)
    assert any("chain" in v for v in validate_config(cfg))
    # the same class is fine in a non-standard (pushforward) config
    cfg2 = CurveConfig(s, [ConfiguredCurve("x", "chain", (1, 1, 0))], standard=False)
    assert validate_config(cfg2) == []


def test_pairing_rank_is_twice_genus():
    for g in range(4):
        for n in range(1, 4):
            page = Surface(g, n)
            c = cokernel(pairing_matrix(page))
            rank = page.h1_rank - c.free_rank
            assert rank == 2 * g


def test_pairing_values():
    page = Surface(2, 2)
    a1 = page.unit(0)
    b1 = page.unit(1)
    d1 = page.unit(4)
    assert page.pair(a1, b1) == 1
    assert page.pair(b1, a1) == -1
    assert page.pair(a1, d1) == 0
    assert page.pair(d1, d1) == 0


def test_config_json_round_trip():
    cfg = lickorish_system(Surface(2, 2))
    data = config_to_dict(cfg)
    back = config_from_dict(data, Surface(2, 2), standard=True)
    assert back.names() == cfg.names()
    assert all(back.curve(n).homology_class == cfg.curve(n).homology_class
               for n in cfg.names())


def test_load_override_accepts_consistent_table(tmp_path):
    cfg = lickorish_system(Surface(0, 2))
    data = config_to_dict(cfg)
    data["arcs"] = [{"index": 1, "intersections": {"d1": 1, "d2": -1}}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    loaded_cfg = load_config_override(str(path), Surface(0, 2))
    assert loaded_cfg.names() == ("d1", "d2")
    assert Surface(0, 2).crossing(1, loaded_cfg.curve("d2").homology_class) == -1


def test_load_override_rejects_inconsistent_table(tmp_path):
    cfg = lickorish_system(Surface(0, 2))
    data = config_to_dict(cfg)
    # the crossing number is forced by the class; +1 here is unrealizable
    data["arcs"] = [{"index": 1, "intersections": {"d2": 1}}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="inconsistent"):
        load_config_override(str(path), Surface(0, 2))


def test_load_override_with_short_class_and_arc_table(tmp_path):
    data = {"curves": [{"name": "d1", "kind": "boundary_parallel", "class": []}],
            "arcs": [{"index": 1, "intersections": {"d1": 1}}]}
    with pytest.raises(ValueError, match="dimension"):
        load_config_override(json.dumps(data), Surface(0, 2))


def test_arc_index_out_of_range():
    page = Surface(1, 2)
    cfg = lickorish_system(page)
    with pytest.raises(IndexError):
        page.crossing(2, cfg.curve("a1").homology_class)


def test_pairing_matrix_is_the_fixed_symplectic_form():
    # skew; <Ai,Bi> = 1 and no other handle pairing; every Dj in the radical
    for g in range(6):
        for n in range(6):
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
    return validate_config(CurveConfig(page, [ConfiguredCurve(*c) for c in curves]))


def test_disk_bounding_default_curves_are_standard():
    # lickorish_system drops them, but their classes are the default ones
    assert _standard(Surface(0, 1), ("d1", "boundary_parallel", ())) == []
    assert _standard(Surface(0, 2), ("e1", "boundary_pair", (0,))) == []


def test_default_classes_are_rejected_under_other_kinds():
    extra = {Surface(0, 1): [("d1", "boundary_parallel", ())],
             Surface(0, 2): [("e1", "boundary_pair", (0,))]}
    kinds = ("handle_a", "handle_b", "chain", "boundary_pair", "boundary_parallel")
    for g in range(4):
        for n in range(1, 6):
            page = Surface(g, n)
            cfg = lickorish_system(page)
            curves = [(c.name, c.kind, c.homology_class) for c in cfg] + extra.get(page, [])
            for name, kind, cls in curves:
                assert _standard(page, (name, kind, cls)) == []
                for other in kinds:
                    if other != kind:
                        assert _standard(page, (name, other, cls)) != [], (page, name, other)


def test_closed_surface_has_no_boundary_parallel_class():
    cfg = CurveConfig(Surface(1, 0), [ConfiguredCurve("d1", "boundary_parallel", (0, 0))])
    assert any("boundary_parallel" in v for v in validate_config(cfg))


def test_crossing_numbers_come_from_the_classes_alone():
    page = Surface(0, 2)
    cfg = lickorish_system(page)
    assert page.crossing(1, cfg.curve("d1").homology_class) == 1
    assert any("inconsistent" in v for v in validate_config(cfg, ((1, "d1", 5),)))


def test_arc_table_checks():
    cfg = lickorish_system(Surface(0, 3))
    assert validate_config(cfg, ((1, "d1", 1), (2, "d3", -1))) == []
    assert any("out of range 1..2" in v for v in validate_config(cfg, ((3, "d1", 0),)))
    assert any("unknown curve 'zz'" in v for v in validate_config(cfg, ((1, "zz", 0),)))
    assert any("forced value -1" in v for v in validate_config(cfg, ((2, "d3", 1),)))


def test_config_classes_must_be_integer_lists():
    good = {"name": "a1", "kind": "handle_a", "class": [1, 0]}
    assert config_from_dict({"curves": [good]}, Surface(1, 1)).names() == ("a1",)
    for field, value in (("class", "10"), ("class", [1.7, 0.2]), ("class", [True, False]),
                         ("class", 10), ("name", 1), ("kind", ["handle_a"])):
        with pytest.raises(ValueError):
            config_from_dict({"curves": [{**good, field: value}]}, Surface(1, 1))


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
