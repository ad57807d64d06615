"""Certificate builder and validator tests."""

import json
import random

import pytest

from obembed import AbstractOpenBook, Surface, parse_word
from obembed.surface import is_default
from obembed.embedder import (TARGET_EVEN, TARGET_ODD, build_annulus_s5,
                              build_flexible_embedding, build_openbook_embedding,
                              build_s5_plan, certificate_to_json,
                              validate_certificate)

from helpers import override_book, random_open_book


def book(g, n, word_text=""):
    return AbstractOpenBook.with_default_config(Surface(g, n), parse_word(word_text))


# flexible page embeddings

def test_flexible_disk_certificate():
    cert = build_flexible_embedding(Surface(0, 1), -2)
    assert cert["schedule"] == []
    assert cert["scene"]["removed_disks"] == ["D1"]
    assert cert["scene"]["twisted_band"]["full_twists"] == 1
    assert cert["scene"]["capping_disk"]["side"] == "handle"
    assert cert["checks"]["euler_capped"] == 1
    assert validate_certificate(cert) == []


def test_flexible_genus_two_certificate():
    cert = build_flexible_embedding(Surface(2, 1), 0)
    assert len(cert["schedule"]) == 6   # 2a + 2b + 1 chain + 1 boundary parallel
    assert cert["checks"]["euler_intermediate"] == -4
    assert validate_certificate(cert) == []


def test_flexible_pair_of_pants_certificate():
    cert = build_flexible_embedding(Surface(0, 3), 1)
    assert len(cert["scene"]["removed_disks"]) == 3
    assert cert["scene"]["intermediate_boundary_components"] == 4
    assert validate_certificate(cert) == []


def test_flexible_rejects_closed_page():
    with pytest.raises(ValueError):
        build_flexible_embedding(Surface(1, 0), 0)


def test_schedule_levels_distinct_and_interior():
    cert = build_flexible_embedding(Surface(3, 2), 2)
    levels = [(e["level"]["num"], e["level"]["den"]) for e in cert["schedule"]]
    assert len(set(levels)) == len(levels)
    for num, den in levels:
        assert 0 < 2 * num < den


# witnesses

def test_witness_disk_empty():
    w = build_openbook_embedding(book(0, 1), -2)
    assert w["scene"]["target"] == TARGET_EVEN
    assert w["schedule"] == []
    assert validate_certificate(w) == []


def test_witness_annulus_odd_framing():
    w = build_openbook_embedding(book(0, 2, "t(d1)^3"), 1)
    assert w["scene"]["target"] == TARGET_ODD
    assert w["schedule"] == [{"position": 1, "curve": "d1", "exponent": 3,
                              "schedule_ref": "d1"}]
    assert validate_certificate(w) == []


def test_witness_realization_in_action_order():
    w = build_openbook_embedding(book(1, 1, "t(a1) t(b1)"), 2)
    # rightmost letter acts first
    assert [e["curve"] for e in w["schedule"]] == ["b1", "a1"]
    assert w["scene"]["target"] == TARGET_EVEN
    assert validate_certificate(w) == []


def test_parity_law():
    ob = book(1, 1, "t(a1)")
    for m in range(-5, 6):
        w = build_openbook_embedding(ob, m)
        assert (w["scene"]["target"] == TARGET_EVEN) == (m % 2 == 0)
        assert validate_certificate(w) == []


def test_witness_tamper_missing_realization():
    w = build_openbook_embedding(book(1, 1, "t(a1) t(b1)"), 0)
    w["schedule"] = w["schedule"][:1]
    violations = validate_certificate(w)
    assert any("uncovered letter" in v for v in violations)


def test_witness_tamper_level():
    w = build_openbook_embedding(book(1, 1, "t(a1)"), 0)
    w["scene"]["page_certificate"]["schedule"][0]["level"] = {"num": 7, "den": 10}
    violations = validate_certificate(w)
    assert any("outside (0, 1/2)" in v for v in violations)


def test_witness_tamper_target():
    w = build_openbook_embedding(book(0, 1), 1)
    w["scene"]["target"] = TARGET_EVEN
    violations = validate_certificate(w)
    assert any("parity" in v for v in violations)


# annulus into the trivial open book of S5

def test_annulus_powers():
    assert build_annulus_s5(book(0, 2))["checks"]["realized_power"] == 0
    assert build_annulus_s5(book(0, 2, "t(d1)^5"))["checks"]["realized_power"] == 5
    cert = build_annulus_s5(book(0, 2, "t(d1)^2 t(d1)^-3"))
    assert cert["checks"]["realized_power"] == -1
    assert validate_certificate(cert) == []


def test_annulus_rejects_wrong_page():
    with pytest.raises(ValueError, match="annulus"):
        build_annulus_s5(book(1, 1))


def test_annulus_rejects_non_core_letters():
    from obembed import ConfiguredCurve, CurveConfig, TwistWord
    page = Surface(0, 2)
    cfg = CurveConfig(page, [ConfiguredCurve("z", "boundary_parallel", (0,))])
    ob = AbstractOpenBook(page, TwistWord((("z", 1),)), cfg)
    with pytest.raises(ValueError, match="core"):
        build_annulus_s5(ob)


def test_annulus_tamper_power():
    cert = build_annulus_s5(book(0, 2, "t(d1)^4"))
    cert["checks"]["realized_power"] = 3
    assert any("total exponent" in v for v in validate_certificate(cert))


# S5 plans

def test_s5_plan_disk():
    plan = build_s5_plan(book(0, 1))
    assert plan["schedule"]["generators"] == []
    assert plan["checks"]["boundary_after"] == 1
    assert validate_certificate(plan) == []


def test_s5_plan_lens_space():
    plan = build_s5_plan(book(0, 2, "t(d1)^4"))
    reduced = plan["scene"]["normalized_openbook"]
    assert reduced["boundary"] == 1
    assert plan["checks"]["h1_before"] == {"free_rank": 0, "torsion": [4]}
    assert plan["checks"]["h1_after"] == plan["checks"]["h1_before"]
    assert validate_certificate(plan) == []


def test_s5_plan_checklist_is_complete():
    plan = build_s5_plan(book(2, 1, "t(a1) t(b2)^3 t(c1)^-1"))
    checklist = plan["scene"]["avoidance"]
    assert len(checklist) == 9
    pairs = {(r["surface_piece"], r["zero_section_piece"]) for r in checklist}
    assert len(pairs) == 9
    assert all(r["disjoint"] for r in checklist)
    assert validate_certificate(plan) == []


def test_s5_plan_tamper_checklist():
    plan = build_s5_plan(book(0, 2, "t(d1)"))
    plan["scene"]["avoidance"] = plan["scene"]["avoidance"][:-1]
    assert any("missing pair" in v for v in validate_certificate(plan))


def test_s5_plan_tamper_h1_record():
    plan = build_s5_plan(book(0, 2, "t(d1)^3"))
    plan["checks"]["h1_after"] = {"free_rank": 1, "torsion": []}
    violations = validate_certificate(plan)
    assert any("h1_after" in v for v in violations)


@pytest.mark.parametrize("normalized", ["t(a1)^-5 t(b1)^-1", "t(b1)^5 t(a1)"])
def test_s5_plan_tamper_normalization(normalized):
    # same H1 (Z/5) as the true normalization t(a1) t(b1)^5, with a matching
    # realization; only recomputing the reduction of the input catches it
    plan = build_s5_plan(book(0, 2, "t(d1)^5"))
    assert plan["scene"]["normalized_openbook"]["word"] == "t(a1) t(b1)^5"
    plan["scene"]["normalized_openbook"]["word"] = normalized
    plan["schedule"]["monodromy"] = [
        {"position": pos, "curve": name, "exponent": exp, "schedule_ref": name}
        for pos, (name, exp) in enumerate(reversed(parse_word(normalized).letters), start=1)]
    violations = validate_certificate(plan)
    assert violations
    assert violations[0].startswith("scene.normalized_openbook.word: expected 't(a1) t(b1)^5'")
    assert all(v.startswith(("scene.normalized_openbook", "schedule.monodromy"))
               for v in violations)


def test_s5_plan_validation_is_total_past_the_rank_cap():
    plan = build_s5_plan(book(0, 2, "t(d1)^5"))
    plan["input"]["openbook"] = {"genus": 0, "boundary": 1001, "word": ""}
    assert "input.openbook: page rank 1001 exceeds the limit 1000" in validate_certificate(plan)


def test_s5_plan_tamper_reason_code():
    plan = build_s5_plan(book(0, 1))
    plan["scene"]["avoidance"][0]["reason"] = "wishful_thinking"
    assert any("valid reason" in v for v in validate_certificate(plan))


# serialization discipline

def test_builders_are_deterministic():
    for builder, args in [
        (build_flexible_embedding, (Surface(2, 2), 1)),
        (build_openbook_embedding, (book(1, 2, "t(a1) t(e1)^2"), -1)),
        (build_s5_plan, (book(1, 2, "t(a1) t(e1)^2"),)),
        (build_annulus_s5, (book(0, 2, "t(d1)^3"),)),
    ]:
        a = certificate_to_json(builder(*args))
        b = certificate_to_json(builder(*args))
        assert a == b


def test_disk_bundle_model_parity():
    from obembed.embedder import disk_bundle_model
    assert disk_bundle_model(-2)["total_space"] == TARGET_EVEN
    assert disk_bundle_model(1)["total_space"] == TARGET_ODD
    assert len(disk_bundle_model(0)["zero_section"]) == 3


def test_validator_accepts_json_text():
    cert = build_flexible_embedding(Surface(1, 1), 0)
    assert validate_certificate(certificate_to_json(cert)) == []


def test_validator_rejects_unknown_kind():
    # a violation for any object; only a non-object or invalid JSON raises
    for cert in ({"kind": "nonsense", "version": 1}, {"version": 1}, {}, {"kind": []},
                 {"kind": {}}, {"kind": None}, '{"kind": 7}'):
        violations = validate_certificate(cert)
        assert len(violations) == 1
        assert violations[0].startswith("kind: unknown certificate kind")
    for bad in ([], "[]", "3", "not json", 3, None):
        with pytest.raises(ValueError):
            validate_certificate(bad)


def test_validator_reports_non_integer_config_classes():
    from obembed import ConfiguredCurve, CurveConfig
    page = Surface(1, 3)
    cfg = CurveConfig(page, [ConfiguredCurve("x", "boundary_parallel", (0, 0, 1, 0))])
    cert = build_openbook_embedding(AbstractOpenBook(page, parse_word("t(x)^2"), cfg), 1)
    assert validate_certificate(cert) == []
    for cls in ("0010", [0.0, 0, 1.0, 0], [False, False, True, False]):
        cert["input"]["openbook"]["config"]["curves"][0]["class"] = cls
        assert any(v.startswith("input.openbook:") and "list of integers" in v
                   for v in validate_certificate(cert)), cls


def test_validator_flags_missing_fields():
    cert = build_flexible_embedding(Surface(1, 1), 0)
    del cert["checks"]
    assert any("missing top-level" in v for v in validate_certificate(cert))


def test_builder_validator_closure_fuzz():
    rng = random.Random(61)
    for _ in range(40):
        ob = random_open_book(rng)
        m = rng.randint(-3, 3)
        assert validate_certificate(build_openbook_embedding(ob, m)) == []
        assert validate_certificate(build_s5_plan(ob)) == []
        # the same book over a user configuration, as load_config_override returns it
        user = override_book(ob)
        assert validate_certificate(build_openbook_embedding(user, m)) == []
        assert validate_certificate(build_s5_plan(user)) == []


def test_certificates_over_attached_configs():
    from obembed import SameBoundary, stabilize_positive
    rng = random.Random(67)
    tested = 0
    while tested < 10:
        ob = random_open_book(rng)
        st = stabilize_positive(ob, SameBoundary(1))
        if is_default(st.config):
            continue   # canonicalized; the attached path is the interesting one
        tested += 1
        assert validate_certificate(build_openbook_embedding(st, 1)) == []
        assert validate_certificate(build_s5_plan(st)) == []


def test_validator_diffs_the_recomputed_scene_spec():
    cert = build_annulus_s5(book(0, 2, "t(d1)^2"))
    cert["scene"]["hopf_band"]["ambient"] = "S4"
    assert any(v.startswith("scene.hopf_band.ambient: expected 'S3'")
               for v in validate_certificate(cert))
    plan = build_s5_plan(book(1, 1, "t(a1)"))
    plan["scene"]["handlebody"]["genus"] = 2
    assert any("scene.handlebody.genus" in v for v in validate_certificate(plan))


def test_witness_page_certificate_must_belong_to_the_input():
    w = build_openbook_embedding(book(1, 1, "t(a1)"), 2)
    w["scene"]["page_certificate"] = build_flexible_embedding(Surface(2, 1), 2)
    violations = validate_certificate(w)
    assert any(v.startswith("scene.page_certificate.input") for v in violations)


def _paths(obj, prefix=()):
    if prefix:
        yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


def test_validator_is_total_on_single_field_mutations():
    # Every field of one certificate per kind set to each JSON shape; the
    # validator must answer with violations, never raise.
    certs = [build_flexible_embedding(Surface(1, 2), 1),
             build_openbook_embedding(book(1, 1, "t(a1) t(b1)^-2"), 3),
             build_annulus_s5(book(0, 2, "t(d1)^3 t(d2)")),
             build_s5_plan(book(0, 2, "t(d1)^2"))]
    values = [None, [], {}, "x", 0, -1, True, 1.5]
    raised = []
    cases = 0
    for cert in certs:
        for path in list(_paths(cert)):
            parent = cert
            for key in path[:-1]:
                parent = parent[key]
            original = parent[path[-1]]
            for value in values:
                parent[path[-1]] = value
                cases += 1
                try:
                    validate_certificate(cert)
                except Exception as exc:  # noqa: BLE001 - the property under test
                    raised.append((cert["kind"], path, value, repr(exc)))
            parent[path[-1]] = original
        assert validate_certificate(cert) == []
    assert cases > 2000
    assert raised == []


def test_validator_reports_oversized_pages():
    # checked before the spec's boundary-long lists are built
    for field, config_kind in (("genus", "default"), ("boundary", "attached")):
        flexible = build_flexible_embedding(Surface(1, 2), 1)
        flexible["input"]["page"][field] = 100000000
        flexible["input"]["config_kind"] = config_kind
        assert any("exceeds the limit" in v for v in validate_certificate(flexible))
    witness = build_openbook_embedding(book(1, 1, "t(a1)"), 2)
    witness["input"]["openbook"]["boundary"] = 10 ** 12
    assert any("exceeds the limit" in v for v in validate_certificate(witness))


def test_validator_reports_malformed_pages_through_surface():
    for value, message in ((None, "input.page: genus and boundary must be integers, got 1, None"),
                           (True, "input.page: genus and boundary must be integers, got 1, True"),
                           (-1, "input.page: genus and boundary count must be nonnegative"),
                           (0, "page has no boundary")):
        flexible = build_flexible_embedding(Surface(1, 2), 1)
        flexible["input"]["page"]["boundary"] = value
        assert validate_certificate(flexible) == [message]
