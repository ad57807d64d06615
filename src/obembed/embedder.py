"""Builders and validators for embedding certificates.

The constructions here are recorded structurally: an isotopy becomes
an ordered schedule step with a level, a disjointness claim becomes a
checklist entry with a reason code.  The validator re-derives every
invariant from the serialized certificate alone and trusts nothing
the builder did.

The fixed parts of each certificate (scene constants, generator
schedule, Euler and parity checks) come from one spec function per
kind, a pure function of the input.  The builder emits the spec; the
validator recomputes it from the certificate's own ``input`` and diffs
it key by key.  Checked independently of the spec: H1 and the S5
normalization (both recomputed), collar levels in (0, 1/2), the
realization of the word in action order, and the completeness of the
avoidance checklist.

Certificate wire format (JSON): top-level keys are exactly
{kind, version, input, scene, schedule, checks}, version 1.
"""

from __future__ import annotations

import json

from .openbook import (AbstractOpenBook, closed_h1, core_twist_total,
                       reduce_to_one_boundary)
from .surface import Surface, lickorish_system

VERSION = 1

KIND_FLEXIBLE = "flexible_page_embedding"
KIND_WITNESS = "openbook_embedding_witness"
KIND_ANNULUS = "annulus_trivial_s5"
KIND_S5PLAN = "s5_plan"

TARGET_EVEN = "S3xS2"
TARGET_ODD = "twisted"

ZERO_SECTION_PIECES = ("handle_core_disk", "attaching_circle_cylinder", "bottom_disk")
SURFACE_PIECES = ("page_body", "capping_disk", "boundary_cylinder")
AVOIDANCE_REASONS = ("different_level", "inside_complement_solid_torus",
                     "handle_side_disjointness")

_TOP_KEYS = {"kind", "version", "input", "scene", "schedule", "checks"}

# Disjointness reasons, one per (surface piece, zero-section piece) pair.
_AVOIDANCE_TABLE = {
    ("page_body", "handle_core_disk"): "handle_side_disjointness",
    ("page_body", "attaching_circle_cylinder"): "inside_complement_solid_torus",
    ("page_body", "bottom_disk"): "different_level",
    ("capping_disk", "handle_core_disk"): "handle_side_disjointness",
    ("capping_disk", "attaching_circle_cylinder"): "handle_side_disjointness",
    ("capping_disk", "bottom_disk"): "different_level",
    ("boundary_cylinder", "handle_core_disk"): "inside_complement_solid_torus",
    ("boundary_cylinder", "attaching_circle_cylinder"): "inside_complement_solid_torus",
    ("boundary_cylinder", "bottom_disk"): "different_level",
}


def certificate_to_json(cert):
    """Canonical (byte-deterministic) serialization."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


def disk_bundle_model(framing):
    """The fixed scene regions of the disk bundle DE(framing).

    DE(m) is the four-ball with a two-handle attached along an unknot
    with framing m; the zero section decomposes into the handle's core
    disk, the cylinder over the attaching circle, and the bottom disk.
    """
    return {
        "framing": framing,
        "total_space": _total_space(framing),
        "pieces": ["B4_interior", "collar", "attaching_region", "handle",
                   "core_disk", "cocore"],
        "collar_levels": {"binding": _ratio(1, 1), "page": _ratio(1, 2),
                          "bottom": _ratio(0, 1)},
        "zero_section": list(ZERO_SECTION_PIECES),
    }


def _ratio(num, den):
    return {"num": num, "den": den}


def _parity(framing):
    return "even" if framing % 2 == 0 else "odd"


def _total_space(framing):
    return TARGET_EVEN if framing % 2 == 0 else TARGET_ODD


def _schedule_for(curve_names):
    total = len(curve_names)
    entries = []
    for idx, name in enumerate(curve_names, start=1):
        entries.append({
            "curve": name,
            "order": idx,
            "level": _ratio(idx, 2 * (total + 1)),
            "band_sum_curve": "C#bCH",
            "isotopy": ["push", "twist", "return"],
        })
    return entries


def _realization(word):
    """The word's letters in action order, each against its schedule entry."""
    return [{"position": pos, "curve": name, "exponent": exp, "schedule_ref": name}
            for pos, (name, exp) in enumerate(reversed(word.letters), start=1)]


# ---------------------------------------------------------------------------
# specs: the fixed parts of each kind, emitted by the builder and
# recomputed by the validator


def _flexible_input(page, framing, cfg):
    return {"page": {"genus": page.genus, "boundary": page.boundary_count},
            "framing": framing,
            "curves": list(cfg.names()),
            "config_kind": "default" if cfg.standard else "attached"}


def _flexible_spec(g, n, names):
    return {
        "scene": {
            "removed_disks": [f"D{i}" for i in range(1, n + 1)],
            "twisted_band": {"on_disk": "D1", "full_twists": 1},
            "hopf_boundary_pair": ["H1", "H2"],
            "capping_disk": {"caps": "H1", "side": "handle",
                             "center_curve_shrinks": True},
            "boundary_cylinders": [
                {"disk": f"D{i}", "from": _ratio(1, 2), "to": _ratio(1, 1)}
                for i in range(1, n + 1)
            ],
            "intermediate_boundary_components": n + 1,
        },
        "schedule": _schedule_for(names),
        "checks": {
            "euler_intermediate": 1 - 2 * g - n,
            "euler_capped": 2 - 2 * g - n,
        },
    }


def _witness_spec(framing, word_length):
    return {
        "scene": {
            "target": _total_space(framing),
            "target_openbook": {"page": f"DE({framing})", "monodromy": "identity"},
            "bundle": disk_bundle_model(framing),
        },
        "checks": {"word_length": word_length, "framing_parity": _parity(framing)},
    }


def _annulus_spec(power):
    return {
        "scene": {
            "hopf_band": {"ambient": "S3", "boundary": ["H1", "H2"]},
            "collar_pushing": {"target": "D4", "proper": True,
                               "levels": "boundary collar"},
            "isotopy_extension": {"rule": "collar reflection",
                                  "fixes_boundary": True},
        },
        "schedule": [{"core_twist_power": power}],
        "checks": {"realized_power": power},
    }


def _s5_spec(reduced, before, after):
    """Fixed parts of an S5 plan, given the normalized book and both H1s."""
    return {
        "input": {"h1": before.as_dict()},
        "scene": {
            "de1": {"framing": 1, "attaching_circle": "K",
                    "pushed_core_boundary": "K_prime", "linking_unknot": "U"},
            "hopf_annulus": {"level": _ratio(1, 2), "boundary": ["U", "K_prime"]},
            "handlebody": {"genus": reduced.page.genus,
                           "placement": "complement_solid_torus"},
            "connected_sum": {"pieces": ["page_body", "hopf_annulus"],
                              "band": "ambient"},
            "zero_section": list(ZERO_SECTION_PIECES),
            "assembly": {"complement": "S3 x (0,1]", "capping": "S3 x D2",
                         "target": "S3xR2"},
        },
        "schedule": {"generators": _schedule_for(list(reduced.config.names()))},
        "checks": {"h1_before": before.as_dict(), "h1_after": after.as_dict(),
                   "boundary_after": reduced.page.boundary_count},
    }


# ---------------------------------------------------------------------------
# builders


def build_flexible_embedding(page, framing, cfg=None):
    """Certificate for the flexible proper embedding of a page in DE(m).

    The scene removes one disk per boundary component from the closed
    surface, attaches a full-twist band on the first disk to create a
    Hopf boundary pair, caps one Hopf boundary with the handle-side
    disk, and runs every generator twist at its own collar level in
    (0, 1/2).
    """
    if page.boundary_count < 1:
        raise ValueError("page must have boundary")
    if cfg is None:
        cfg = lickorish_system(page)
    return {"kind": KIND_FLEXIBLE, "version": VERSION,
            "input": _flexible_input(page, framing, cfg),
            **_flexible_spec(page.genus, page.boundary_count, list(cfg.names()))}


def build_openbook_embedding(ob, framing):
    """Witness that the open book embeds in the identity open book of DE(m).

    The page certificate provides one ambient twist per generator;
    the realization lists the word's letters in action order against
    their schedule entries.  The target's total space is S3xS2 for
    even framing and its twisted partner for odd framing.
    """
    spec = _witness_spec(framing, len(ob.word))
    spec["scene"]["page_certificate"] = build_flexible_embedding(ob.page, framing,
                                                                 ob.config)
    return {"kind": KIND_WITNESS, "version": VERSION,
            "input": {"openbook": ob.to_dict(), "framing": framing},
            "schedule": _realization(ob.word), **spec}


def build_annulus_s5(ob):
    """Certificate embedding an annulus-page open book in the trivial
    open book of S5.

    Requires the page to be the annulus with a word of core twists;
    the realized power is the total signed exponent.
    """
    return {"kind": KIND_ANNULUS, "version": VERSION,
            "input": {"openbook": ob.to_dict()},
            **_annulus_spec(core_twist_total(ob))}


def build_s5_plan(ob):
    """Plan embedding the closed manifold of an open book in S5.

    The input is normalized to a one-boundary page (homology must be
    unchanged, and both records are kept), the page goes into the
    standard DE(1) scene away from the zero section, and the checklist
    records why each surface piece misses each zero-section piece.
    Avoiding the zero section places everything in its complement, so
    the manifold lands in S3 x R2 and hence in S5.
    """
    before = closed_h1(ob)
    reduced = reduce_to_one_boundary(ob)
    after = closed_h1(reduced)
    if before != after:
        raise AssertionError("boundary reduction changed H1; stabilization bug")
    spec = _s5_spec(reduced, before, after)
    spec["input"]["openbook"] = ob.to_dict()
    spec["scene"]["normalized_openbook"] = reduced.to_dict()
    spec["scene"]["avoidance"] = [
        {"surface_piece": sp, "zero_section_piece": zp, "disjoint": True,
         "reason": _AVOIDANCE_TABLE[(sp, zp)]}
        for sp in SURFACE_PIECES for zp in ZERO_SECTION_PIECES
    ]
    spec["schedule"]["monodromy"] = _realization(reduced.word)
    return {"kind": KIND_S5PLAN, "version": VERSION, **spec}


# ---------------------------------------------------------------------------
# validation

_MISSING = object()


def _get(obj, key, default=None):
    return obj.get(key, default) if isinstance(obj, dict) else default


def _is_int(x):
    return type(x) is int


def _brief(x):
    text = "nothing" if x is _MISSING else repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _diff(path, want, got, out, source, free=()):
    """Record where ``got`` departs from the recomputed ``want``.

    Paths listed in ``free`` are checked elsewhere and skipped.  Leaves
    compare as Python values, so 1, 1.0 and true are equal.
    """
    if path in free or got == want:
        return
    if isinstance(want, dict) and isinstance(got, dict):
        for key, value in want.items():
            _diff(f"{path}.{key}", value, got.get(key, _MISSING), out, source, free)
        for key in got:
            if key not in want and f"{path}.{key}" not in free:
                out.append(f"{path}.{key}: unexpected field")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _diff(f"{path}[{i}]", w, g, out, source, free)
    elif isinstance(want, list) and isinstance(got, list):
        out.append(f"{path}: expected {len(want)} entries, got {len(got)} "
                   f"(recomputed for {source})")
    else:
        shown = "an object" if isinstance(want, dict) else _brief(want)
        out.append(f"{path}: expected {shown}, got {_brief(got)} "
                   f"(recomputed for {source})")


def _diff_spec(spec, obj, out, source, free=(), prefix=""):
    """Diff each top-level section of a spec against the same key of obj."""
    for key, want in spec.items():
        _diff(prefix + key, want, _get(obj, key, _MISSING), out, source, free)


def _openbook(data, path, out):
    try:
        return AbstractOpenBook.from_dict(data)
    except ValueError as exc:
        out.append(f"{path}: {exc}")
        return None


def _check_levels(path, entries, out):
    """Every schedule entry's collar level lies strictly inside (0, 1/2)."""
    for i, entry in enumerate(entries if isinstance(entries, list) else []):
        level = _get(entry, "level")
        num, den = _get(level, "num"), _get(level, "den")
        if not (_is_int(num) and _is_int(den)) or den == 0:
            out.append(f"{path}[{i}].level: malformed level")
        elif not 0 < 2 * num * den < den * den:
            out.append(f"{path}[{i}].level: level {num}/{den} outside (0, 1/2)")


def _check_realization(path, entries, word, out):
    """The realization must list the word's letters in action order."""
    want = _realization(word)
    if isinstance(entries, list) and len(entries) != len(want):
        out.append(f"{path}: uncovered letter(s): word has {len(want)} letters, "
                   f"realization has {len(entries)}")
    else:
        _diff(path, want, entries, out, "the word in action order")


def _check_avoidance(records, out):
    """Every (surface piece, zero-section piece) pair once, disjoint, with a reason."""
    if not isinstance(records, list):
        out.append("scene.avoidance: expected the disjointness checklist")
        return
    pairs = {}
    stray = 0
    for rec in records:
        key = (_get(rec, "surface_piece"), _get(rec, "zero_section_piece"))
        if all(isinstance(k, str) for k in key) and key not in pairs:
            pairs[key] = rec
        else:
            stray += 1
    for sp in SURFACE_PIECES:
        for zp in ZERO_SECTION_PIECES:
            rec = pairs.get((sp, zp))
            if rec is None:
                out.append(f"avoidance: missing pair ({sp}, {zp})")
            elif rec.get("disjoint") is not True or rec.get("reason") not in AVOIDANCE_REASONS:
                out.append(f"avoidance ({sp}, {zp}): not marked disjoint with a "
                           "valid reason code")
    if stray or len(pairs) != len(SURFACE_PIECES) * len(ZERO_SECTION_PIECES):
        out.append("avoidance: duplicate or stray checklist entries")


def _validate_flexible(cert, out):
    inp = cert["input"]
    page = _get(inp, "page")
    g, n = _get(page, "genus"), _get(page, "boundary")
    try:
        page = Surface(g, n)
    except ValueError as exc:
        out.append(f"input.page: {exc}")
        return
    if n < 1:
        out.append("page has no boundary")
        return
    if not _is_int(_get(inp, "framing")):
        out.append("input.framing: missing integer framing")
    names = _get(inp, "curves")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        out.append("input.curves: expected a list of curve names")
        return
    config_kind = _get(inp, "config_kind")
    if config_kind == "default":
        expected = lickorish_system(page)
        if tuple(names) != expected.names():
            out.append("curve census does not match the default configuration")
    elif config_kind != "attached":
        out.append(f"input.config_kind: expected 'default' or 'attached', "
                   f"got {_brief(config_kind)}")
    _diff_spec(_flexible_spec(g, n, names), cert, out, f"Sigma_{{{g},{n}}}")
    _check_levels("schedule", cert["schedule"], out)


def _validate_witness(cert, out):
    inp = cert["input"]
    ob = _openbook(_get(inp, "openbook"), "input.openbook", out)
    if ob is None:
        return
    framing = _get(inp, "framing")
    if not _is_int(framing):
        out.append("input.framing: missing integer framing")
        return
    _diff_spec(_witness_spec(framing, len(ob.word)), cert, out,
               f"framing {framing}, {_parity(framing)} parity",
               free=("scene.page_certificate",))
    page_cert = _get(cert["scene"], "page_certificate")
    if not isinstance(page_cert, dict):
        out.append("scene.page_certificate missing")
    else:
        _diff_spec({"kind": KIND_FLEXIBLE,
                    "input": _flexible_input(ob.page, framing, ob.config)},
                   page_cert, out, "the input open book", prefix="scene.page_certificate.")
        if page_cert.get("kind") == KIND_FLEXIBLE:
            out.extend(f"page_certificate: {v}" for v in validate_certificate(page_cert))
    _check_realization("schedule", cert["schedule"], ob.word, out)


def _validate_annulus(cert, out):
    ob = _openbook(_get(cert["input"], "openbook"), "input.openbook", out)
    if ob is None:
        return
    try:
        power = core_twist_total(ob)
    except ValueError as exc:
        out.append(f"input.openbook: {exc}")
        return
    _diff_spec(_annulus_spec(power), cert, out, f"the word's total exponent {power}")


def _validate_s5_plan(cert, out):
    original = _openbook(_get(cert["input"], "openbook"), "input.openbook", out)
    if original is None:
        return
    try:
        reduced = reduce_to_one_boundary(original)
    except ValueError as exc:  # a join past the page-rank cap
        out.append(f"input.openbook: {exc}")
        return
    # H1 after the recomputed reduction cross-checks the stabilization code
    before, after = closed_h1(original), closed_h1(reduced)
    if before != after:
        out.append("normalization changed H1")
    _diff("scene.normalized_openbook", reduced.to_dict(),
          _get(cert["scene"], "normalized_openbook", _MISSING), out, "the input open book")
    # the input, the avoidance checklist and the realization are checked on their own
    _diff_spec(_s5_spec(reduced, before, after), cert, out,
               "the input and normalized open books",
               free=("input.openbook", "scene.normalized_openbook", "scene.avoidance",
                     "schedule.monodromy"))
    schedule = cert["schedule"]
    _check_levels("schedule.generators", _get(schedule, "generators"), out)
    _check_realization("schedule.monodromy", _get(schedule, "monodromy", _MISSING),
                       reduced.word, out)
    _check_avoidance(_get(cert["scene"], "avoidance"), out)


_VALIDATORS = {
    KIND_FLEXIBLE: _validate_flexible,
    KIND_WITNESS: _validate_witness,
    KIND_ANNULUS: _validate_annulus,
    KIND_S5PLAN: _validate_s5_plan,
}


def validate_certificate(cert):
    """Re-check a certificate from its serialized form alone.

    Accepts a dict or a JSON string; returns a list of violations
    (empty means valid); a missing or unknown kind is a violation too.
    Only invalid JSON text or a non-object certificate raises ValueError.
    """
    if isinstance(cert, str):
        cert = json.loads(cert)
    if not isinstance(cert, dict):
        raise ValueError("certificate must be a JSON object")
    kind = cert.get("kind", _MISSING)
    if not isinstance(kind, str) or kind not in _VALIDATORS:
        return [f"kind: unknown certificate kind {_brief(kind)}"]
    out = []
    version = cert.get("version")
    if not _is_int(version) or version != VERSION:
        out.append(f"unsupported version {version!r}")
        return out
    extra = set(cert) - _TOP_KEYS
    missing = _TOP_KEYS - set(cert)
    if extra:
        out.append(f"unexpected top-level fields {sorted(extra)}")
    if missing:
        out.append(f"missing top-level fields {sorted(missing)}")
        return out
    _VALIDATORS[kind](cert, out)
    return out
