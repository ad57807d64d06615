"""Builders and validators for embedding certificates.

The constructions here are recorded structurally: an isotopy becomes
an ordered schedule step with a level, a disjointness claim becomes a
checklist entry with a reason code.  The validator re-derives every
invariant from the serialized certificate alone and trusts nothing
the builder did.

Each kind has one private function that builds the whole certificate
from its parsed input and derives every value in it (the annulus's
core-twist total; the S5 reduction, with H1 before and after it).
Builder and validator call it with the same arguments: a reader per
kind parses the certificate's own ``input``, and one tail turns a
rebuild's ValueError into a violation and diffs the rebuild from the
root with no path skipped, naming the JSON path of each departure.  So
``input.openbook`` must be the book's canonical form,
``AbstractOpenBook.to_dict``: the ``format_word`` spelling, and a
``config`` exactly when the configuration is not the page's default
system (``config_kind`` is "default" by the same rule,
``surface.is_default``).  The S5 avoidance checklist must list
``_AVOIDANCE_TABLE`` in table order, with the table's reasons.  Checked
besides the diff: the kind and version, H1 unchanged by the S5
normalization, collar levels in (0, 1/2), the default census, and the
types in a witness's page certificate that the diff, comparing 1, 1.0
and true as equal, cannot see.  Only ``surface.load_config_override``
applies the kind rule.

Certificate wire format (JSON): top-level keys are exactly
{kind, version, input, scene, schedule, checks}, version 1.
"""

from functools import reduce

from .intlinalg import brief
from .openbook import AbstractOpenBook, closed_h1, core_twist_total, reduce_to_one_boundary
from .surface import Surface, canonical_json, is_default, lickorish_system, read_json

VERSION = 1

KIND_FLEXIBLE = "flexible_page_embedding"
KIND_WITNESS = "openbook_embedding_witness"
KIND_ANNULUS = "annulus_trivial_s5"
KIND_S5PLAN = "s5_plan"

TARGET_EVEN = "S3xS2"
TARGET_ODD = "twisted"

ZERO_SECTION_PIECES = ("handle_core_disk", "attaching_circle_cylinder", "bottom_disk")

# Disjointness reasons, one per (surface piece, zero-section piece) pair, in
# the order of the S5 checklist.
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
    return canonical_json(cert) + "\n"


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
    den = 2 * (len(curve_names) + 1)
    return [{"curve": name, "order": idx, "level": _ratio(idx, den), "band_sum_curve": "C#bCH",
             "isotopy": ["push", "twist", "return"]}
            for idx, name in enumerate(curve_names, start=1)]


def _realization(word):
    """The word's letters in action order, each against its schedule entry."""
    return [{"position": pos, "curve": name, "exponent": exp, "schedule_ref": name}
            for pos, (name, exp) in enumerate(reversed(word.letters), start=1)]


# ---------------------------------------------------------------------------
# certificates, one function per kind: each builds the whole certificate
# from its parsed input, for the builder and again for the validator


def _flexible(page, framing, names, config_kind):
    g, n, chi = page.genus, page.boundary_count, page.euler_characteristic
    return {
        "kind": KIND_FLEXIBLE, "version": VERSION,
        "input": {"page": {"genus": g, "boundary": n}, "framing": framing,
                  "curves": names, "config_kind": config_kind},
        "scene": {
            "removed_disks": [f"D{i}" for i in range(1, n + 1)],
            "twisted_band": {"on_disk": "D1", "full_twists": 1},
            "hopf_boundary_pair": ["H1", "H2"],
            "capping_disk": {"caps": "H1", "side": "handle", "center_curve_shrinks": True},
            "boundary_cylinders": [{"disk": f"D{i}", "from": _ratio(1, 2), "to": _ratio(1, 1)}
                                   for i in range(1, n + 1)],
            "intermediate_boundary_components": n + 1,
        },
        "schedule": _schedule_for(names),
        "checks": {"euler_intermediate": chi - 1, "euler_capped": chi},
    }


def _witness(ob, framing):
    return {
        "kind": KIND_WITNESS, "version": VERSION,
        "input": {"openbook": ob.to_dict(), "framing": framing},
        "scene": {
            "target": _total_space(framing),
            "target_openbook": {"page": f"DE({framing})", "monodromy": "identity"},
            "bundle": disk_bundle_model(framing),
            "page_certificate": _flexible(ob.page, framing, list(ob.config.names()),
                                          "default" if is_default(ob.config) else "attached"),
        },
        "schedule": _realization(ob.word),
        "checks": {"word_length": len(ob.word), "framing_parity": _parity(framing)},
    }


def _annulus(ob):
    power = core_twist_total(ob)
    return {
        "kind": KIND_ANNULUS, "version": VERSION,
        "input": {"openbook": ob.to_dict()},
        "scene": {
            "hopf_band": {"ambient": "S3", "boundary": ["H1", "H2"]},
            "collar_pushing": {"target": "D4", "proper": True, "levels": "boundary collar"},
            "isotopy_extension": {"rule": "collar reflection", "fixes_boundary": True},
        },
        "schedule": [{"core_twist_power": power}],
        "checks": {"realized_power": power},
    }


def _s5_plan(ob):
    """The plan of ob's one-boundary reduction, with H1 before and after it."""
    reduced = reduce_to_one_boundary(ob)
    before, after = closed_h1(ob), closed_h1(reduced)
    return {
        "kind": KIND_S5PLAN, "version": VERSION,
        "input": {"openbook": ob.to_dict(), "h1": before.as_dict()},
        "scene": {
            "de1": {"framing": 1, "attaching_circle": "K",
                    "pushed_core_boundary": "K_prime", "linking_unknot": "U"},
            "hopf_annulus": {"level": _ratio(1, 2), "boundary": ["U", "K_prime"]},
            "handlebody": {"genus": reduced.page.genus,
                           "placement": "complement_solid_torus"},
            "connected_sum": {"pieces": ["page_body", "hopf_annulus"], "band": "ambient"},
            "zero_section": list(ZERO_SECTION_PIECES),
            "assembly": {"complement": "S3 x (0,1]", "capping": "S3 x D2",
                         "target": "S3xR2"},
            "normalized_openbook": reduced.to_dict(),
            "avoidance": [
                {"surface_piece": sp, "zero_section_piece": zp, "disjoint": True,
                 "reason": reason}
                for (sp, zp), reason in _AVOIDANCE_TABLE.items()
            ],
        },
        "schedule": {"generators": _schedule_for(list(reduced.config.names())),
                     "monodromy": _realization(reduced.word)},
        "checks": {"h1_before": before.as_dict(), "h1_after": after.as_dict(),
                   "boundary_after": reduced.page.boundary_count},
    }


# ---------------------------------------------------------------------------
# builders


def build_flexible_embedding(page, framing):
    """Certificate for the flexible proper embedding of a page in DE(m).

    The scene removes one disk per boundary component from the closed
    surface, attaches a full-twist band on the first disk to create a
    Hopf boundary pair, caps one Hopf boundary with the handle-side
    disk, and runs every generator twist at its own collar level in
    (0, 1/2).
    """
    return _flexible(page, framing, list(lickorish_system(page).names()), "default")


def build_openbook_embedding(ob, framing):
    """Witness that the open book embeds in the identity open book of DE(m).

    The page certificate provides one ambient twist per generator;
    the realization lists the word's letters in action order against
    their schedule entries.  The target's total space is S3xS2 for
    even framing and its twisted partner for odd framing.
    """
    return _witness(ob, framing)


def build_annulus_s5(ob):
    """Certificate embedding an annulus-page open book in the trivial
    open book of S5.

    Requires the page to be the annulus with a word of core twists;
    the realized power is the total signed exponent.
    """
    return _annulus(ob)


def build_s5_plan(ob):
    """Plan embedding the closed manifold of an open book in S5.

    The input is normalized to a one-boundary page (homology must be
    unchanged, and both records are kept), the page goes into the
    standard DE(1) scene away from the zero section, and the checklist
    records why each surface piece misses each zero-section piece.
    Avoiding the zero section places everything in its complement, so
    the manifold lands in S3 x R2 and hence in S5.
    """
    plan = _s5_plan(ob)
    if plan["checks"]["h1_before"] != plan["checks"]["h1_after"]:
        raise AssertionError("boundary reduction changed H1; stabilization bug")
    return plan


# ---------------------------------------------------------------------------
# validation

class _Missing:  # a field absent from a certificate
    def __repr__(self):
        return "nothing"


_MISSING = _Missing()


def _get(obj, key):
    return obj.get(key) if isinstance(obj, dict) else None


def _diff(path, want, got, out, source):
    """Record where ``got`` departs from the recomputed ``want``; the root's path is "".

    Leaves compare as Python values, so 1, 1.0 and true are equal.
    """
    if got == want:
        return
    if isinstance(want, dict) and isinstance(got, dict):
        dot = f"{path}." if path else ""
        for key, value in want.items():
            _diff(f"{dot}{key}", value, got.get(key, _MISSING), out, source)
        for key in got:
            if key not in want:
                out.append(f"{dot}{brief(key, bare=True)}: unexpected field")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _diff(f"{path}[{i}]", w, g, out, source)
    elif isinstance(want, list) and isinstance(got, list):
        out.append(f"{path}: expected {len(want)} entries, got {len(got)} "
                   f"(recomputed for {source})")
    else:
        shown = "an object" if isinstance(want, dict) else brief(want)
        out.append(f"{path}: expected {shown}, got {brief(got)} "
                   f"(recomputed for {source})")


def _framing_ok(inp, path, out):
    """Whether the framing is an int (not a bool) that converts to text; records why not."""
    framing = _get(inp, "framing")
    try:
        if type(framing) is int and str(framing):
            return True
        out.append(f"{path}.framing: missing integer framing")
    except ValueError as exc:  # more digits than the interpreter writes, as DE(framing) needs
        out.append(f"{path}.framing: {exc}")
    return False


def _flexible_input(inp, path, out):
    """A flexible certificate's input as (page, framing, curve names, config
    kind), every type exact; None after recording why not."""
    page = _get(inp, "page")
    try:
        page = Surface(_get(page, "genus"), _get(page, "boundary"))
    except ValueError as exc:
        out.append(f"{path}.page: {exc}")
        return None
    found = len(out)
    _framing_ok(inp, path, out)
    names = _get(inp, "curves")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        out.append(f"{path}.curves: expected a list of curve names")
    config_kind = _get(inp, "config_kind")
    if config_kind not in ("default", "attached"):
        out.append(f"{path}.config_kind: expected 'default' or 'attached', "
                   f"got {brief(config_kind)}")
    return None if len(out) > found else (page, inp["framing"], names, config_kind)


def _check_levels(path, entries, out):
    """Every schedule entry's collar level lies strictly inside (0, 1/2)."""
    for i, entry in enumerate(entries if isinstance(entries, list) else []):
        level = _get(entry, "level")
        num, den = _get(level, "num"), _get(level, "den")
        if not (type(num) is int and type(den) is int) or den == 0:
            out.append(f"{path}[{i}].level: malformed level")
        elif not 0 < 2 * num * den < den * den:
            out.append(f"{path}[{i}].level: level {brief(num)}/{brief(den)} outside (0, 1/2)")


def _check_page_types(cert, want, out):
    """The types in a witness's page certificate that the diff, comparing 1, 1.0 and true
    as equal, cannot see; an input unequal by value is a departure the diff reported."""
    page_cert = _get(cert.get("scene"), "page_certificate")
    if isinstance(page_cert, dict):
        path = "scene.page_certificate"
        version = page_cert.get("version")
        if version == VERSION and type(version) is not int:
            out.append(f"{path}.version: unsupported version {brief(version)}")
        if (inp := page_cert.get("input")) == want["scene"]["page_certificate"]["input"]:
            _flexible_input(inp, f"{path}.input", out)


def _read_flexible(inp, ob, out):
    parsed = _flexible_input(inp, "input", out)
    if parsed is None:
        return None
    page, framing, names, config_kind = parsed
    if config_kind == "default" and tuple(names) != lickorish_system(page).names():
        out.append("curve census does not match the default configuration")
    return _flexible(page, framing, names, config_kind), str(page), "schedule"


def _read_witness(inp, ob, out):
    if _framing_ok(inp, "input", out):
        framing = inp["framing"]
        return (_witness(ob, framing), f"framing {brief(framing)}, {_parity(framing)} parity",
                "scene.page_certificate.schedule")


def _read_annulus(inp, ob, out):
    cert = _annulus(ob)
    return cert, f"the word's total exponent {brief(cert['checks']['realized_power'])}", None


def _read_s5_plan(inp, ob, out):
    plan = _s5_plan(ob)
    # H1 after the recomputed reduction cross-checks the stabilization code
    if plan["checks"]["h1_before"] != plan["checks"]["h1_after"]:
        out.append("normalization changed H1")
    return plan, "the input and normalized open books", "schedule.generators"


# kind -> reader(input, parsed book or None, violations): the rebuilt certificate, what it
# was recomputed for and the path of its collar levels (or None); None after recording why not
_READERS = {
    KIND_FLEXIBLE: _read_flexible,
    KIND_WITNESS: _read_witness,
    KIND_ANNULUS: _read_annulus,
    KIND_S5PLAN: _read_s5_plan,
}


def validate_certificate(cert):
    """Re-check a certificate from its serialized form alone.

    Accepts a dict or a JSON string; returns a list of violations
    (empty means valid); a missing or unknown kind is a violation too.
    Only invalid JSON text or a non-object certificate raises ValueError.
    """
    if isinstance(cert, str):
        cert = read_json(cert)
    if not isinstance(cert, dict):
        raise ValueError("certificate must be a JSON object")
    kind = cert.get("kind", _MISSING)
    if not isinstance(kind, str) or kind not in _READERS:
        return [f"kind: unknown certificate kind {brief(kind)}"]
    version = cert.get("version")
    if type(version) is not int or version != VERSION:
        return [f"unsupported version {brief(version)}"]
    out = []
    inp = cert.get("input")
    try:
        ob = None if kind == KIND_FLEXIBLE else AbstractOpenBook.from_dict(_get(inp, "openbook"))
        read = _READERS[kind](inp, ob, out)
    except ValueError as exc:  # an unreadable book, or one its kind's rebuild refuses
        out.append(f"input.openbook: {exc}")
        return out
    if read is None:
        return out
    want, source, levels = read
    _diff("", want, cert, out, source)
    if kind == KIND_WITNESS:
        _check_page_types(cert, want, out)
    if levels:
        _check_levels(levels, reduce(_get, levels.split("."), cert), out)
    return out
