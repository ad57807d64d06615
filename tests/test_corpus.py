"""Golden checks against the committed benchmark corpus (read only).

Every certificate spec of ``bench/corpus/cert-roundtrip.json`` must
rebuild to its SHA-256 pin, and the closed and mapping-torus H1 of the
tiny and medium books of ``bench/corpus/h1-batch.json`` (up to the
(6,2,400) rung) and of every ``bench/corpus/h1-highrank.json`` book
(rank 16-24, including the ``slow:`` books whose torsion runs to
hundreds of bits) must match their recorded values.  At the same ranks,
``closed_h1`` must be invariant under positive stabilization and
conjugation of the word.  A last check keeps the benchmark tracer's
wrapped names resolvable in the package.
"""

import hashlib
import importlib
import importlib.util
import json
import random
from pathlib import Path

from obembed import (AbstractOpenBook, JoinBoundaries, SameBoundary, Surface, closed_h1,
                     lickorish_system, mapping_torus_h1, parse_openbook, stabilize_positive)
from obembed.embedder import (build_annulus_s5, build_flexible_embedding,
                              build_openbook_embedding, build_s5_plan,
                              certificate_to_json)

from helpers import fixed_length_word

BENCH = Path(__file__).resolve().parents[1] / "bench"
LARGEST_RUNG = (6, 2, 400)


def load(name):
    with open(BENCH / "corpus" / name, encoding="utf-8") as fh:
        return json.load(fh)


def build(spec):
    kind = spec["kind"]
    if kind == "flexible":
        return build_flexible_embedding(Surface(*spec["page"]), spec["framing"])
    ob = parse_openbook(spec["text"])
    if kind == "witness":
        return build_openbook_embedding(ob, spec["framing"])
    if kind == "annulus":
        return build_annulus_s5(ob)
    assert kind == "s5", kind
    return build_s5_plan(ob)


def test_certificates_match_their_pins():
    specs = load("cert-roundtrip.json")["specs"]
    mismatched = [i for i, spec in enumerate(specs)
                  if hashlib.sha256(certificate_to_json(build(spec)).encode("utf-8"))
                  .hexdigest() != spec["sha256"]]
    assert len(specs) > 400
    assert mismatched == []


def in_range(book):
    if book["class"] == "tiny":
        return True
    rung = tuple(int(x) for x in book["class"].split(":", 1)[1].split(","))
    return rung <= LARGEST_RUNG


def wrong_h1(books):
    wrong = []
    for b in books:
        ob = parse_openbook(b["text"])
        if (closed_h1(ob).as_dict(), mapping_torus_h1(ob).as_dict()) != (b["h1"], b["mt_h1"]):
            wrong.append(b["text"])
    return wrong


def test_h1_batch_values():
    books = [b for b in load("h1-batch.json")["books"] if in_range(b)]
    assert any(b["class"] == "medium:6,2,400" for b in books)
    assert wrong_h1(books) == []


def test_h1_highrank_values():
    books = load("h1-highrank.json")["books"]
    assert sum(b["class"].startswith("slow:") for b in books) == 8
    assert wrong_h1(books) == []


def test_highrank_stabilization_and_conjugation_invariance():
    rng = random.Random(2026)
    torsion_seen = 0
    for genus, boundary in ((10, 1), (10, 3), (11, 1), (11, 2), (12, 1), (12, 2)):
        page = Surface(genus, boundary)
        cfg = lickorish_system(page)
        names, exps = cfg.names(), (-3, -2, -1, 1, 2, 3)
        word = fixed_length_word(rng, names, 100, exps)
        ob = AbstractOpenBook(page, word, cfg)
        h = closed_h1(ob)
        torsion_seen += bool(h.torsion)
        assert closed_h1(stabilize_positive(ob, SameBoundary(boundary))) == h
        if boundary >= 2:
            assert closed_h1(stabilize_positive(ob, JoinBoundaries(1, boundary))) == h
        psi = fixed_length_word(rng, names, 6, exps)
        conj = psi.concat(word).concat(psi.inverse())
        assert closed_h1(AbstractOpenBook(page, conj, cfg)) == h
    assert torsion_seen


def test_tracer_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for name, modules in tracer.WRAPPED:
        attr = name.split(".", 1)[1]
        for module in modules:
            assert callable(getattr(importlib.import_module(module), attr, None)), \
                f"{module}.{attr} (traced as {name}) does not resolve"
