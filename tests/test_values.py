"""Value semantics of the package's immutable classes.

Equality and hash by field, the exact repr strings, the defaults,
immutability, copying and pickling, and what a fresh interpreter loads
on ``import obembed``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from obembed import (AbelianGroup, AbstractOpenBook, ConfiguredCurve, CurveConfig,
                     IntMatrix, JoinBoundaries, SameBoundary, Surface, TwistWord, lickorish_system,
                     parse_word, relation_report)
from obembed.mcg import RelationCheck, RelationReport

ANNULUS = Surface(0, 2)
ANNULUS_TEXT = "Surface(genus=0, boundary_count=2)"
ANNULUS_CURVES = ("(ConfiguredCurve(name='d1', kind='boundary_parallel', homology_class=(1,)), "
                  "ConfiguredCurve(name='d2', kind='boundary_parallel', homology_class=(-1,)))")
ANNULUS_CONFIG = f"CurveConfig(surface={ANNULUS_TEXT}, curves={ANNULUS_CURVES})"


def lens5():
    return AbstractOpenBook.with_default_config(ANNULUS, parse_word("t(d1)^5"), "lens")


def samples():
    """One instance of every value class, with a different instance of the same class."""
    cfg = lickorish_system(Surface(1, 2))
    return [
        (Surface(1, 2), Surface(2, 1)),
        (ConfiguredCurve("a1", "handle_a", [1, 0]), ConfiguredCurve("b1", "handle_b", [0, 1])),
        (cfg, CurveConfig(Surface(1, 2), cfg.curves[1:])),
        (TwistWord((("a1", 2), ("b1", -1))), TwistWord((("a1", 2),))),
        (RelationCheck("braid(a1,b1)", "braid", True), RelationCheck("braid(a1,b1)", "braid", False)),
        (relation_report(cfg), RelationReport(cfg.surface, ())),
        (AbelianGroup(1, (2, 4)), AbelianGroup(1, (2,))),
        (lens5(), AbstractOpenBook.with_default_config(ANNULUS, parse_word("t(d1)^5"))),
        (SameBoundary(1), SameBoundary(2)),
        (JoinBoundaries(1, 2), JoinBoundaries(2, 1)),
    ]


@pytest.mark.parametrize("value, text", [
    (Surface(1, 2), "Surface(genus=1, boundary_count=2)"),
    (SameBoundary(1), "SameBoundary(j=1)"),
    (JoinBoundaries(1, 2), "JoinBoundaries(j=1, k=2)"),
    (AbelianGroup(1, (2, 4)), "AbelianGroup(free_rank=1, torsion=(2, 4))"),
    (AbelianGroup(0), "AbelianGroup(free_rank=0, torsion=())"),
    (TwistWord((("a1", 2), ("b1", 0))), "TwistWord(letters=(('a1', 2),))"),
    (TwistWord(), "TwistWord(letters=())"),
    (ConfiguredCurve("a1", "handle_a", [1, 0]),
     "ConfiguredCurve(name='a1', kind='handle_a', homology_class=(1, 0))"),
    (lickorish_system(ANNULUS), ANNULUS_CONFIG),
    (RelationCheck("x", "braid", True), "RelationCheck(name='x', kind='braid', passed=True)"),
    (relation_report(lickorish_system(ANNULUS)),
     f"RelationReport(surface={ANNULUS_TEXT}, checks=(RelationCheck(name='commute(d1,d2)', "
     "kind='commutation', passed=True),))"),
    (lens5(), f"AbstractOpenBook(page={ANNULUS_TEXT}, word=TwistWord(letters=(('d1', 5),)), "
              f"config={ANNULUS_CONFIG}, label='lens')"),
])
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, other", samples(), ids=lambda v: type(v).__name__)
def test_equality_and_hash_by_field(value, other):
    twin = copy.copy(value)
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert value != other and not value == other
    assert len({value, twin, other}) == 2


def test_other_classes_compare_unequal():
    assert SameBoundary(1) != JoinBoundaries(1, 2)
    assert Surface(1, 2) != (1, 2)
    assert TwistWord() != ()
    assert Surface(1, 2).__eq__((1, 2)) is NotImplemented
    assert SameBoundary(1).__eq__(JoinBoundaries(1, 1)) is NotImplemented


def test_defaults():
    assert TwistWord() == TwistWord(()) and TwistWord().letters == ()
    assert AbelianGroup(0) == AbelianGroup(0, ()) and AbelianGroup(0).torsion == ()
    cfg = CurveConfig(ANNULUS, lickorish_system(ANNULUS).curves)
    assert cfg == lickorish_system(ANNULUS)
    ob = AbstractOpenBook(ANNULUS, TwistWord(), cfg)
    assert ob.label is None
    assert AbstractOpenBook.with_default_config(ANNULUS) == ob


def test_config_caches_stay_out_of_equality_and_repr():
    curves = lickorish_system(Surface(1, 2)).curves
    used, fresh = CurveConfig(Surface(1, 2), curves), CurveConfig(Surface(1, 2), curves)
    used.twist("a1")
    used.twist("d1")
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_index" not in repr(used) and "_twists" not in repr(used)


@pytest.mark.parametrize("value, other", samples(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value, other):
    name = repr(value).split("(", 1)[1].split("=", 1)[0]  # the first field
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert repr(value) == before


@pytest.mark.parametrize("value, other", samples(), ids=lambda v: type(v).__name__)
def test_deepcopy_and_pickle_round_trips(value, other):
    for back in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)


def test_copied_config_keeps_working():
    cfg = lickorish_system(Surface(1, 3))
    for back in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert back.names() == cfg.names()
        assert back.curve("e1") == cfg.curve("e1")
        assert back.twist("e1") == cfg.twist("e1")


def test_matrix_is_an_immutable_value():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert repr(m) == "IntMatrix(2x2, [[1, 2], [3, 4]])"
    assert m == IntMatrix(2, 2, [[1, 2], [3, 4]]) and hash(m) == hash(IntMatrix(2, 2, m.row_lists()))
    assert m != m.transpose() and m != IntMatrix(1, 4, [[1, 2, 3, 4]])
    assert m.__eq__(((1, 2), (3, 4))) is NotImplemented
    for back in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert back == m and repr(back) == repr(m)
    for name in ("rows", "cols", "data"):
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.row_lists() == [[1, 2], [3, 4]]


def test_surface_keys_the_system_cache():
    page = Surface(2, 3)
    cfg = lickorish_system(page)
    assert lickorish_system(Surface(2, 3)) is cfg
    assert lickorish_system(pickle.loads(pickle.dumps(page))) is cfg
    assert lickorish_system(copy.deepcopy(page)) is cfg
    assert lickorish_system(Surface(3, 2)) is not cfg


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, obembed, obembed.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
