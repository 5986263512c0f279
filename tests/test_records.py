"""The value records: equality, hashing, construction, immutability, repr,
validation messages and pickling."""

import copy
import pickle

import pytest

from topoinv._record import Record
from topoinv.equivariant import FeasibilityVerdict, Sphere, SymplecticGroup
from topoinv.errors import InvalidParameters
from topoinv.gralg import AlgebraPresentation, CupResult, SimpleGenerator, Trunc, cup_length
from topoinv.invariants import RankResult, cup_report, ucharrank
from topoinv.spaces import Family, SpaceId, presentation, serre_verify


def one_of_each():
    space = SpaceId(Family.RX, 7, 2)
    p = presentation(space)
    return [
        SimpleGenerator(4, 4), Trunc(1, 6), p, cup_length(p), space, serre_verify(space),
        ucharrank(space), cup_report(space), Sphere(2), SymplecticGroup(2), FeasibilityVerdict("possible", "sphere-sphere", "2 <= 3"),
    ]


def test_equality_holds_only_within_a_class():
    assert Sphere(3) == Sphere(3)
    assert Sphere(3) != SymplecticGroup(3)
    assert Sphere(3) != Sphere(4)
    assert SpaceId(Family.HV, 3, 3) != SymplecticGroup(3)
    space = SpaceId(Family.RV, 8, 3)
    assert space != (Family.RV, 8, 3)
    assert space != ("RV", 8, 3)
    assert (Family.RV, 8, 3) != space
    assert CupResult(2, ("y", "y")) != (2, ("y", "y"))


def test_hash_agrees_with_equality():
    for record in one_of_each():
        twin = copy.copy(record)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
    grid = {SpaceId(Family.RV, 8, k): k for k in range(1, 8)}
    assert grid[SpaceId("RV", 8, 3)] == 3
    assert SpaceId(Family.RV, 8, 4) in grid and SpaceId(Family.CV, 8, 4) not in grid
    # RX:n,2 and FV:n,1 are the same ring
    rx, fv = presentation(SpaceId(Family.RX, 7, 2)), presentation(SpaceId(Family.FV, 7, 1))
    assert rx is not fv
    assert rx == fv and hash(rx) == hash(fv)
    assert len({rx, fv}) == 1


def test_keyword_construction_and_defaults():
    rank = RankResult(kind="exact", case_label="a1", value=5, n_index_used=6)
    assert (rank.lo, rank.hi, rank.advisory, rank.reason) == (None, None, None, None)
    assert rank == RankResult.exact(5, "a1", n_index_used=6)
    assert FeasibilityVerdict("not-ruled-out", "frame-gap", detail="").detail == ""
    assert FeasibilityVerdict("not-ruled-out", "frame-gap").detail == ""
    assert CupResult(value=0, witness=()).caveat is False
    assert SimpleGenerator(label=3, degree=3).square == "zero"
    gens = (SimpleGenerator(1, 1, 2), SimpleGenerator(2, 2))
    p = AlgebraPresentation(trunc=None, simple_gens=gens)
    assert (p.symbol, p.y_symbol) == ("g", "y")
    q = AlgebraPresentation(None, gens, symbol="z", y_symbol="w")
    assert (q.symbol, q.y_symbol) == ("z", "w")
    assert p != q


def test_space_id_coerces_the_family():
    space = SpaceId("RV", 3, 2)
    assert space.family is Family.RV
    assert space == SpaceId(Family.RV, 3, 2)
    with pytest.raises(ValueError):
        SpaceId("QV", 3, 2)


def test_fields_are_read_only():
    for record in one_of_each():
        name = type(record).__init__.__code__.co_varnames[1]  # the first field
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is value


@pytest.mark.parametrize("build, message", [
    (lambda: SpaceId(Family.RV, 0, 1), "RV:0,1: n and k must be positive"),
    (lambda: SpaceId(Family.RX, 3, 9), "parameters out of range for RX:3,9"),
    (lambda: Sphere(0), "sphere parameter must be positive, got 0"),
    (lambda: SymplecticGroup(-1), "group parameter must be positive, got -1"),
    (lambda: FeasibilityVerdict("maybe", "r"), "bad verdict status 'maybe'"),
    (lambda: FeasibilityVerdict("impossible", "r"),
     "impossible verdicts must state the violated condition"),
    (lambda: AlgebraPresentation(Trunc(0, 2), ()), "bad truncation Trunc(degree=0, order=2)"),
    (lambda: AlgebraPresentation(None, (SimpleGenerator(2, 2), SimpleGenerator(1, 1))),
     "generator labels must be strictly increasing"),
])
def test_validation_messages(build, message):
    with pytest.raises(InvalidParameters) as info:
        build()
    assert str(info.value) == message


def test_repr_names_every_field():
    assert repr(SpaceId(Family.RV, 8, 3)) == "SpaceId(family=<Family.RV: 'RV'>, n=8, k=3)"
    assert repr(CupResult(2, ("y",))) == "CupResult(value=2, witness=('y',))"
    assert repr(Trunc(1, 4)) == "Trunc(degree=1, order=4)"
    assert repr(presentation(SpaceId(Family.RX, 5, 2))) == (
        "AlgebraPresentation(trunc=Trunc(degree=1, order=4), "
        "simple_gens=(SimpleGenerator(label=4, degree=4, square='zero'),), "
        "symbol='y', y_symbol='y')"
    )
    assert str(SpaceId(Family.RV, 8, 3)) == "RV:8,3"
    assert str(Sphere(2)) == "S4n-1:2"


def test_records_survive_pickling():
    # grid commands send spaces to worker processes
    for record in one_of_each():
        twin = pickle.loads(pickle.dumps(record))
        assert type(twin) is type(record) and twin == record


def test_equality_reads_every_field():
    # the fields are set directly: a constructor would refuse the stand-in
    stand_in = object()
    for record in one_of_each():
        cls = type(record)
        for changed in cls._fields:
            twin = object.__new__(cls)
            for name in cls._fields:
                value = stand_in if name == changed else getattr(record, name)
                object.__setattr__(twin, name, value)
            assert twin != record and record != twin, (cls.__name__, changed)


def test_record_alone_defines_equality_and_hash():
    records = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("topoinv.")]
    assert {type(record) for record in one_of_each()} == set(records)
    assert len(records) == 11
    for cls in records:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__name__
