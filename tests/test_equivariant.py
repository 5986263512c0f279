import pytest

from topoinv.errors import InvalidParameters
from topoinv.equivariant import (
    FeasibilityVerdict,
    IndexIdeal,
    Sphere,
    StiefelH,
    SymplecticGroup,
    feasibility,
    ideal_contains,
    index_sphere,
    index_stiefel_mod2,
    parse_gspace,
)
from topoinv.spaces import Family, SpaceId, truncation_order


def test_index_sphere_examples():
    assert index_sphere(1) == IndexIdeal(1)
    assert index_sphere(2) == IndexIdeal(2)
    assert index_sphere(5) == IndexIdeal(5)
    with pytest.raises(InvalidParameters):
        index_sphere(0)


def test_index_stiefel_examples():
    assert index_stiefel_mod2(5, 2).exponent == 4
    assert index_stiefel_mod2(8, 3).exponent == 8
    for n in range(1, 65):
        assert index_stiefel_mod2(n, 1) == index_sphere(n)


def test_index_stiefel_is_the_hx_truncation_order():
    # the spectral suite checks the HX order against its first differential,
    # so this keeps the S^3-index tied to that check
    for n in range(2, 65):
        for k in range(1, n):
            assert index_stiefel_mod2(n, k).exponent == truncation_order(
                SpaceId(Family.HX, n, k)), (n, k)


def test_ideal_contains():
    assert ideal_contains(IndexIdeal(2), IndexIdeal(5))
    assert not ideal_contains(IndexIdeal(5), IndexIdeal(2))
    assert ideal_contains(IndexIdeal(3), IndexIdeal(3))


def test_parse_gspace():
    assert parse_gspace("S4n-1:5") == Sphere(5)
    assert parse_gspace("HV:6,2") == StiefelH(6, 2)
    assert parse_gspace("Sp:4") == SymplecticGroup(4)
    for bad in ("S:19", "HV:2,3", "Sp:x", "HV:6"):
        with pytest.raises(InvalidParameters):
            parse_gspace(bad)


def test_feasibility_examples():
    assert feasibility(SymplecticGroup(2), SymplecticGroup(4)).status == "possible"
    assert feasibility(SymplecticGroup(2), SymplecticGroup(5)).status == "impossible"
    v = feasibility(StiefelH(6, 2), StiefelH(5, 2))
    assert v.status == "impossible"
    assert "n-k=4 > m-l=3" in v.detail
    assert feasibility(Sphere(5), StiefelH(6, 2)).status == "not-ruled-out"
    assert feasibility(Sphere(2), Sphere(3)).status == "possible"
    assert feasibility(Sphere(3), Sphere(2)).status == "impossible"


def test_feasibility_divisibility_screen():
    # equal frame gap: the binomial divisibility condition decides
    assert feasibility(StiefelH(5, 2), StiefelH(6, 3)).status == "not-ruled-out"  # 5 | 15
    v = feasibility(StiefelH(6, 2), StiefelH(5, 2 - 1))
    assert v.status == "impossible"  # gap 4 > 3 handled above; recheck equal-gap case
    v = feasibility(StiefelH(6, 2), StiefelH(7, 3))
    # gaps 4 = 4; binom(6,5) = 6, binom(7,5) = 21: 6 does not divide 21
    assert v.status == "impossible"
    assert "divide" in v.detail


def test_feasibility_sphere_and_stiefel_screens():
    assert feasibility(Sphere(6), StiefelH(6, 2)).status == "impossible"  # 6 > 5
    assert feasibility(StiefelH(6, 2), Sphere(4)).status == "impossible"  # 4 < 5
    assert feasibility(StiefelH(6, 2), Sphere(5)).status == "not-ruled-out"


def test_feasibility_group_reductions():
    # groups enter the frame-space screens as full-rank frame spaces
    assert feasibility(SymplecticGroup(3), StiefelH(6, 2)).status == "not-ruled-out"
    assert feasibility(SymplecticGroup(3), StiefelH(6, 6)).status == "not-ruled-out"
    assert feasibility(SymplecticGroup(3), StiefelH(7, 7)).status == "impossible"
    assert feasibility(Sphere(2), SymplecticGroup(4)).status == "impossible"
    assert feasibility(Sphere(1), SymplecticGroup(4)).status == "not-ruled-out"
    assert feasibility(StiefelH(4, 2), SymplecticGroup(9)).status == "impossible"
    assert feasibility(StiefelH(4, 4), SymplecticGroup(8)).status == "not-ruled-out"


def test_identity_maps_never_ruled_out():
    for n in range(1, 17):
        assert feasibility(Sphere(n), Sphere(n)).status == "possible"
        assert feasibility(SymplecticGroup(n), SymplecticGroup(n)).status == "possible"
        for k in range(1, n + 1):
            v = feasibility(StiefelH(n, k), StiefelH(n, k))
            assert v.status != "impossible", (n, k)


def test_sphere_verdicts_match_index_containment():
    for n in range(1, 17):
        for m in range(1, 17):
            verdict = feasibility(Sphere(n), Sphere(m))
            # a map source -> target forces the target index inside the source index
            contained = ideal_contains(index_sphere(n), index_sphere(m))
            assert (verdict.status == "possible") == contained
            sph_st = feasibility(Sphere(n), StiefelH(m, 1))
            assert (sph_st.status == "impossible") == (not contained)


def test_exact_verdicts_compose():
    # chains of possible maps stay possible for the exact characterizations
    for n in range(1, 11):
        for m in range(n, 11):
            for p in range(m, 11):
                if (
                    feasibility(Sphere(n), Sphere(m)).status == "possible"
                    and feasibility(Sphere(m), Sphere(p)).status == "possible"
                ):
                    assert feasibility(Sphere(n), Sphere(p)).status == "possible"
    for n in range(1, 9):
        for m in range(1, 17):
            for p in range(1, 17):
                if (
                    feasibility(SymplecticGroup(n), SymplecticGroup(m)).status == "possible"
                    and feasibility(SymplecticGroup(m), SymplecticGroup(p)).status == "possible"
                ):
                    assert feasibility(SymplecticGroup(n), SymplecticGroup(p)).status == "possible"


def test_impossible_always_states_the_condition():
    with pytest.raises(InvalidParameters):
        FeasibilityVerdict("impossible", "frame-gap", "")
    with pytest.raises(InvalidParameters):
        FeasibilityVerdict("maybe", "frame-gap", "x")
