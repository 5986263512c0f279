import pytest

from topoinv.errors import InvalidParameters
from topoinv.equivariant import (
    FeasibilityVerdict,
    Sphere,
    SymplecticGroup,
    feasibility,
    parse_gspace,
)
from topoinv.spaces import Family, SpaceId, truncation_order


def hv(n, k):
    return SpaceId(Family.HV, n, k)


def test_index_stiefel_examples():
    # the mod-2 index of HV:n,k is <alpha^N>, N its truncation order, and
    # that of S^(4n-1) = HV:n,1 is <alpha^n>
    assert truncation_order(hv(5, 2)) == 4
    assert truncation_order(hv(8, 3)) == 8
    for n in range(1, 65):
        assert truncation_order(hv(n, 1)) == n


def test_index_stiefel_is_the_hx_truncation_order():
    # the spectral suite checks the HX order against its first differential,
    # so this keeps the S^3-index tied to that check
    for n in range(2, 65):
        for k in range(1, n):
            assert truncation_order(hv(n, k)) == truncation_order(
                SpaceId(Family.HX, n, k)), (n, k)


def test_parse_gspace():
    assert parse_gspace("S4n-1:5") == Sphere(5)
    assert parse_gspace("HV:6,2") == hv(6, 2)
    assert parse_gspace("Sp:4") == SymplecticGroup(4)
    for bad in ("S:19", "HV:2,3", "Sp:x", "HV:6"):
        with pytest.raises(InvalidParameters):
            parse_gspace(bad)
    with pytest.raises(InvalidParameters, match="^cannot parse G-space spec 'HV:6'$"):
        parse_gspace("HV:6")


def test_feasibility_refuses_other_families():
    for space in (SpaceId(Family.RV, 3, 2), SpaceId(Family.CV, 2, 2), SpaceId(Family.HX, 3, 1)):
        for other in (Sphere(2), SymplecticGroup(2), hv(3, 2)):
            for pair in ((space, other), (other, space)):
                with pytest.raises(InvalidParameters, match="^unsupported G-space pair"):
                    feasibility(*pair)


def test_feasibility_examples():
    assert feasibility(SymplecticGroup(2), SymplecticGroup(4)).status == "possible"
    assert feasibility(SymplecticGroup(2), SymplecticGroup(5)).status == "impossible"
    v = feasibility(hv(6, 2), hv(5, 2))
    assert v.status == "impossible"
    assert "n-k=4 > m-l=3" in v.detail
    assert feasibility(Sphere(5), hv(6, 2)).status == "not-ruled-out"
    assert feasibility(Sphere(2), Sphere(3)).status == "possible"
    assert feasibility(Sphere(3), Sphere(2)).status == "impossible"


def test_feasibility_divisibility_screen():
    # equal frame gap: the binomial divisibility condition decides
    assert feasibility(hv(5, 2), hv(6, 3)).status == "not-ruled-out"  # 5 | 15
    v = feasibility(hv(6, 2), hv(5, 2 - 1))
    assert v.status == "impossible"  # gap 4 > 3 handled above; recheck equal-gap case
    v = feasibility(hv(6, 2), hv(7, 3))
    # gaps 4 = 4; binom(6,5) = 6, binom(7,5) = 21: 6 does not divide 21
    assert v.status == "impossible"
    assert "divide" in v.detail


def test_feasibility_sphere_and_stiefel_screens():
    assert feasibility(Sphere(6), hv(6, 2)).status == "impossible"  # 6 > 5
    assert feasibility(hv(6, 2), Sphere(4)).status == "impossible"  # 4 < 5
    assert feasibility(hv(6, 2), Sphere(5)).status == "not-ruled-out"


def test_feasibility_group_reductions():
    # groups enter the frame-space screens as full-rank frame spaces
    assert feasibility(SymplecticGroup(3), hv(6, 2)).status == "not-ruled-out"
    assert feasibility(SymplecticGroup(3), hv(6, 6)).status == "not-ruled-out"
    assert feasibility(SymplecticGroup(3), hv(7, 7)).status == "impossible"
    assert feasibility(Sphere(2), SymplecticGroup(4)).status == "impossible"
    assert feasibility(Sphere(1), SymplecticGroup(4)).status == "not-ruled-out"
    assert feasibility(hv(4, 2), SymplecticGroup(9)).status == "impossible"
    assert feasibility(hv(4, 4), SymplecticGroup(8)).status == "not-ruled-out"


def test_identity_maps_never_ruled_out():
    for n in range(1, 17):
        assert feasibility(Sphere(n), Sphere(n)).status == "possible"
        assert feasibility(SymplecticGroup(n), SymplecticGroup(n)).status == "possible"
        for k in range(1, n + 1):
            v = feasibility(hv(n, k), hv(n, k))
            assert v.status != "impossible", (n, k)


def test_sphere_verdicts_match_index_containment():
    for n in range(1, 17):
        for m in range(1, 17):
            verdict = feasibility(Sphere(n), Sphere(m))
            # a map source -> target forces the target index <alpha^m> inside
            # the source index <alpha^n>
            contained = n <= m
            assert (verdict.status == "possible") == contained
            sph_st = feasibility(Sphere(n), hv(m, 1))
            assert (sph_st.status == "impossible") == (not contained)


def test_sphere_and_its_frame_space_differ_exactly_on_equal_gap_sources():
    # S^(4n-1) and HV:n,1 are one S^3-space, but as targets their screens
    # disagree on whether a map is ruled out exactly on HV:a,b with
    # a - b = n - 1 and a > n (Sp:a -> S^3 is the case n = 1): the
    # stiefel-to-sphere rule lets the map through, and frame-divisibility
    # rules it out.  That is right: a prime p dividing binom(a, n) puts the
    # mod-p index of HV:a,b above n.
    sources = [Sphere(a) for a in range(1, 17)] + [SymplecticGroup(a) for a in range(1, 17)]
    sources += [hv(a, b) for a in range(1, 17) for b in range(1, a + 1)]
    gap = set()
    for n in range(1, 17):
        for source in sources:
            as_sphere, as_frames = feasibility(source, Sphere(n)), feasibility(source, hv(n, 1))
            if (as_sphere.status == "impossible") != (as_frames.status == "impossible"):
                assert (as_sphere.rule, as_sphere.status) == ("stiefel-to-sphere", "not-ruled-out")
                assert (as_frames.rule, as_frames.status) == ("frame-divisibility", "impossible")
                gap.add((str(source), n))
    want = {(f"HV:{a},{a - n + 1}", n) for n in range(1, 17) for a in range(n + 1, 17)}
    want |= {(f"Sp:{a}", 1) for a in range(2, 17)}
    assert gap == want and len(gap) == 135


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
