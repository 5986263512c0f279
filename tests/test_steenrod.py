import random

import pytest

from topoinv.errors import MixedPresentations, UnsupportedPresentation
from topoinv.gralg import Element, steenrod_sq
from topoinv.parity import binom_parity
from topoinv.spaces import Family, SpaceId, catalog, presentation


def P(spec):
    return presentation(SpaceId.parse(spec))


def test_generator_rule_examples():
    p = P("RV:10,8")  # generators z2..z9
    z2 = p.gen(2)
    assert steenrod_sq(p, 1, z2).is_zero()  # even coefficient
    assert steenrod_sq(p, 2, z2) == p.gen(4)
    assert steenrod_sq(p, 3, z2).is_zero()  # above the generator degree


def test_generator_rule_respects_ambient_cutoff():
    p = P("RV:5,2")  # generators z3, z4
    assert steenrod_sq(p, 1, p.gen(3)) == p.gen(4)  # binom(3,1) odd
    assert steenrod_sq(p, 2, p.gen(3)).is_zero()  # z5 does not exist
    assert steenrod_sq(p, 4, p.gen(4)).is_zero()  # z8 outside the cutoff


def test_top_square_matches_multiplication_on_all_generators():
    spaces = catalog([Family.RV], range(3, 17))
    for s in spaces:
        p = presentation(s)
        for g in p.simple_gens:
            z = p.gen(g.label)
            assert steenrod_sq(p, g.degree, z) == z * z, (str(s), g.label)


def _random_element(p, rng, size=3):
    codes = []
    for _ in range(size):
        mask = rng.getrandbits(p.num_gens) if p.num_gens else 0
        y = rng.randrange(p.order)
        codes.append(p.pack(y, mask))
    acc = frozenset()
    for c in codes:
        acc = acc ^ {c}
    return Element(p, acc)


def test_sq0_identity_and_unstability():
    rng = random.Random(7)
    for spec in ("RV:6,3", "RV:9,5", "RV:13,12"):
        p = P(spec)
        for _ in range(10):
            a = _random_element(p, rng)
            assert steenrod_sq(p, 0, a) == a
            if not a.is_zero():
                top = max(a.degrees())
                assert steenrod_sq(p, top + 1 + rng.randrange(3), a).is_zero()


def test_top_square_on_homogeneous_elements():
    rng = random.Random(11)
    p = P("RV:9,6")
    by_deg = {}
    for c in p.basis_codes():
        by_deg.setdefault(p.monomial_degree(c), []).append(c)
    for d, codes in sorted(by_deg.items()):
        if d == 0:
            continue
        for _ in range(3):
            picked = frozenset(rng.sample(codes, min(len(codes), 2)))
            a = Element(p, picked)
            assert steenrod_sq(p, d, a) == a * a, d


def test_cartan_formula_randomized():
    rng = random.Random(3)
    spaces = catalog([Family.RV], range(3, 17))
    for s in spaces:
        p = presentation(s)
        for _ in range(3):
            a = _random_element(p, rng, 2)
            b = _random_element(p, rng, 2)
            i = rng.randrange(0, 16)
            lhs = steenrod_sq(p, i, a * b)
            rhs = p.zero()
            for t in range(i + 1):
                rhs = rhs + steenrod_sq(p, t, a) * steenrod_sq(p, i - t, b)
            assert lhs == rhs, (str(s), i)


def test_mixed_projective_elements_are_refused():
    p = P("RX:5,3")
    with pytest.raises(UnsupportedPresentation):
        steenrod_sq(p, 1, p.gen(2))
    with pytest.raises(UnsupportedPresentation):
        steenrod_sq(p, 2, p.monomial(1, (4,)))


def test_pure_y_powers_in_projective_presentations():
    # real quotient: base class of degree 1
    p = P("RX:8,3")  # truncation order 8
    y = p.y_power(1)
    assert steenrod_sq(p, 1, y) == p.y_power(2)
    assert steenrod_sq(p, 1, p.y_power(2)).is_zero()  # binom(2,1) even
    assert steenrod_sq(p, 2, p.y_power(2)) == p.y_power(4)
    assert steenrod_sq(p, 3, p.y_power(3)) == p.y_power(6)
    # complex quotient: base class of degree 2
    q = P("CX:8,4")  # truncation order 5
    assert steenrod_sq(q, 2, q.y_power(1)) == q.y_power(2)
    assert steenrod_sq(q, 1, q.y_power(1)).is_zero()
    assert steenrod_sq(q, 4, q.y_power(2)) == q.y_power(4)
    assert steenrod_sq(q, 2, q.y_power(3)) == q.y_power(4)  # binom(3,1) odd
    assert steenrod_sq(q, 2, q.y_power(4)).is_zero()  # y^5 truncated
    # quaternionic quotient: base class of degree 4
    r = P("HX:6,2")
    assert steenrod_sq(r, 4, r.y_power(1)) == r.y_power(2)
    for i in (1, 2, 3):
        assert steenrod_sq(r, i, r.y_power(1)).is_zero()


def test_exterior_generators_have_endpoint_actions_only():
    p = P("CV:3,3")  # generators of degrees 1, 3, 5
    z1, z2, z3 = p.gen(1), p.gen(2), p.gen(3)
    assert steenrod_sq(p, 3, z2).is_zero()  # top square of an exterior class
    assert steenrod_sq(p, 5, z3).is_zero()
    with pytest.raises(UnsupportedPresentation):
        steenrod_sq(p, 1, z2)  # intermediate action is not determined
    m = z1 * z2  # degree 4
    assert steenrod_sq(p, 4, m) == m * m
    assert steenrod_sq(p, 3, m).is_zero()  # every splitting dies regardless
    with pytest.raises(UnsupportedPresentation):
        steenrod_sq(p, 1, m)


def test_steenrod_checks_presentation_membership():
    p, q = P("RV:6,3"), P("RV:7,3")
    with pytest.raises(MixedPresentations):
        steenrod_sq(p, 1, q.gen(4))


def test_endpoint_rule_with_square_target():
    # custom ring: c of degree 1, a of degree 2 with a^2 = b, b of degree 4
    from topoinv.gralg import AlgebraPresentation, SimpleGenerator

    p = AlgebraPresentation(
        None,
        (
            SimpleGenerator(1, 1, "zero"),
            SimpleGenerator(2, 2, 4),
            SimpleGenerator(4, 4, "zero"),
        ),
    )
    a, b, c = p.gen(2), p.gen(4), p.gen(1)
    assert steenrod_sq(p, 2, a) == b  # top square through the rewrite rule
    # Sq^2(a*c): the only splitting not forced to zero is (Sq^2 a) * c, and
    # the undetermined Sq^1 a pairs with Sq^1 c = c^2 = 0, so it stays exact
    assert steenrod_sq(p, 2, a * c) == b * c
    with pytest.raises(UnsupportedPresentation):
        steenrod_sq(p, 1, a)  # intermediate action on a is undetermined
    with pytest.raises(UnsupportedPresentation):
        steenrod_sq(p, 1, a * b)  # Sq^1 a survives against Sq^0 b


def test_generator_rule_equals_parity_formula():
    p = P("RV:16,13")  # generators z3..z15
    for g in p.simple_gens:
        for i in range(0, g.degree + 1):
            got = steenrod_sq(p, i, p.gen(g.label))
            target = g.label + i
            if binom_parity(g.degree, i) and target in p.labels:
                assert got == p.gen(target)
            elif i == 0:
                assert got == p.gen(g.label)
            else:
                assert got.is_zero()
