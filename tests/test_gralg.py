import gc
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from topoinv.errors import (
    DimensionCapExceeded,
    InvalidParameters,
    MixedPresentations,
    WorkCapExceeded,
)
from topoinv.gralg import (
    ORACLE_MASK_CAP,
    SERIES_WORK_CAP,
    SQ_ZERO,
    TENSOR_BLOCK_CAP,
    AlgebraPresentation,
    CupMode,
    Element,
    SimpleGenerator,
    Trunc,
    _unpack,
    cup_length,
    poincare,
    steenrod_sq,
    tensor_blocks,
)
from topoinv.invariants import cup_report
from topoinv.spaces import Family, SpaceId, catalog, presentation, serre_verify


def P(spec):
    return presentation(SpaceId.parse(spec))


# -- multiplication -----------------------------------------------------------


def test_squaring_rule_in_range():
    p = P("RV:8,5")
    z3 = p.gen(3)
    assert z3 * z3 == p.monomial(0, (6,))


def test_squaring_rule_out_of_range():
    p = P("RV:5,2")
    z4 = p.gen(4)
    assert (z4 * z4).is_zero()


def test_cascading_squares():
    p = P("RV:12,11")
    z1, z2 = p.gen(1), p.gen(2)
    m = z1 * z2
    assert m * m == p.monomial(0, (2, 4))
    # z1^8 collapses through three rewrites
    acc = p.monomial()
    for _ in range(8):
        acc = acc * z1
    assert acc == p.monomial(0, (8,))
    for _ in range(8):
        acc = acc * z1
    assert acc.is_zero()  # z1^16 needs z16, outside the ambient bound


def test_truncation_kills_high_powers():
    p = P("RX:5,2")
    y = p.y_power(1)
    assert y * y * y == p.monomial(3)
    assert (y * y * y * y).is_zero()


def test_unit_law_and_distribution():
    p = P("RV:6,3")
    one = p.monomial()
    a = p.gen(3) + p.gen(4) + p.monomial(0, (3, 5))
    assert one * a == a
    assert a * one == a
    b = p.gen(5)
    c = p.gen(3)
    assert (a + b) * c == a * c + b * c


def test_mixed_presentations_rejected():
    a = P("RV:6,3").gen(3)
    b = P("RV:7,3").gen(4)
    with pytest.raises(MixedPresentations):
        a * b  # noqa: B018
    # the zero fast paths come after the check
    zero_a, zero_b = P("RV:6,3").zero(), P("RV:7,3").zero()
    for x, y in ((zero_a, zero_b), (zero_a, b), (a, zero_b)):
        with pytest.raises(MixedPresentations):
            x + y  # noqa: B018
        with pytest.raises(MixedPresentations):
            x * y  # noqa: B018


def test_zero_operands_and_stored_squares_build_no_new_element():
    p = P("RV:6,3")
    a, zero = p.gen(3) + p.gen(4), p.zero()
    assert p.zero() is zero
    r = P("RX:5,2")  # y^N = 0
    assert r.y_power(r.order) is r.zero() and r.monomial(r.order, (4,)) is r.zero()
    assert a + zero is a and zero + a is a
    assert a * zero is zero and zero * a is zero
    square = steenrod_sq(p, 1, a)
    assert square == p.gen(4) and steenrod_sq(p, 1, a) is square
    # Sq^3 z3 = z6 lies outside the ring and Sq^3 z4 = 0: no term at index 3
    assert steenrod_sq(p, 3, a) is zero
    # Sq^1(z4 z5) = z4 z6 = Sq^1(z3 z6): the terms at index 1 cancel
    q = P("RV:7,4")
    b = q.monomial(0, (4, 5)) + q.monomial(0, (3, 6))
    cancelled = steenrod_sq(q, 1, b)
    assert cancelled == q.zero() and steenrod_sq(q, 1, b) is cancelled
    assert steenrod_sq(q, 2, b) == q.monomial(0, (5, 6))


def test_ring_work_leaves_no_cyclic_garbage():
    # Rings, elements and reports of these paths are freed by reference
    # counting alone: a ring makes its zero on first use, so building one
    # makes no cycle through it, and no dropped ring waits for the cyclic
    # collector.
    gc.collect()
    gc.disable()
    try:
        for s in catalog(list(Family), range(1, 10)):
            cup_report(s)
            if s.family.is_projective:
                serre_verify(s)
            poincare(presentation(s))
        assert gc.collect() == 0
    finally:
        gc.enable()


_CATALOG = ["RV:5,2", "RV:8,5", "RV:12,11", "CV:4,3", "HV:4,2", "RX:5,2",
            "RX:5,3", "FV:5,2", "FV:9,3", "CX:6,3", "HX:6,3"]


@st.composite
def presentation_and_elements(draw, count=3):
    p = P(draw(st.sampled_from(_CATALOG)))
    codes = list(p.basis_codes())
    elems = []
    for _ in range(count):
        picked = draw(st.lists(st.sampled_from(codes), min_size=0, max_size=4))
        acc = frozenset()
        for c in picked:
            acc = acc ^ {c}
        elems.append(Element(p, acc))
    return p, elems


@given(presentation_and_elements())
@settings(max_examples=120, deadline=None)
def test_mul_commutative_and_associative(data):
    p, (a, b, c) = data
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def _chain_exponents(p):
    """Each basis code as (y-exponent, packed exponents of the square chains).

    A chain r -> r^2 -> ... of L generators spans Z2[r]/(r^(2^L)): the
    monomial holding the chain's generators i (counted from the root) is
    r^e, e the sum of their 2^i.  Each e gets a field of L + 1 bits, so the
    packed exponents of two monomials add field by field, and a sum that
    reaches 2^L sets the field's top bit, the returned guard mask.
    """
    targets = {g.square for g in p.simple_gens if g.square != SQ_ZERO}
    square = {g.label: g.square for g in p.simple_gens}
    fields, guard, shift = [], 0, 0
    for g in p.simple_gens:
        if g.label not in targets:
            chain = [g.label]
            while square[chain[-1]] != SQ_ZERO:
                chain.append(square[chain[-1]])
            fields.append((chain, shift))
            shift += len(chain) + 1
            guard |= 1 << (shift - 1)
    exponents = {}
    for code in p.basis_codes():
        y, labels = p.unpack(code)
        exponents[code] = (y, sum(1 << (i + at) for chain, at in fields
                                  for i, j in enumerate(chain) if j in labels))
    return exponents, guard


def test_mul_codes_adds_chain_exponents_on_small_catalog_rings():
    # the reference never rewrites a square: y-exponents add under the
    # truncation, chain exponents add and vanish at 2^L
    rings = {presentation(s) for s in catalog(list(Family), range(1, 11))}
    rings = [p for p in rings if p.total_dimension <= 1 << 8]
    for p in rings:
        exponents, guard = _chain_exponents(p)
        code_of = {e: code for code, e in exponents.items()}
        pairs = itertools.combinations_with_replacement(exponents.items(), 2)
        for (a, (ya, ea)), (b, (yb, eb)) in pairs:
            y, e = ya + yb, ea + eb
            expect = None if y >= p.order or e & guard else code_of[y, e]
            assert p.mul_codes(a, b) == expect, (p, a, b)
    assert len(rings) == 267


# -- poincare / top degree ------------------------------------------------------


def test_poincare_examples():
    assert poincare(P("RV:5,2")) == [1, 0, 0, 1, 1, 0, 0, 1]
    one_gen = AlgebraPresentation(None, (SimpleGenerator(3, 3, SQ_ZERO),))
    assert poincare(one_gen) == [1, 0, 0, 1]
    series = poincare(P("HX:5,2"))
    expect = [0] * 32
    for a in (0, 4, 8, 12):
        for b in (0, 19):
            expect[a + b] = 1
    assert series == expect


def test_poincare_work_cap():
    p = P("RX:5,2")  # one generator: two steps per degree
    assert len(poincare(p, SERIES_WORK_CAP // 2 - 1)) == p.top_degree + 1
    with pytest.raises(WorkCapExceeded):
        poincare(p, SERIES_WORK_CAP // 2)
    with pytest.raises(WorkCapExceeded):
        poincare(P("CV:1200,1200"))  # top degree 1440000


def _poincare_per_degree(p, max_deg=None):
    """Reference for poincare: the y-powers as a list, then each generator
    multiplies by (1 + t^deg) one degree at a time."""
    top = p.top_degree if max_deg is None else min(max_deg, p.top_degree)
    coeffs = [0] * (top + 1)
    for e in range(p.order):
        if e * p.y_degree > top:
            break
        coeffs[e * p.y_degree] = 1
    for g in p.simple_gens:
        for d in range(top, g.degree - 1, -1):
            coeffs[d] += coeffs[d - g.degree]
    return coeffs


def test_poincare_matches_the_per_degree_loop_on_repeated_degrees():
    # truncated rings may repeat degrees, so only the subset-count width
    # holds; with more than 64 generators some coefficients pass 64 bits
    rng = random.Random(7)
    wide = 0
    for _ in range(120):
        degrees = sorted(rng.randrange(1, 12) for _ in range(rng.randrange(65, 100)))
        p = AlgebraPresentation(Trunc(rng.randrange(1, 5), rng.randrange(1, 40)),
                                tuple(SimpleGenerator(j, d) for j, d in enumerate(degrees)))
        for max_deg in (0, rng.randrange(1, 60), rng.randrange(60, 400)):
            want = _poincare_per_degree(p, max_deg)
            wide += max(want).bit_length() > 64
            assert poincare(p, max_deg) == want, (p, max_deg)
    assert wide == 93


@pytest.mark.parametrize("gens", [7, 8, 15, 16, 31, 32, 63, 64, 65, 120])
def test_poincare_width_holds_where_a_coefficient_reaches_the_bound(gens):
    # g generators of degree 1 and g + 1 powers of y in degree 1: the
    # coefficient of t^g is the sum of binom(g, i), exactly 2^g, which needs
    # the bits of the y-powers on top of the generators' g
    p = AlgebraPresentation(Trunc(1, gens + 1),
                            tuple(SimpleGenerator(j, 1) for j in range(gens)))
    series = poincare(p)
    assert series[gens] == 1 << gens
    assert series == _poincare_per_degree(p)


def test_poincare_matches_the_per_degree_loop_on_the_catalog():
    spaces = catalog(list(Family), range(1, 25))
    for space in spaces:
        p = presentation(space)
        top = p.top_degree
        for max_deg in (None, 0, top // 3, top - 1, top + 4):
            assert poincare(p, max_deg) == _poincare_per_degree(p, max_deg), (space, max_deg)
    assert len(spaces) == 1813


def test_poincare_matches_the_per_degree_loop_with_many_generators():
    # distinct degrees, so the partition width holds: 200 of RV:300,299's
    # 299 in range; 1,000 of RV:1025,1024's, whose 73-bit coefficients take
    # 88-bit fields; and HV:64,64's 64, whose 54-bit coefficients take 72
    for spec, max_deg in (("RV:300,299", 200), ("RV:1025,1024", 1000), ("HV:64,64", None)):
        p = P(spec)
        assert poincare(p, max_deg) == _poincare_per_degree(p, max_deg), spec


@pytest.mark.parametrize("size", [1, 2, 4, 8, 9, 16])
def test_pack_and_unpack_round_trip(size):
    rng = random.Random(size)
    values = [rng.getrandbits(rng.randrange(1, 8 * size + 1)) for _ in range(200)]
    packed = sum(v << 8 * size * e for e, v in enumerate(values))
    assert _unpack(packed, size, len(values)) == values


def test_poincare_total_is_algebra_dimension():
    for spec in _CATALOG:
        p = P(spec)
        assert sum(poincare(p)) == p.total_dimension


def test_top_degree_examples():
    assert P("RV:5,2").top_degree == 7
    trivial = AlgebraPresentation(Trunc(1, 1), ())
    assert trivial.top_degree == 0
    assert P("CX:5,2").top_degree == 15


def test_poincare_palindromic_on_catalog():
    for spec in _CATALOG:
        series = poincare(P(spec))
        assert series == series[::-1], spec


# -- cup length ----------------------------------------------------------------


def test_cup_of_exterior_algebra_is_generator_count():
    for m in (1, 2, 5):
        gens = tuple(SimpleGenerator(j, 2 * j - 1, SQ_ZERO) for j in range(1, m + 1))
        p = AlgebraPresentation(None, gens)
        for mode in CupMode:
            assert cup_length(p, mode).value == m


def test_cup_examples():
    res = cup_length(P("RX:5,2"))
    assert res.value == 4
    assert res.witness == ("y", "y", "y", "y4")
    assert not res.caveat
    assert cup_length(P("HX:5,2")).value == 4
    assert cup_length(P("HX:5,2"), CupMode.EXHAUSTIVE_ORACLE).value == 4


def test_cup_length_takes_a_mode_or_its_value():
    p = P("RV:8,7")
    for mode in CupMode:
        assert cup_length(p, mode.value) == cup_length(p, mode)
    with pytest.raises(ValueError):
        cup_length(p, "search")


def test_cup_of_trivial_algebra():
    trivial = AlgebraPresentation(Trunc(1, 1), ())
    for mode in CupMode:
        assert cup_length(trivial, mode).value == 0


def test_cup_modes_agree_on_catalog():
    for spec in _CATALOG:
        p = P(spec)
        a = cup_length(p, CupMode.GENERATOR_SEARCH)
        b = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
        assert a.value == b.value, spec


def test_cup_chain_sum_on_large_stiefel():
    # chains from the odd roots 1, 3, 5, 7, 9 (lengths 6, 4, 3, 3, 3),
    # 11..19 (length 2) and 21..39 (length 1)
    res = cup_length(P("RV:40,39"))
    assert res.value == 63 + 15 + 7 + 7 + 7 + 3 * 5 + 10 == 124
    assert res.witness[:64] == ("z1",) * 63 + ("z3",)
    assert not res.caveat


def test_cup_leaves_recursion_limit_alone():
    p = AlgebraPresentation(Trunc(1, 511), (SimpleGenerator(500, 500, SQ_ZERO),))
    before = sys.getrecursionlimit()
    assert cup_length(p).value == 511
    assert sys.getrecursionlimit() == before


def test_truncation_order_sizes_the_y_field():
    # y^999 needs ten bits of the code
    p = AlgebraPresentation(Trunc(1, 1000), (SimpleGenerator(3, 3, SQ_ZERO),
                                             SimpleGenerator(5, 5, SQ_ZERO)))
    assert p.y_power(999) * p.gen(3) == p.monomial(999, (3,))
    assert (p.y_power(500) * p.y_power(500)).is_zero()
    a = cup_length(p, CupMode.GENERATOR_SEARCH)
    b = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
    assert (a.value, a.caveat) == (b.value, b.caveat) == (1001, False)


def test_cup_oracle_mask_cap():
    assert ORACLE_MASK_CAP == 1 << 16
    p = P("RV:18,17")  # 2^17 generator masks, over the cap
    with pytest.raises(DimensionCapExceeded) as info:
        cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
    assert str(info.value) == "2^17 generator masks exceed oracle cap 2^16"
    # one chain of 16 generators at the cap: its longest word, 2^16 - 1
    # factors, is the most the oracle's 16-bit lengths must hold
    chain = [SimpleGenerator(1 << i, 1 << i, 2 << i) for i in range(15)]
    p = AlgebraPresentation(None, tuple(chain) + (SimpleGenerator(1 << 15, 1 << 15),))
    assert 1 << p.num_gens == ORACLE_MASK_CAP
    res = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
    assert res.value == len(res.witness) == ORACLE_MASK_CAP - 1 == cup_length(p).value
    # y's order never counts: one generator mask, whatever the order
    for order in (ORACLE_MASK_CAP, 4 * ORACLE_MASK_CAP):
        p = AlgebraPresentation(Trunc(1, order), (SimpleGenerator(3, 3),))
        res = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
        assert res.value == len(res.witness) == order == cup_length(p).value
    _assert_oracle_matches_per_code(AlgebraPresentation(Trunc(1, ORACLE_MASK_CAP), ()))


def _cup_oracle_per_code(p):
    """Reference for the oracle: the longest-word sweep over every monomial
    code (mask << width | y-exponent) in increasing code order, extending
    each reached code by y and by each generator, then the word ending at
    the least code of greatest length, read back through each code's
    parent.  Returns (value, witness)."""
    width, _, order = p._y_field
    gens = p.num_gens
    if order == 1 and not gens:
        return 0, ()
    rules = p._rule_of_bit
    size = (1 << gens) << width
    # per code: word length (0 = not reached), parent code, last factor
    # (0 for y, bit + 1 for a generator)
    length, parent, factor = [0] * size, [0] * size, [0] * size
    if order > 1:
        length[1] = 1
    for i in range(gens):
        length[1 << (width + i)] = 1
    for mask in range(1 << gens):
        base = mask << width
        steps = []
        for i in range(gens):
            bit = 1 << i
            if not mask & bit:
                steps.append((i + 1, (mask | bit) << width))
                continue
            m, j = mask ^ bit, i
            while rules[j] >= 0:
                j = rules[j]
                if not m >> j & 1:
                    steps.append((i + 1, (m | 1 << j) << width))
                    break
                m ^= 1 << j
        for e in range(order):
            c = base | e
            n = length[c]
            if not n:
                continue
            n += 1
            if e + 1 < order and length[c + 1] < n:
                length[c + 1], parent[c + 1], factor[c + 1] = n, c, 0
            for f, m in steps:
                m |= e
                if length[m] < n:
                    length[m], parent[m], factor[m] = n, c, f
    tail = max(range(size), key=length.__getitem__)
    best = length[tail]
    names = [p.y_symbol] + [f"{p.symbol}{g.label}" for g in p.simple_gens]
    word = []
    while length[tail] > 1:
        word.append(names[factor[tail]])
        tail = parent[tail]
    word.append(p.monomial_name(tail))
    return best, tuple(reversed(word))


def _assert_oracle_matches_per_code(p):
    res = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
    assert (res.value, res.witness) == _cup_oracle_per_code(p), p


def test_oracle_matches_the_per_code_sweep_on_catalog_rings_and_blocks():
    rings = [presentation(space) for space in catalog(list(Family), range(1, 13))]
    # the per-code reference sweeps every monomial
    rings = [p for p in rings if p.total_dimension <= 1 << 16]
    assert len(rings) == 439
    for p in rings:
        _assert_oracle_matches_per_code(p)
    for space in catalog(list(Family), range(1, 25)):
        for block in tensor_blocks(presentation(space)):
            _assert_oracle_matches_per_code(block)


def _elementwise_cup(p):
    """Third route: products of arbitrary nonzero homogeneous elements."""
    by_deg = {}
    for c in p.basis_codes():
        d = p.monomial_degree(c)
        if d > 0:
            by_deg.setdefault(d, []).append(c)
    elems = []
    for d, codes in sorted(by_deg.items()):
        for r in range(1, len(codes) + 1):
            for combo in itertools.combinations(codes, r):
                elems.append(Element(p, frozenset(combo)))
    if not elems:
        return 0
    level = set(elems)
    count = 1
    while True:
        nxt = set()
        for a in level:
            for b in elems:
                prod = a * b
                if not prod.is_zero():
                    nxt.add(prod)
        if not nxt:
            return count
        level = nxt
        count += 1


def test_cup_against_elementwise_enumeration():
    for spec in ("RV:5,2", "RX:5,2", "HX:5,2", "CV:3,3", "FV:5,2", "RV:7,4"):
        p = P(spec)
        expect = _elementwise_cup(p)
        assert cup_length(p, CupMode.GENERATOR_SEARCH).value == expect, spec
        assert cup_length(p, CupMode.EXHAUSTIVE_ORACLE).value == expect, spec


@st.composite
def random_presentations(draw, degrees=st.lists(st.integers(1, 12), max_size=8)):
    """Custom rings: optional truncation and random degrees, one generator
    per distinct degree drawn.  Untruncated rings take Borel's square (the
    generator of twice the degree, or zero); truncated ones choose between
    zero and that generator."""
    if draw(st.booleans()):
        trunc = Trunc(draw(st.integers(1, 3)), draw(st.integers(1, 9)))
    else:
        trunc = None
    labels = sorted(set(draw(degrees)))
    gens = []
    for d in labels:
        doubled = [2 * d] if 2 * d in labels else []
        if trunc is None:
            square = 2 * d if doubled else SQ_ZERO
        else:
            square = draw(st.sampled_from([SQ_ZERO] + doubled))
        gens.append(SimpleGenerator(d, d, square))
    return AlgebraPresentation(trunc, tuple(gens))


@given(random_presentations())
# y^3, g3 and the chain g2 -> g4 -> g8: 3 + 1 + 7 = 11
@example(AlgebraPresentation(Trunc(2, 4), (SimpleGenerator(2, 2, 4), SimpleGenerator(3, 3, SQ_ZERO),
                                           SimpleGenerator(4, 4, 8), SimpleGenerator(8, 8, SQ_ZERO))))
# a truncation of order 1 leaves only the chain g3 -> g6
@example(AlgebraPresentation(Trunc(1, 1), (SimpleGenerator(3, 3, 6), SimpleGenerator(6, 6, SQ_ZERO))))
@settings(max_examples=80, deadline=None)
def test_cup_modes_agree_on_random_presentations(p):
    a = cup_length(p, CupMode.GENERATOR_SEARCH)
    b = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
    assert a.value == b.value


G = SimpleGenerator
# a truncated ring whose last block, g5 g10, breaks
# Borel's rule (g5^2 = 0 beside g10): y^8, the chains g1 -> g2 -> g4,
# g3 -> g6 and g9 -> g18, and g5 and g10 give 8 + 7 + 3 + 3 + 1 + 1 = 23
_SPLIT_TRUNCATED_RING = AlgebraPresentation(Trunc(1, 9), (
    G(1, 1, 2), G(2, 2, 4), G(3, 3, 6), G(4, 4), G(5, 5), G(6, 6), G(9, 9, 18), G(10, 10),
    G(18, 18)))


@given(st.one_of(random_presentations(),
                 # more generators than a block's 2^4 masks hold, so it splits
                 random_presentations(st.sets(st.integers(1, 16), min_size=7, max_size=10))))
@example(_SPLIT_TRUNCATED_RING)
@settings(max_examples=80, deadline=None)
def test_oracle_matches_the_per_code_sweep_on_random_presentations(p):
    # on the ring and each of its tensor blocks, whose oracle values add up
    # to the closed form
    blocks = tensor_blocks(p)
    for ring in (p,) + blocks:
        _assert_oracle_matches_per_code(ring)
    total = sum(cup_length(block, CupMode.EXHAUSTIVE_ORACLE).value for block in blocks)
    assert total == cup_length(p).value, p


def _assert_witness_word_is_nonzero(p):
    res = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
    factor_of = {f"{p.symbol}{j}": p.gen(j) for j in p.labels}
    if p.order > 1:
        factor_of[p.y_symbol] = p.y_power(1)
    product = p.monomial()
    for name in res.witness:
        product = product * factor_of[name]
    assert len(res.witness) == res.value
    assert not product.is_zero()


def test_oracle_witness_is_a_nonzero_generator_word_on_catalog():
    for spec in _CATALOG:
        _assert_witness_word_is_nonzero(P(spec))


@given(random_presentations())
@settings(max_examples=80, deadline=None)
def test_oracle_witness_is_a_nonzero_generator_word(p):
    _assert_witness_word_is_nonzero(p)


def test_oracle_makes_no_mul_codes_call_and_matches_the_closed_form(monkeypatch):
    """The oracle works its products out inline: one per generator on each
    generator mask, so at most g*2^g in all, whatever y's order N."""

    def refused(self, a, b):
        raise AssertionError("the oracle called mul_codes")

    for spec in ("RX:9,8", "CV:9,9"):
        p = P(spec)
        exact = cup_length(p)
        with monkeypatch.context() as m:
            m.setattr(AlgebraPresentation, "mul_codes", refused)
            res = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
        assert res.value == exact.value, spec


def test_oracle_witnesses_are_pinned():
    # the longest word ending at the least code of greatest length; a new
    # sweep order must not change `cuplength --mode oracle`
    pinned = {
        "RX:5,2": "y y y y4",
        "FV:9,4": "y y y" + " y1" * 15 + " y5 y6 y7",
        "HX:9,8": "y'' " * 7 + "y''2 y''3 y''4 y''5 y''6 y''7 y''9",
        "CV:9,9": " ".join(f"z'{j}" for j in range(1, 10)),
        "RV:11,10": "z1 " * 15 + "z3 z3 z3 z5 z5 z5 z7 z9",
    }
    for spec, word in pinned.items():
        assert cup_length(P(spec), CupMode.EXHAUSTIVE_ORACLE).witness == tuple(word.split()), spec


def _oracle_peak(p):
    tracemalloc.start()
    try:
        res = cup_length(p, CupMode.EXHAUSTIVE_ORACLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == cup_length(p).value
    return res, peak


def test_oracle_peak_memory_is_five_bytes_per_generator_mask():
    # 2^14 basis monomials but 2^11 generator masks: 10 KiB of arrays,
    # then the witness
    p = P("FV:15,6")
    res, peak = _oracle_peak(p)
    assert peak <= 5 * (1 << p.num_gens) + sys.getsizeof(res.witness) + (1 << 12), peak


def test_oracle_peak_memory_on_the_y_only_ring_at_the_cap_is_its_witness():
    # y's order the size of the mask cap but one generator mask, so beside
    # its witness of 2^16 - 1 factors of y (0.5 MiB) the sweep holds almost
    # nothing
    p = AlgebraPresentation(Trunc(1, ORACLE_MASK_CAP), ())
    res, peak = _oracle_peak(p)
    assert peak <= sys.getsizeof(res.witness) + (1 << 12), peak


@given(random_presentations())
@settings(max_examples=60, deadline=None)
def test_poincare_matches_basis_degree_histogram(p):
    series = poincare(p)
    histogram = [0] * (p.top_degree + 1)
    for code in p.basis_codes():
        histogram[p.monomial_degree(code)] += 1
    assert series == histogram
    for max_deg in (0, p.top_degree // 2, p.top_degree + 3):
        assert poincare(p, max_deg) == series[: max_deg + 1]


# -- presentation validation -----------------------------------------------------


def test_square_rule_is_a_generator_or_zero():
    # no catalog square is left open, and a custom ring cannot ask for one
    with pytest.raises(InvalidParameters, match="bad square rule 'undetermined'"):
        AlgebraPresentation(Trunc(1, 4), (SimpleGenerator(2, 2, "undetermined"),))


def test_presentation_rejects_bad_square_targets():
    with pytest.raises(InvalidParameters):
        AlgebraPresentation(None, (SimpleGenerator(2, 2, 7),))
    with pytest.raises(InvalidParameters):
        AlgebraPresentation(
            None, (SimpleGenerator(2, 2, 3), SimpleGenerator(3, 5, SQ_ZERO))
        )
    # g1^2 = g2^2 = g3: the chain closed form would say 6, the true value is 4
    with pytest.raises(InvalidParameters, match="square targets must be distinct"):
        AlgebraPresentation(
            None,
            (SimpleGenerator(1, 1, 3), SimpleGenerator(2, 1, 3), SimpleGenerator(3, 2, SQ_ZERO)),
        )
    # on an untruncated ring the square must be Sq^2 z2 = z4, the top square
    # of the Cartan pass under Borel's rule
    with pytest.raises(InvalidParameters, match="Borel's rule"):
        AlgebraPresentation(
            None, (SimpleGenerator(2, 2, SQ_ZERO), SimpleGenerator(4, 4, SQ_ZERO)),
        )
    # that rule is keyed by degree, so degrees must be distinct
    with pytest.raises(InvalidParameters, match="degrees .* must be distinct"):
        AlgebraPresentation(
            None, (SimpleGenerator(1, 3, SQ_ZERO), SimpleGenerator(2, 3, SQ_ZERO)),
        )


def test_presentation_rejects_unsorted_labels():
    with pytest.raises(InvalidParameters):
        AlgebraPresentation(
            None, (SimpleGenerator(4, 4, SQ_ZERO), SimpleGenerator(2, 2, SQ_ZERO))
        )


@pytest.mark.parametrize("trunc, gens, message", [
    # the truncation, then the labels, before any generator's own fault
    (Trunc(0, 2), ((2, 2), (1, 1)), "bad truncation Trunc(degree=0, order=2)"),
    (None, ((2, 0), (1, 1)), "generator labels must be strictly increasing"),
    (None, ((1, 1, 2), (1, 2)), "generator labels must be strictly increasing"),
    # then each generator in turn, its degree before its square
    (Trunc(1, 4), ((1, 0, "undetermined"),), "generator 1 must have positive degree"),
    (Trunc(1, 4), ((1, 1, "undetermined"), (2, 0)), "bad square rule 'undetermined'"),
    (None, ((1, 1, 2), (2, 0)), "square of generator 1 must double the degree"),
    (None, ((2, 2, 2), (3, 1, 9)), "square target 2 of generator 2 is not a later generator"),
    (None, ((1, 1, 4), (2, 2, 1), (4, 2)),
     "square target 1 of generator 2 is not a later generator"),
    (Trunc(1, 3), ((1, 1, 3), (2, 1, 3), (3, 2), (4, 3, 5), (5, 5)),
     "generators 1 and 2 both square onto 3; square targets must be distinct"),
    (None, ((1, 1, 3), (2, 1, 3), (3, 2), (4, 3, 5), (5, 5)),
     "generators 1 and 2 both square onto 3; square targets must be distinct"),
    (Trunc(1, 3), ((1, 1, 4), (2, 1, 3), (3, 2), (4, 3), (5, 3, 3)),
     "square of generator 1 must double the degree"),
    # on an untruncated ring, then distinct degrees, then Borel's rule
    (None, ((1, 1, 2), (2, 3), (3, 3)), "square of generator 1 must double the degree"),
    (None, ((1, 2), (2, 4), (3, 3, 4)), "square target 4 of generator 3 is not a later generator"),
    (None, ((1, 2), (2, 4), (3, 4)),
     "generator degrees of an untruncated ring must be distinct"),
    (None, ((1, 2), (2, 3), (3, 4)), "Borel's rule needs the square of generator 1 to be Sq^2 of it"),
])
def test_first_fault_of_a_ring_is_reported(trunc, gens, message):
    # of a ring's faults, the first in the order above is the one named
    with pytest.raises(InvalidParameters) as info:
        AlgebraPresentation(trunc, tuple(SimpleGenerator(*g) for g in gens))
    assert str(info.value) == message


def _reference_tables(p):
    """The ring's derived values, each worked out on its own from the fields."""
    gens = p.simple_gens
    order = p.trunc.order if p.trunc is not None else 1
    y_degree = p.trunc.degree if p.trunc is not None else 0
    bit_of_label = {g.label: i for i, g in enumerate(gens)}
    degree_of_bit = tuple(g.degree for g in gens)
    tables = {
        "order": order,
        "y_degree": y_degree,
        "labels": tuple(g.label for g in gens),
        "num_gens": len(gens),
        "total_dimension": order * (1 << len(gens)),
        "top_degree": (order - 1) * y_degree + sum(degree_of_bit),
        "_bit_of_label": bit_of_label,
        "_degree_of_bit": degree_of_bit,
        "_rule_of_bit": tuple(-1 if g.square == SQ_ZERO else bit_of_label[g.square] for g in gens),
    }
    if p.trunc is None:
        # only Borel's rule, on untruncated rings, looks a generator up by degree
        tables["_bit_of_degree"] = {g.degree: i for i, g in enumerate(gens)}
    return tables


def _assert_tables_match_reference(p):
    tables = _reference_tables(p)
    for name, want in tables.items():
        got = getattr(p, name)
        assert type(got) is type(want) and got == want, (p, name)
    assert hasattr(p, "_bit_of_degree") == ("_bit_of_degree" in tables), p


def test_tables_match_the_reference_on_catalog_blocks():
    for space in catalog(list(Family), range(1, 25)):
        p = presentation(space)
        for ring in (p,) + tensor_blocks(p):
            _assert_tables_match_reference(ring)


@given(random_presentations())
@settings(max_examples=80, deadline=None)
def test_tables_match_the_reference_on_random_presentations(p):
    _assert_tables_match_reference(p)


def test_presentation_identity_is_the_ring():
    p = P("RX:5,2")
    assert p == AlgebraPresentation(Trunc(1, 4), (SimpleGenerator(4, 4, SQ_ZERO),),
                                    symbol="y", y_symbol="y")


# -- tensor blocks --------------------------------------------------------------

_BLOCK_CATALOG = catalog(list(Family), range(2, 33))


def test_tensor_blocks_split_the_ring_into_square_closed_blocks():
    assert len(_BLOCK_CATALOG) == 3247
    for space in _BLOCK_CATALOG:
        p = presentation(space)
        blocks = tensor_blocks(p)
        masks = 1
        # y whole in the first block; on a truncated ring the others keep a
        # truncation of order 1, y absent
        later = None if p.trunc is None else Trunc(p.y_degree, 1)
        for i, block in enumerate(blocks):
            masks <<= block.num_gens
            labels = set(block.labels)
            # square-closed: every square target lies in the same block
            assert all(g.square == SQ_ZERO or g.square in labels for g in block.simple_gens)
            assert block.trunc == (p.trunc if i == 0 else later), space
            # within the cap, y's order uncounted, unless one chain alone is larger
            targets = {g.square for g in block.simple_gens}
            roots = [g for g in block.simple_gens if g.label not in targets]
            assert 1 << block.num_gens <= TENSOR_BLOCK_CAP or len(roots) == 1, space
        # the masks multiply out to the ring's, and y's order is counted once
        assert masks == 1 << p.num_gens, space
        assert [block.order for block in blocks] == [p.order] + [1] * (len(blocks) - 1), space
        # every generator in exactly one block, with its own square
        gens = [g for block in blocks for g in block.simple_gens]
        assert sorted(gens, key=lambda g: g.label) == list(p.simple_gens), space
    # a ring of at most 2^4 masks is its own one block, however long y is
    for spec in ("RX:5,2", "CX:65537,1"):
        p = P(spec)
        assert tensor_blocks(p) == (p,), spec
    # an untruncated ring's blocks have no truncation at all
    assert all(block.trunc is None for block in tensor_blocks(P("RV:16,15")))


def test_tensor_blocks_of_truncated_rings_need_not_follow_borels_rule():
    # y^8, g1, g3, g5 and g10: 2^4 masks, so one block however long y is
    small = AlgebraPresentation(Trunc(1, 9), (G(1, 1), G(3, 3), G(5, 5), G(10, 10)))
    assert tensor_blocks(small) == (small,)
    # a later block of a split ring keeps its squares, zero on g5 beside
    # g10, which Borel's rule would refuse
    blocks = tensor_blocks(_SPLIT_TRUNCATED_RING)
    assert [block.labels for block in blocks] == [(1, 2, 4), (3, 6, 9, 18), (5, 10)]
    assert blocks[2].trunc == Trunc(1, 1)
    with pytest.raises(InvalidParameters, match="Borel's rule needs the square of generator 5"):
        AlgebraPresentation(None, blocks[2].simple_gens)
    for p, value in ((small, 12), (_SPLIT_TRUNCATED_RING, 23)):
        blocks = tensor_blocks(p)
        assert sum(cup_length(block, CupMode.EXHAUSTIVE_ORACLE).value for block in blocks) == value
        assert cup_length(p).value == value


def test_tensor_blocks_oracle_sum_is_the_closed_form_up_to_n_32():
    # every block swept directly, one sweep per block: the route that
    # cup_report's memo of one value per block shape does not cover
    for space in _BLOCK_CATALOG:
        p = presentation(space)
        total = sum(cup_length(block, CupMode.EXHAUSTIVE_ORACLE).value
                    for block in tensor_blocks(p))
        assert total == cup_length(p).value, space
