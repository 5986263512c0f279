import math
import random
import time

import pytest
from hypothesis import example, given, settings

from test_gralg import random_presentations
from topoinv import gralg
from topoinv.errors import MixedPresentations, UnsupportedPresentation, WorkCapExceeded
from topoinv.gralg import AlgebraPresentation, Element, SimpleGenerator, Trunc, steenrod_sq
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
                top = max(map(p.monomial_degree, a.codes))
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


def test_mixed_projective_elements_are_refused(monkeypatch):
    p = P("RX:5,3")
    _count_mul_codes(monkeypatch, limit=0)  # refused before any Cartan pass
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


def test_squares_of_y_powers_respect_the_truncation():
    # Sq^(s*d) y^e = binom(e, s) y^(e+s), zero once e + s reaches the order
    # N, on fresh elements and on one rising walk.  With N not a power of
    # two, e and s can have disjoint bits and still add up to N or more:
    # the pass must drop those pieces, not pack them into a code.
    for d in (1, 2, 4):
        for order in (3, 5, 6, 7, 9, 12):
            p = AlgebraPresentation(Trunc(d, order), ())
            for e in range(order):
                walked = p.y_power(e)
                for i in range(e * d + 2):
                    s, rem = divmod(i, d)
                    if rem or math.comb(e, s) % 2 == 0 or e + s >= order:
                        want = p.zero()
                    else:
                        want = p.y_power(e + s)
                    assert steenrod_sq(p, i, p.y_power(e)) == want, (d, order, e, i)
                    assert steenrod_sq(p, i, walked) == want, (d, order, e, i)


def test_exterior_generators_take_borel_values():
    p = P("CV:3,3")  # U(3): x1, x3, x5 with labels 1, 2, 3
    x1, x3, x5 = p.gen(1), p.gen(2), p.gen(3)
    assert steenrod_sq(p, 2, x3) == x5  # as in SU(3)
    assert steenrod_sq(p, 1, x3).is_zero()  # no generator of degree 4
    assert steenrod_sq(p, 3, x3).is_zero()  # top square of an exterior class
    assert steenrod_sq(p, 5, x5).is_zero()
    m = x1 * x3  # degree 4
    assert steenrod_sq(p, 4, m) == m * m
    assert steenrod_sq(p, 3, m).is_zero()
    assert steenrod_sq(p, 2, m) == x1 * x5
    assert steenrod_sq(p, 1, m).is_zero()
    q = P("HV:3,3")  # Sp(3): x3, x7, x11
    assert steenrod_sq(q, 4, q.gen(2)) == q.gen(3)
    for i in (1, 2, 3, 5, 6, 7):
        assert steenrod_sq(q, i, q.gen(2)).is_zero()


def test_steenrod_checks_presentation_membership():
    p, q = P("RV:6,3"), P("RV:7,3")
    with pytest.raises(MixedPresentations):
        steenrod_sq(p, 1, q.gen(4))


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


def _adem_failures(p, x):
    """Pairs (a, b) with 0 < a < 2b and a + b <= 8 where Sq^a Sq^b x differs
    from the sum over c of binom(b - c - 1, a - 2c) Sq^(a + b - c) Sq^c x."""
    sq_of = [x] + [steenrod_sq(p, c, x) for c in range(1, 8)]
    bad = []
    for b in range(1, 8):
        for a in range(1, min(2 * b, 9 - b)):
            rhs = p.zero()
            for c in range(a // 2 + 1):
                if math.comb(b - c - 1, a - 2 * c) % 2:
                    rhs = rhs + steenrod_sq(p, a + b - c, sq_of[c])
            if steenrod_sq(p, a, sq_of[b]) != rhs:
                bad.append((a, b))
    return bad


def test_adem_relations_on_catalog():
    # a second route: the Adem relations do not follow from the Cartan
    # formula that the pass is built on
    specs = catalog([Family.RV], range(1, 10)) + catalog([Family.CV, Family.HV], range(1, 9))
    checked = 0
    for s in specs:
        p = presentation(s)
        if p.total_dimension > 4096:
            continue
        for code in p.basis_codes():
            assert not _adem_failures(p, Element(p, frozenset((code,)))), (
                str(s), p.monomial_name(code))
            checked += 1
    assert (len(specs), checked) == (108, 3012)


# -- differential check of the Cartan pass ---------------------------------------


def _factor_sq(p, factor, t):
    """Sq^t of one factor, ("y", e) or ("g", label), straight from the
    rules: a monomial code, or None when it vanishes."""
    kind, value = factor
    if kind == "y":
        s, rem = divmod(t, p.y_degree)
        if rem or math.comb(value, s) % 2 == 0 or value + s >= p.order:
            return None
        return p.pack(value + s, 0)
    degrees = [g.degree for g in p.simple_gens]
    bit = p.labels.index(value)
    degree = degrees[bit]
    if t == degree:
        return p.mul_codes(p.pack(0, 1 << bit), p.pack(0, 1 << bit))  # Sq^deg x = x^2
    if math.comb(degree, t) % 2 == 0 or degree + t not in degrees:
        return None
    return p.pack(0, 1 << degrees.index(degree + t))


def _cartan_brute_force(p, code, top):
    """[Sq^0, ..., Sq^top] of one monomial, each Sq^i the mod-2 sum over
    every splitting t_1 + ... + t_m = i across its factors, from one table
    of the factors' squares; each Sq^i, i > 0, is "refused" on a monomial
    with generators in a truncated presentation."""
    e, labels = p.unpack(code)
    if p.trunc is not None and labels:
        return [Element(p, frozenset((code,)))] + ["refused"] * top
    factors = ([("y", e)] if e else []) + [("g", j) for j in labels]
    degrees = [value * p.y_degree if kind == "y" else p.simple_gens[p.labels.index(value)].degree
               for kind, value in factors]
    # rest[k]: the largest t the factors from k on can take, since Sq^t
    # vanishes above the degree
    rest = [sum(degrees[k:]) for k in range(len(factors) + 1)]
    sq = [[_factor_sq(p, f, t) for t in range(d + 1)] for f, d in zip(factors, degrees)]

    def walk(k, budget, product):
        if k == len(factors):
            if not budget:  # the empty monomial gets here with budget left
                total.symmetric_difference_update({product})
            return
        for t in range(max(0, budget - rest[k + 1]), min(budget, degrees[k]) + 1):
            value = sq[k][t]
            if value is not None:
                nxt = p.mul_codes(product, value)
                if nxt is not None:
                    walk(k + 1, budget - t, nxt)

    out = []
    for i in range(top + 1):
        total = set()
        walk(0, i, 0)
        out.append(Element(p, frozenset(total)))
    return out


def _outcome(p, i, a):
    try:
        return steenrod_sq(p, i, a)
    except UnsupportedPresentation:
        return "refused"


def _assert_cartan_matches_brute_force(p):
    for code in p.basis_codes():
        deg = p.monomial_degree(code)
        want = _cartan_brute_force(p, code, deg)
        for i in range(1, deg + 1):
            got = _outcome(p, i, Element(p, frozenset((code,))))
            assert got == want[i], (p.monomial_name(code), i)


def test_cartan_pass_matches_brute_force_on_catalog():
    for s in catalog(list(Family), range(1, 8)):
        p = presentation(s)
        if p.total_dimension <= 4096:
            _assert_cartan_matches_brute_force(p)


@given(random_presentations())
# g6^2 = g12: in Sq^i(g6 g12), i >= 6, Sq^6 g6 = g12 meets the factor g12
@example(AlgebraPresentation(None, (SimpleGenerator(6, 6, 12), SimpleGenerator(12, 12, "zero"))))
@settings(max_examples=80, deadline=None)
def test_cartan_pass_matches_brute_force_on_random_presentations(p):
    _assert_cartan_matches_brute_force(p)


def _assert_table_matches_brute_force(p):
    """Ask every Sq^i, 0 <= i <= deg + 1, of each basis monomial on one
    element, in increasing, decreasing and shuffled order with repeats, so
    most answers come from the element's squares table; each value and
    each refusal must equal the brute-force one."""
    rng = random.Random(0)
    for code in p.basis_codes():
        top = p.monomial_degree(code) + 1
        want = _cartan_brute_force(p, code, top)
        mixed = list(range(top + 1)) * 2
        rng.shuffle(mixed)
        for order in (range(top + 1), range(top, -1, -1), mixed):
            a = Element(p, frozenset((code,)))
            for i in order:
                got = _outcome(p, i, a)
                assert got == want[i], (p.monomial_name(code), i, list(order))


def test_squares_table_matches_brute_force_on_catalog():
    for s in catalog(list(Family), range(1, 7)):
        p = presentation(s)
        if p.total_dimension <= 4096:
            _assert_table_matches_brute_force(p)


@given(random_presentations())
@example(AlgebraPresentation(None, (SimpleGenerator(6, 6, 12), SimpleGenerator(12, 12, "zero"))))
@settings(max_examples=60, deadline=None)
def test_squares_table_matches_brute_force_on_random_presentations(p):
    _assert_table_matches_brute_force(p)


def _count_mul_codes(monkeypatch, limit=None):
    """Count mul_codes calls; fail at once past `limit`, so a runaway
    pass stops early instead of running for seconds."""
    calls = []
    mul_codes = AlgebraPresentation.mul_codes

    def counted(self, a, b):
        calls.append(None)
        assert limit is None or len(calls) <= limit, f"more than {limit} products"
        return mul_codes(self, a, b)

    monkeypatch.setattr(AlgebraPresentation, "mul_codes", counted)
    return calls


def test_one_pass_fills_the_table_of_a_large_monomial(monkeypatch):
    # A degree-219 monomial with 14 factors: the first index asked fills
    # the whole table from one pass, whose mul_codes calls are the chain
    # collisions, products by a generator whose bit is already set (a free
    # bit is set inline); every later index, Sq^219 = x*x included, is a
    # lookup that makes none, and a second element of the monomial reads
    # the track its ring kept.
    p = P("RV:32,31")
    code = p.pack(0, random.Random(0).getrandbits(p.num_gens))
    assert p.monomial_degree(code) == 219
    answers, firsts = [], []
    for walk in ((1, 2, 3, 219), (219, 3, 2, 1)):
        a = Element(p, frozenset((code,)))
        calls = _count_mul_codes(monkeypatch, limit=16558)
        steenrod_sq(p, walk[0], a)
        firsts.append(len(calls))
        answers.append({i: steenrod_sq(p, i, a) for i in walk})
        monkeypatch.undo()
        assert len(calls) == firsts[-1]
    assert firsts[0] > 0 and firsts[1] == 0
    assert answers[0] == answers[1]
    assert answers[0][219] == a * a


def _count_passes(monkeypatch):
    """Record (presentation, monomial) for every _total_square pass."""
    passes = []
    total_square = gralg._total_square

    def counted(p, code):
        passes.append((id(p), code))
        return total_square(p, code)

    monkeypatch.setattr(gralg, "_total_square", counted)
    return passes


def test_squares_table_fills_once_in_any_walk_order(monkeypatch):
    # A rising, a falling and a shuffled walk, each on fresh elements of two
    # equal rings, make one pass per (presentation, monomial) in all: the
    # first element to ask squares a monomial, and its ring keeps the track
    # for every later element.
    rings = [P("RV:12,11"), P("RV:12,11")]
    a = _random_element(rings[0], random.Random(0), 2)
    assert len(a.codes) == 2
    top = max(map(rings[0].monomial_degree, a.codes))
    want = [_cartan_brute_force(rings[0], c, top + 1) for c in a.codes]
    shuffled = list(range(top + 2))
    random.Random(1).shuffle(shuffled)
    passes = _count_passes(monkeypatch)
    for p in rings:
        for walk in (range(top + 2), range(top + 1, -1, -1), shuffled):
            b = Element(p, a.codes)
            got = [steenrod_sq(p, i, b) for i in walk]
            assert got == [sum((w[i] for w in want), p.zero()) for i in walk]
            for code, w in zip(a.codes, want):
                single = Element(p, frozenset((code,)))
                assert [steenrod_sq(p, i, single) for i in walk] == [w[i] for i in walk]
    monkeypatch.undo()
    assert sorted(passes) == sorted((id(p), c) for p in rings for c in a.codes)


def test_stored_tracks_stay_within_the_cap(monkeypatch):
    # Every track of RV:7,6 holds at most 13 terms and all of them 207, so
    # under a cap of 16 the ring keeps a few tracks and squares the rest
    # afresh on every ask, with the same answers.
    monkeypatch.setattr(gralg, "SQUARE_TERM_CAP", 16)
    p = P("RV:7,6")
    tracks = p._square_tracks
    for code in p.basis_codes():
        top = p.monomial_degree(code) + 1
        want = _cartan_brute_force(p, code, top)
        for _ in range(2):
            a = Element(p, frozenset((code,)))
            assert [steenrod_sq(p, i, a) for i in range(top + 1)] == want
        assert p._square_terms == sum(map(len, tracks.values())) <= 16
    assert 0 < len(tracks) < p.total_dimension


def test_a_refused_pass_stores_nothing(monkeypatch):
    # The largest track of RV:7,6 has 13 terms: under a cap of 8 its pass is
    # refused, nothing is kept, and every later ask is refused again.
    p = P("RV:7,6")
    code = max(p.basis_codes(), key=lambda c: len(gralg._total_square(p, c)))
    monkeypatch.setattr(gralg, "SQUARE_TERM_CAP", 8)
    a = Element(p, frozenset((code,)))
    for element in (a, a, Element(p, frozenset((code,)))):
        with pytest.raises(WorkCapExceeded, match="exceeds cap 8 terms"):
            steenrod_sq(p, 1, element)
        assert p._square_tracks == {} and p._square_terms == 0


def test_elements_sharing_monomials_leave_stored_tracks_unchanged():
    # a, a + b and a * b share monomials: each later table reads the tracks
    # the earlier ones stored and changes none of them.
    rng = random.Random(7)
    p = P("RV:10,9")
    for _ in range(20):
        a = _random_element(p, rng, 3)
        b = _random_element(p, rng, 2)
        seen = {}
        for x in (a, a + b, a * b, b):
            top = max(map(p.monomial_degree, x.codes), default=0) + 1
            got = [steenrod_sq(p, i, x) for i in range(top + 1)]
            want = [_cartan_brute_force(p, c, top) for c in x.codes]
            assert got == [sum((w[i] for w in want), p.zero()) for i in range(top + 1)]
            for code, (track, copy) in seen.items():
                assert p._square_tracks[code] is track and track == copy
            seen.update((c, (t, dict(t))) for c, t in p._square_tracks.items() if c not in seen)


def test_squares_do_not_depend_on_the_walk_order():
    # One element asked every index in shuffled order, and a fresh element
    # per index, give the same answers and the same refusals.
    rng = random.Random(3)
    families = [Family.RV, Family.CV, Family.HV, Family.RX, Family.CX]
    for s in catalog(families, range(1, 7)):
        p = presentation(s)
        for code in p.basis_codes():
            a = Element(p, frozenset((code,)))
            walk = list(range(p.monomial_degree(code) + 2))
            rng.shuffle(walk)
            shared = {i: _outcome(p, i, a) for i in walk}
            fresh = {i: _outcome(p, i, Element(p, frozenset((code,)))) for i in walk}
            assert shared == fresh, (str(s), p.monomial_name(code))


def test_a_total_square_past_the_cap_is_refused_at_once():
    # The seed-1 random monomial of RV:40,39 (degree 294, 18 factors) has a
    # total square of more than SQUARE_TERM_CAP terms; even Sq^1 of it
    # builds the whole table, so it is refused, quickly and in bounded memory.
    p = P("RV:40,39")
    code = p.pack(0, random.Random(1).getrandbits(p.num_gens))
    start = time.perf_counter()
    with pytest.raises(WorkCapExceeded, match=f"exceeds cap {gralg.SQUARE_TERM_CAP} terms"):
        steenrod_sq(p, 1, Element(p, frozenset((code,))))
    assert time.perf_counter() - start < 5


def test_cartan_products_on_borel_rings(monkeypatch):
    # the rhs asks a for Sq^0..Sq^i and b for Sq^i..Sq^0, which their
    # squares tables answer from the ring's one pass per monomial.  mul_codes
    # counts the element products (436) and the chain collisions of the
    # passes (1,255); a free bit is set inline, and a monomial that a, b or
    # a * b share with an earlier element of the ring is not squared again.
    calls = _count_mul_codes(monkeypatch)
    rng = random.Random(5)
    for k in range(2, 12):
        p = P(f"RV:12,{k}")
        for _ in range(6):
            a = _random_element(p, rng, 2)
            b = _random_element(p, rng, 2)
            i = rng.randrange(1, p.top_degree)
            rhs = p.zero()
            for t in range(i + 1):
                rhs = rhs + steenrod_sq(p, t, a) * steenrod_sq(p, i - t, b)
            assert steenrod_sq(p, i, a * b) == rhs
    assert len(calls) <= 1691
