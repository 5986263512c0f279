import tracemalloc

import pytest

from topoinv.errors import InvalidParameters, WorkCapExceeded
from topoinv.gralg import (
    SQ_ZERO,
    AlgebraPresentation,
    SimpleGenerator,
    Trunc,
    poincare,
    steenrod_sq,
)
from topoinv.spaces import (
    FIBER_CAP,
    Family,
    SpaceId,
    _coefficient_parity,
    _fiber,
    catalog,
    dimension,
    fiber_range,
    presentation,
    serre_verify,
    truncation_order,
)


def test_space_id_parse_and_format():
    s = SpaceId.parse("RX:5,2")
    assert (s.family, s.n, s.k) == (Family.RX, 5, 2)
    assert str(s) == "RX:5,2"
    assert str(SpaceId.parse(" FV:8,2 ")) == "FV:8,2"


@pytest.mark.parametrize(
    "spec",
    ["RV:5,5", "RV:4,0", "RX:5,1", "RX:4,4", "FV:6,3", "FV:4,2", "CX:3,3", "HX:2,2", "ZZ:3,1"],
)
def test_space_id_rejects_invalid(spec):
    with pytest.raises(InvalidParameters):
        SpaceId.parse(spec)


def test_presentation_real_stiefel():
    p = presentation(SpaceId.parse("RV:8,5"))
    assert p.trunc is None
    assert [(g.label, g.degree) for g in p.simple_gens] == [(j, j) for j in range(3, 8)]
    squares = {g.label: g.square for g in p.simple_gens}
    assert squares == {3: 6, 4: SQ_ZERO, 5: SQ_ZERO, 6: SQ_ZERO, 7: SQ_ZERO}
    assert steenrod_sq(p, 1, p.gen(3)) == p.gen(4)  # Borel's rule: binom(3, 1) odd


def test_presentation_real_projective_example():
    p = presentation(SpaceId.parse("RX:5,2"))
    assert (p.trunc.degree, p.trunc.order) == (1, 4)
    assert [(g.label, g.degree, g.square) for g in p.simple_gens] == [(4, 4, SQ_ZERO)]


def test_presentation_real_projective_with_square_map():
    # truncation index 4 omits the degree-3 generator; y2^2 = y4 survives
    p = presentation(SpaceId.parse("RX:5,3"))
    assert (p.trunc.degree, p.trunc.order) == (1, 4)
    assert [(g.label, g.square) for g in p.simple_gens] == [(2, 4), (4, SQ_ZERO)]


def test_presentation_quaternionic_projective_example():
    p = presentation(SpaceId.parse("HX:5,2"))
    assert (p.trunc.degree, p.trunc.order) == (4, 4)
    assert [(g.label, g.degree) for g in p.simple_gens] == [(5, 19)]


def test_presentation_full_complex_group():
    for n in (2, 3, 5):
        p = presentation(SpaceId(Family.CV, n, n))
        assert [g.degree for g in p.simple_gens] == list(range(1, 2 * n, 2))
        assert all(g.square == SQ_ZERO for g in p.simple_gens)


def test_presentation_flip():
    p = presentation(SpaceId.parse("FV:5,2"))  # fiber width 4, truncation index 2
    assert (p.trunc.degree, p.trunc.order) == (1, 2)
    assert [(g.label, g.square) for g in p.simple_gens] == [(2, 4), (3, SQ_ZERO), (4, SQ_ZERO)]


def test_dimension_examples():
    assert dimension(SpaceId.parse("RX:5,2")) == 7
    assert dimension(SpaceId.parse("CX:5,2")) == 15
    assert dimension(SpaceId.parse("HX:5,2")) == 31
    assert dimension(SpaceId.parse("RV:8,5")) == 25
    assert dimension(SpaceId.parse("FV:5,2")) == 10  # the flip quotient of RV:5,4
    assert dimension(SpaceId.parse("CV:4,2")) == 12
    assert dimension(SpaceId.parse("HV:5,2")) == 34


def test_quotients_drop_the_group_dimension():
    for n, k in ((5, 2), (9, 4), (12, 7)):
        assert dimension(SpaceId(Family.RX, n, k)) == dimension(SpaceId(Family.RV, n, k))
        assert dimension(SpaceId(Family.CX, n, k)) == dimension(SpaceId(Family.CV, n, k)) - 1
        assert dimension(SpaceId(Family.HX, n, k)) == dimension(SpaceId(Family.HV, n, k)) - 3


def test_top_degree_equals_dimension_on_grid():
    spaces = catalog(list(Family), range(2, 10))
    assert spaces
    for s in spaces:
        assert presentation(s).top_degree == dimension(s), str(s)


def test_omitted_generator_bookkeeping():
    spaces = catalog([Family.RX, Family.FV, Family.CX, Family.HX], range(3, 11))
    for s in spaces:
        p = presentation(s)
        if s.family is Family.RX:
            fiber_count, omitted = s.k, truncation_order(s) - 1
        elif s.family is Family.FV:
            fiber_count, omitted = 2 * s.k, truncation_order(s) - 1
        else:
            fiber_count, omitted = s.k, truncation_order(s)
        assert p.num_gens == fiber_count - 1, str(s)
        assert omitted not in p.labels, str(s)
        assert p.trunc.order == (omitted + 1 if s.family in (Family.RX, Family.FV) else omitted)


def test_no_real_generator_squares_onto_the_omitted_index():
    # the argument in spaces.presentation, checked by arithmetic alone: in RX
    # and FV, with N the truncation order, no generator label j (from n-k,
    # or n-2k for FV, up to n-1) has 2j = N-1 within the ambient bound n-1
    spaces = catalog([Family.RX, Family.FV], range(1, 257))
    for s in spaces:
        lowest = s.n - (s.k if s.family is Family.RX else 2 * s.k)
        order = truncation_order(s)
        j, odd = divmod(order - 1, 2)
        assert odd or 2 * j > s.n - 1 or not lowest <= j < s.n, str(s)
    assert len(spaces) == 48641


def test_truncation_order_is_the_fiber_tables_least_odd_coefficient():
    # the closed form against the table presentation and serre_verify read
    spaces = catalog(list(Family), range(1, 65))
    for s in spaces:
        assert truncation_order(s) == next(m for _, _, m in _fiber(s)
                                           if _coefficient_parity(s, m)), str(s)
    assert len(spaces) == 13153


def _presentation_by_degree_lookup(space):
    """Reference for presentation: each generator's square looked up by
    twice its degree over the whole fiber, the omitted generator N too."""
    fam = space.family
    fiber = _fiber(space)
    label_of_degree = {degree: label for label, degree, _ in fiber}
    trunc, order = None, 0
    if fam.is_projective:
        order = truncation_order(space)
        trunc = Trunc(fam.base_degree, order)
    gens = tuple(SimpleGenerator(label, degree, label_of_degree.get(2 * degree, SQ_ZERO))
                 for label, degree, m in fiber if m != order)
    return AlgebraPresentation(trunc, gens, symbol=fam.symbol, y_symbol=fam.y_symbol)


def test_squares_from_the_fiber_arithmetic_match_the_degree_lookup():
    spaces = catalog(list(Family), range(1, 65))
    assert len(spaces) == 13153
    for space in spaces:
        assert repr(presentation(space)) == repr(_presentation_by_degree_lookup(space)), space


def test_fiber_cap_refuses_before_any_list_is_built():
    # the order lists nothing, so it answers for every n (values found by a scan)
    assert truncation_order(SpaceId(Family.CX, 10**8, 10**8 - 1)) == 256
    assert truncation_order(SpaceId(Family.FV, 10**9, 10**9 // 2 - 1)) == 256
    tracemalloc.start()
    try:
        for space in (SpaceId(Family.RV, 10**9, 10**9 - 1), SpaceId(Family.CX, 10**6, 10**6 - 1),
                      SpaceId(Family.FV, FIBER_CAP + 3, FIBER_CAP // 2 + 1)):
            with pytest.raises(WorkCapExceeded, match=f"exceed cap {FIBER_CAP}"):
                presentation(space)
            if space.family.is_projective:
                with pytest.raises(WorkCapExceeded, match=f"exceed cap {FIBER_CAP}"):
                    serre_verify(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a fiber at the cap is built
    assert presentation(SpaceId(Family.CV, FIBER_CAP, FIBER_CAP)).num_gens == FIBER_CAP


# -- spectral sequence ----------------------------------------------------------


def test_spectral_check_lists_the_fiber_once(monkeypatch):
    # the scan reads fiber_range; only presentation lists the fiber
    import topoinv.spaces

    calls = []
    fiber = topoinv.spaces._fiber

    def counted(space):
        calls.append(space)
        return fiber(space)

    monkeypatch.setattr(topoinv.spaces, "_fiber", counted)
    spaces = catalog([Family.RX, Family.FV, Family.CX, Family.HX], range(2, 13))
    for space in spaces:
        assert serre_verify(space).match, space
    assert calls == spaces


def test_serre_real_projective_small():
    report = serre_verify(SpaceId.parse("RX:5,2"), 7)
    assert report.match
    assert report.e_infinity_series == (1,) * 8
    assert report.first_nonzero_differential_page == 4  # the truncation index


def test_serre_quaternionic_example():
    report = serre_verify(SpaceId.parse("HX:5,2"), 40)
    assert report.match
    assert report.first_nonzero_differential_page == 16  # four times the index


def test_serre_complex_line_case_is_projective_space():
    for n in (3, 4, 6):
        report = serre_verify(SpaceId(Family.CX, n, 1), 2 * n)
        assert report.match
        expect = tuple(1 if d % 2 == 0 and d <= 2 * n - 2 else 0 for d in range(2 * n + 1))
        assert report.e_infinity_series == expect
        assert report.first_nonzero_differential_page == 2 * n


def test_serre_window_hiding_all_differentials():
    # over a window too small to see the transgression both sides still agree
    report = serre_verify(SpaceId(Family.CX, 3, 1), None)  # window = dimension = 4
    assert report.window == 4
    assert report.first_nonzero_differential_page == 0
    assert report.match


def test_serre_with_interacting_squares():
    report = serre_verify(SpaceId.parse("RX:5,3"))
    assert report.match
    series = poincare(presentation(SpaceId.parse("RX:5,3")))
    assert report.e_infinity_series == tuple(series)


def test_serre_flip():
    for spec in ("FV:5,2", "FV:7,3", "FV:9,2", "FV:10,4"):
        assert serre_verify(SpaceId.parse(spec)).match, spec


def test_serre_window_beyond_dimension():
    report = serre_verify(SpaceId.parse("FV:5,2"), 15)  # dimension is 10
    assert report.match
    assert report.e_infinity_series[11:] == (0,) * 5


def _serre_series_per_degree(space, w):
    """Reference for serre_verify: every degree's monomials listed and ranked
    from scratch, then the even-coefficient generators' exterior factor."""
    fiber = _fiber(space)
    t = space.family.base_degree
    odd = [(d, m) for _, d, m in fiber if _coefficient_parity(space, m) and d <= w]
    levels = [[] for _ in range(w + 1)]
    rows = []
    for mask in range(1 << len(odd)):
        bits = [i for i in range(len(odd)) if mask >> i & 1]
        rows.append(sum(1 << (mask ^ (1 << i)) for i in bits))
        for total in range(sum(odd[i][0] for i in bits), w + 1, t):
            levels[total].append(mask)

    def rank(level):
        pivots = {}
        for mask in level:
            row = rows[mask]
            while row and row.bit_length() in pivots:
                row ^= pivots[row.bit_length()]
            if row:
                pivots[row.bit_length()] = row
        return len(pivots)

    ranks = [rank(level) for level in levels]
    betti = [len(levels[d]) - ranks[d] - (ranks[d - 1] if d else 0) for d in range(w + 1)]
    for _, fdeg, m in fiber:
        if not _coefficient_parity(space, m):
            for d in range(w, fdeg - 1, -1):
                betti[d] += betti[d - fdeg]
    return tuple(betti), min((t * m for _, m in odd), default=0)


def _serre_series_running(space, w):
    """Reference for serre_verify, and the proof of its closed form: the
    transgression complex ranked row by row.  The odd-coefficient monomials
    of the window are built by doubling and ranked by one running GF(2) elimination fed
    in order of fiber degree; the even-coefficient generators multiply in
    their exterior factor.

    In one total degree a fiber monomial fixes its base exponent, so the
    fiber mask is the column.  The base ring is polynomial, so a mask's
    row is the same in every degree, and degree d holds the masks of fiber
    degree d0 <= d, d0 = d mod t (t the base degree): the ranks are running
    ranks per residue class, since a fiber degree is -1 mod t and rows of
    two classes share no column.  The limit in degree d sums count - gain -
    gain one degree down, the monomials and pivots per fiber degree, over
    its residue class.
    """
    t = space.family.base_degree
    odd, even = [], []
    for _, d, m in _fiber(space):
        if d <= w:
            if _coefficient_parity(space, m):
                odd.append((d, m))
            else:
                even.append(d)
    # with generator i above every bit of S, row(S + i) = row(S) << 2^i | bit S
    monomials = [(0, 0, 0)]
    for i, (fdeg, _) in enumerate(odd):
        monomials += [(d0 + fdeg, mask | 1 << i, row << (1 << i) | 1 << mask)
                      for d0, mask, row in monomials if d0 + fdeg <= w]
    count, gain = [0] * (w + 1), [0] * (w + 1)
    pivots = {}
    for d0, _, row in sorted(monomials):
        count[d0] += 1
        while row:
            p = row.bit_length()
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                gain[d0] += 1
                break
            row ^= other
    series = [count[d] - gain[d] - (gain[d - 1] if d else 0) for d in range(w + 1)]
    for d in range(t, w + 1):
        series[d] += series[d - t]
    for fdeg in even:
        for d in range(w, fdeg - 1, -1):
            series[d] += series[d - fdeg]
    return tuple(series), min((t * m for _, m in odd), default=0)


def _old_estimate(space, w):
    """The work estimate, 2^(odd-coefficient generators in the window) *
    ((w + 1) // base degree + 1), above which serre_verify once refused."""
    g = sum(1 for _, d, m in _fiber(space) if d <= w and _coefficient_parity(space, m))
    return (1 << g) * ((w + 1) // space.family.base_degree + 1)


# fields of 8, 16, 32 and 64 bits filled in the elimination's packed series,
# and of 65 and 72 bits, past a machine word, each with two odd-coefficient
# generators; the 74 generators of HX:128,127 in its window were bounded by
# partitions
_WIDE = [("RX:5,4", 10), ("CX:17,11", 40), ("CX:33,26", 100), ("RX:65,53", 2014),
         ("RX:65,54", 2025), ("RX:65,60", 2070), ("HX:128,127", 300)]


def _serre(space, w):
    report = serre_verify(space, w)
    return report.e_infinity_series, report.first_nonzero_differential_page


def test_serre_running_ranks_match_per_degree_reference():
    # windows that drop generators (0, 3, 7), the top degree, and past it;
    # base degrees 1, 2 and 4 give one, two and four residue classes
    spaces = catalog([Family.RX, Family.FV, Family.CX, Family.HX], range(2, 13))
    cases = [(space, w) for space in spaces
             for w in (0, 3, 7, dimension(space), dimension(space) + 5)]
    assert len(spaces) == 217
    cases += [(SpaceId.parse(spec), w) for spec, w in _WIDE]
    for space, w in cases:
        want = _serre_series_per_degree(space, w)
        assert _serre_series_running(space, w) == want, (str(space), w)
        assert _serre(space, w) == want, (str(space), w)


def test_serre_closed_form_matches_the_elimination_up_to_n_24():
    # every window the elimination ranked within its old work cap, 2^21
    spaces = catalog([Family.RX, Family.FV, Family.CX, Family.HX], range(2, 25))
    cases = [(space, w) for space in spaces
             for w in (0, 3, 7, dimension(space), dimension(space) + 5)]
    within = [(space, w) for space, w in cases if _old_estimate(space, w) <= 1 << 21]
    assert (len(cases), len(within)) == (4685, 4674)
    for space, w in within + [(SpaceId.parse(spec), w) for spec, w in _WIDE]:
        assert _serre(space, w) == _serre_series_running(space, w), (str(space), w)


def test_serre_flags_a_planted_truncation_order(monkeypatch):
    # truncation_order one too high wherever the fiber range allows: the
    # closed form never reads it, so it flags exactly the rings whose series
    # the elimination tells apart from the presentation
    import topoinv.spaces

    order = topoinv.spaces.truncation_order

    def planted(space):
        m = order(space)
        return m + 1 if m + 1 in fiber_range(space) else m

    monkeypatch.setattr(topoinv.spaces, "truncation_order", planted)
    changed, refused, flagged = 0, 0, 0
    for space in catalog([Family.RX, Family.FV, Family.CX, Family.HX], range(2, 17)):
        if planted(space) == order(space):
            assert serre_verify(space).match, str(space)
            continue
        changed += 1
        try:
            report = serre_verify(space)
        except InvalidParameters:  # a square onto the omitted generator
            refused += 1
            continue
        want = _serre_series_running(space, report.window)[0]
        assert report.match == (want == report.presentation_series), str(space)
        flagged += not report.match
    assert (changed, refused, flagged) == (287, 42, 245)


def test_serre_width_holds_where_the_limit_reaches_the_bound(monkeypatch):
    # with every coefficient planted even nothing transgresses, and the limit
    # is Z2[y] tensored with the exterior algebra on RX:65,64's 64 generators
    # of degrees 1..64; every subset sums to at most the window, 2080, so
    # degree 2080 counts all 2^64 of them and needs the bits of the base
    # powers on top of the generators' 64
    import topoinv.spaces

    monkeypatch.setattr(topoinv.spaces, "_coefficient_parity", lambda space, m: 0)
    space = SpaceId.parse("RX:65,64")
    w = dimension(space)
    want = [1] * (w + 1)
    for _, fdeg, _ in _fiber(space):
        for d in range(w, fdeg - 1, -1):
            want[d] += want[d - fdeg]
    report = serre_verify(space)
    assert report.e_infinity_series == tuple(want)
    assert (w, want[w]) == (2080, 1 << 64)


def test_serre_costliest_space_up_to_sixteen():
    # 14 odd generators, whose elimination ranked 2^14 * 107 monomials: the
    # dearest spectral check of `verify --max-n 16` before the closed form
    space = SpaceId.parse("RX:15,14")
    report = serre_verify(space)
    assert report.match
    assert report.e_infinity_series == tuple(poincare(presentation(space)))
    assert report.first_nonzero_differential_page == 2


def test_spectral_suite_checks_every_quotient_space_up_to_64():
    # the closed form refuses none of the 6,977 quotient spaces with n <= 64,
    # of which the elimination's work cap refused 1,234
    from topoinv.checks import run_suites

    (name, spaces, failures, warnings, skips, _, _), = run_suites("spectral", 64)
    assert (name, spaces, failures, warnings, skips) == ("spectral", 6977, [], [], [])


def test_serre_rejects_stiefel_families():
    with pytest.raises(InvalidParameters):
        serre_verify(SpaceId.parse("RV:5,2"))


def test_serre_work_cap():
    # 30 odd generators, estimate 2^30 * 467: the elimination's work cap
    # refused it, and the closed form answers
    space = SpaceId.parse("RX:31,30")
    report = serre_verify(space)
    assert report.match
    assert report.e_infinity_series == tuple(poincare(presentation(space)))
    assert report.first_nonzero_differential_page == 2


def test_serre_series_cap_refuses_before_any_row():
    # the series of 2^21 - 2 degrees is over SERIES_WORK_CAP, and must be
    # refused before the limit's series is built
    tracemalloc.start()
    try:
        with pytest.raises(WorkCapExceeded):
            serre_verify(SpaceId.parse("CX:2,1"), 2**21 - 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_serre_small_window_leaves_out_generators_above_it():
    # RX:31,k has only odd coefficients; a generator of degree q is in the window iff q <= w
    # (17 generators at window 17, estimate 2^17 * 19, were past the old work cap)
    for spec, window in (("RX:31,20", 0), ("RX:31,20", 12), ("RX:31,30", 16), ("RX:31,30", 17)):
        assert serre_verify(SpaceId.parse(spec), window).match, (spec, window)


# -- catalog ----------------------------------------------------------------------


def test_catalog_grid_expansion():
    spaces = catalog([Family.RX], range(3, 6), range(2, 5))
    assert [(s.n, s.k) for s in spaces] == [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]


def test_catalog_empty_range():
    assert catalog([Family.RX], range(3, 3)) == []


def test_catalog_flip_constraint():
    spaces = catalog([Family.FV], [5], range(1, 3))
    assert [(s.n, s.k) for s in spaces] == [(5, 1), (5, 2)]


# -- the family table against the per-family formulas it replaced ---------------------

_OLD_IN_RANGE = {
    "RV": lambda n, k: k < n,
    "CV": lambda n, k: k <= n,
    "HV": lambda n, k: k <= n,
    "RX": lambda n, k: 1 < k < n,
    "FV": lambda n, k: 2 * k < n,
    "CX": lambda n, k: k < n,
    "HX": lambda n, k: k < n,
}

_OLD_DIMENSION = {
    "RV": lambda n, k: n * k - k * (k + 1) // 2,
    "RX": lambda n, k: n * k - k * (k + 1) // 2,
    "FV": lambda n, k: 2 * n * k - k * (2 * k + 1),
    "CV": lambda n, k: 2 * n * k - k * k,
    "CX": lambda n, k: 2 * n * k - k * k - 1,
    "HV": lambda n, k: 4 * n * k - 2 * k * k + k,
    "HX": lambda n, k: 4 * n * k - 2 * k * k + k - 3,
}


def _old_space(family, n, k):
    """The space the per-family formulas admitted, or None."""
    if n < 1 or k < 1 or not _OLD_IN_RANGE[family](n, k):
        return None
    return SpaceId(family, n, k)


def test_family_table_admits_the_old_ranges_and_dimensions():
    accepted = 0
    for family in _OLD_IN_RANGE:
        for n in range(1, 201):
            for k in range(1, 202):
                try:
                    space = SpaceId(family, n, k)
                except InvalidParameters:
                    assert not _OLD_IN_RANGE[family](n, k), (family, n, k)
                    continue
                assert _OLD_IN_RANGE[family](n, k), space
                assert dimension(space) == _OLD_DIMENSION[family](n, k), space
                accepted += 1
    assert accepted == 129_501


@pytest.mark.parametrize("with_k", [False, True])
def test_catalog_matches_the_old_expansion(with_k):
    grid = range(-3, 41)
    old = [space for family in _OLD_IN_RANGE for n in grid
           for k in (grid if with_k else range(1, max(n, 1) + 1))
           if (space := _old_space(family, n, k)) is not None]
    assert catalog(list(_OLD_IN_RANGE), grid, grid if with_k else None) == old
