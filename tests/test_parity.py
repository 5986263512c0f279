import math

import pytest
from hypothesis import given, strategies as st

from topoinv.errors import InvalidParameters, WorkCapExceeded
from topoinv.parity import BINOM_INDEX_CAP, binom_divides, binom_parity, parity_row
from topoinv.spaces import Family, SpaceId, truncation_order


def test_binom_parity_examples():
    assert binom_parity(5, 4) == 1  # binom(5,4) = 5
    assert binom_parity(4, 2) == 0  # binom(4,2) = 6
    for n in (0, 1, 7, 64):
        assert binom_parity(n, 0) == 1


def test_binom_parity_beyond_range_is_even():
    assert binom_parity(3, 5) == 0
    assert binom_parity(0, 1) == 0


def test_binom_parity_rejects_negatives():
    with pytest.raises(InvalidParameters):
        binom_parity(-1, 0)
    with pytest.raises(InvalidParameters):
        binom_parity(3, -2)


def test_lucas_agrees_with_exact_binomials_exhaustively():
    for n in range(65):
        for j in range(n + 1):
            assert binom_parity(n, j) == math.comb(n, j) % 2, (n, j)


@given(st.integers(0, 3000), st.integers(0, 3000))
def test_lucas_agrees_with_exact_binomials_random(n, j):
    assert binom_parity(n, j) == (math.comb(n, j) % 2 if j <= n else 0)


def test_parity_row_examples():
    assert parity_row(2) == (1, 0, 1)
    assert parity_row(0) == (1,)
    assert parity_row(5) == (1, 1, 0, 0, 1, 1)


def test_parity_row_weight_is_power_of_two_of_popcount():
    for n in range(65):
        row = parity_row(n)
        assert row[0] == 1 and row[n] == 1
        assert sum(row) == 1 << bin(n).count("1")


# the truncation order N ("n index"): least m in the fiber's range whose
# transgression coefficient is odd


def test_n_index_examples():
    assert truncation_order(SpaceId(Family.RX, 5, 2)) == 4
    assert truncation_order(SpaceId(Family.RX, 8, 3)) == 8
    assert truncation_order(SpaceId(Family.FV, 8, 2)) == 6


def test_n_index_cq_always_exists():
    for n in range(1, 40):
        for k in range(1, n + 1):
            families = (Family.CV, Family.HV) + ((Family.CX, Family.HX) if k < n else ())
            for fam in families:
                v = truncation_order(SpaceId(fam, n, k))
                assert n - k + 1 <= v <= n
                assert math.comb(n, v) % 2 == 1
                for j in range(n - k + 1, v):
                    assert math.comb(n, j) % 2 == 0


def test_n_index_real_bottom_iff_odd_binomial():
    for n in range(3, 33):
        for k in range(2, n):
            v = truncation_order(SpaceId(Family.RX, n, k))
            assert (v == n - k + 1) == (math.comb(n, n - k + 1) % 2 == 1)
            assert math.comb(n, v) % 2 == 1
            for j in range(n - k + 1, v):
                assert math.comb(n, j) % 2 == 0


def test_n_index_flip_matches_definition():
    for n in range(3, 33):
        for k in range(1, (n - 1) // 2 + 1):
            v = truncation_order(SpaceId(Family.FV, n, k))
            assert math.comb(k + v - 1, v) % 2 == 1
            for j in range(n - 2 * k + 1, v):
                assert math.comb(k + j - 1, j) % 2 == 0


def test_n_index_flip_always_exists():
    # the 2k-wide range holds a multiple of the least power of two >= k
    for n in range(3, 513):
        for k in range(1, (n - 1) // 2 + 1):
            v = truncation_order(SpaceId(Family.FV, n, k))
            assert n - 2 * k + 1 <= v <= n
            assert binom_parity(k + v - 1, v) == 1


def test_n_index_parameter_validation():
    # the ranges the quotient families admit: no space, so no order
    with pytest.raises(InvalidParameters):
        SpaceId(Family.RX, 5, 1)
    with pytest.raises(InvalidParameters):
        SpaceId(Family.RX, 5, 5)
    with pytest.raises(InvalidParameters):
        SpaceId(Family.FV, 6, 3)
    with pytest.raises(InvalidParameters):
        SpaceId(Family.HV, 4, 5)


def test_index_of_the_full_frame_space_matches_the_definition():
    # k = n has no quotient space: HV:n,n's index is read off its fiber table
    for n in range(1, 65):
        lowest_odd = next(m for m in range(1, n + 1) if math.comb(n, m) % 2)
        assert truncation_order(SpaceId(Family.HV, n, n)) == lowest_odd, n


def test_binom_divides_examples():
    assert binom_divides(5, 2, 6, 3)  # 5 | 15
    assert not binom_divides(6, 2, 5, 2)  # 6 does not divide 5
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert binom_divides(n, k, n, k)


def test_binom_divides_uses_exact_integers():
    # binom(64, 33) does not fit in 64 bits; self-divisibility must still hold
    assert binom_divides(64, 32, 64, 32)
    assert binom_divides(64, 32, 65, 33) == (math.comb(65, 33) % math.comb(64, 33) == 0)


def test_binom_divides_matches_the_definition():
    for n in range(1, 25):
        for k in range(1, n + 1):
            for m in range(1, 25):
                for l in range(1, m + 1):
                    want = math.comb(m, m - l + 1) % math.comb(n, n - k + 1) == 0
                    assert binom_divides(n, k, m, l) == want, (n, k, m, l)


def test_binom_divides_reads_the_cheaper_pair_and_caps_the_rest():
    # equal gaps g = 500000 one apart: binom(10^6 + 1, 1) / binom(500000, 1)
    assert not binom_divides(10**6, 500000, 10**6 + 1, 500001)
    assert binom_divides(10**9, 10**9 - 1, 10**9, 10**9 - 1)
    assert not binom_divides(10**9, 500, 10**9 - 1, 499)  # m < n: too small to be divided
    with pytest.raises(WorkCapExceeded, match=f"cap {BINOM_INDEX_CAP}"):
        binom_divides(10**7, 5 * 10**6, 2 * 10**7, 15 * 10**6)


def test_binom_divides_validation():
    with pytest.raises(InvalidParameters):
        binom_divides(5, 0, 6, 3)
    with pytest.raises(InvalidParameters):
        binom_divides(5, 6, 6, 3)
