"""Truncated series arithmetic, the generic series, its positive truncation,
and the degree/cost bounds."""

import itertools
import math
import random
import time
import tracemalloc

import pytest

from sgb import (
    TruncSeries,
    complexity_estimate,
    degree_bound_Dnm,
    expand_hilbert_series,
    froberg_series,
    lazard_bound,
    positive_truncate,
    truncated_froberg_polynomial,
)
from sgb import series as series_module
from sgb.errors import (
    CapExhausted,
    InvalidDegree,
    OmegaOutOfRange,
    UndefinedBound,
)
from sgb.series import MAX_SERIES_CAP, degree_product, divide_by_one_minus_z


def numerator_oracle(degrees):
    """prod (1 - z^d) by long multiplication, independent of the library path."""
    num = [1]
    for d in degrees:
        nxt = [0] * (len(num) + d)
        for i, c in enumerate(num):
            nxt[i] += c
            nxt[i + d] -= c
        num = nxt
    return num


def series_oracle(n, degrees, cap):
    """Long multiplication / division oracle, independent of the library path."""
    num = numerator_oracle(degrees)
    # divide by (1-z)^n termwise: repeated prefix sums
    out = num[:cap] + [0] * max(0, cap - len(num))
    for _ in range(n):
        for i in range(1, cap):
            out[i] += out[i - 1]
    return out[:cap]


class TestFrobergSeries:
    def test_spec_examples(self):
        assert froberg_series(2, [2, 2], 4).coeffs == (1, 2, 1, 0)
        assert froberg_series(2, [2, 2, 2], 5).coeffs == (1, 2, 0, -2, -1)
        assert froberg_series(3, [], 3).coeffs == (1, 3, 6)

    def test_invalid_degree(self):
        with pytest.raises(InvalidDegree):
            froberg_series(2, [2, 0], 4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda cap: divide_by_one_minus_z([1], 2, cap),
            lambda cap: froberg_series(2, [2], cap).coeffs,
            lambda cap: expand_hilbert_series([1], 2, cap - 1),
        ],
        ids=["divide_by_one_minus_z", "froberg_series", "expand_hilbert_series"],
    )
    def test_series_over_the_limit_is_refused(self, build):
        with pytest.raises(CapExhausted):
            build(MAX_SERIES_CAP + 1)
        assert len(build(MAX_SERIES_CAP)) == MAX_SERIES_CAP
        # a bad degree with a cap inside the limit is still reported
        with pytest.raises(InvalidDegree):
            froberg_series(2, [2, 0], MAX_SERIES_CAP)

    def test_empty_product_is_binomial_series(self):
        for n in range(1, 5):
            s = froberg_series(n, [], 10)
            assert all(s[k] == math.comb(n - 1 + k, k) for k in range(10))

    def test_against_long_multiplication_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(0, 5)
            degrees = [rng.randint(1, 4) for _ in range(m)]
            cap = rng.randint(1, 15)
            assert list(froberg_series(n, degrees, cap).coeffs) == series_oracle(
                n, degrees, cap
            )

    def test_truncation_consistency(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(1, 4)
            degrees = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
            big = froberg_series(n, degrees, 16)
            small = froberg_series(n, degrees, 9)
            assert big.coeffs[:9] == small.coeffs


class TestDegreeProduct:
    def test_against_long_multiplication_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            degrees = [rng.randint(1, 5) for _ in range(rng.randint(0, 6))]
            assert degree_product(degrees) == numerator_oracle(degrees), degrees

    def test_empty_product_is_one(self):
        assert degree_product([]) == [1]

    def test_degree_zero_is_refused_before_the_length(self):
        # the degree sum is over the limit too, but the bad degree is named
        with pytest.raises(InvalidDegree):
            degree_product([MAX_SERIES_CAP, 0])
        with pytest.raises(InvalidDegree):
            degree_product([2, 0, 3])

    def test_long_product_is_refused_before_any_list(self):
        # a list of 3 * 10^9 + 1 coefficients would take 24 GB
        tracemalloc.start()
        try:
            with pytest.raises(CapExhausted):
                degree_product([10**9] * 3)
            with pytest.raises(CapExhausted):
                degree_product([MAX_SERIES_CAP // 2] * 2)
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()
        # the longest product accepted has MAX_SERIES_CAP coefficients
        assert len(degree_product([MAX_SERIES_CAP // 2, MAX_SERIES_CAP // 2 - 1])) == MAX_SERIES_CAP


class TestPositiveTruncate:
    def test_spec_examples(self):
        assert positive_truncate(TruncSeries((1, 2, 0, -2, -1))) == [1, 2]
        assert positive_truncate(TruncSeries((1, 2, 1, 0))) == [1, 2, 1]
        with pytest.raises(CapExhausted):
            positive_truncate(TruncSeries((1, 3, 6)))

    def test_requires_positive_start(self):
        with pytest.raises(InvalidDegree):
            positive_truncate(TruncSeries((0, 1)))

    def test_retry_loop_equals_unit_product_for_square_systems(self):
        # m = n: the truncation is exactly prod(1 + z + ... + z^(d_j - 1))
        for n in range(1, 5):
            for degrees in itertools.product(range(1, 5), repeat=n):
                prefix = truncated_froberg_polynomial(n, list(degrees))
                expected = [1]
                for d in degrees:
                    nxt = [0] * (len(expected) + d - 1)
                    for i, c in enumerate(expected):
                        for j in range(d):
                            nxt[i + j] += c
                    expected = nxt
                assert prefix == expected

    def test_one_series_at_the_lazard_cap(self, monkeypatch):
        # the first non-positive coefficient lies at or below the Lazard
        # bound L, so one series of L + 1 coefficients always suffices
        caps = []
        real = series_module.froberg_series

        def spy(n, degrees, cap):
            caps.append(cap)
            return real(n, degrees, cap)

        monkeypatch.setattr(series_module, "froberg_series", spy)
        for n in range(1, 5):
            for m in range(n, n + 3):
                for degrees in itertools.combinations_with_replacement(range(1, 6), m):
                    caps.clear()
                    truncated_froberg_polynomial(n, list(degrees))
                    assert caps == [lazard_bound(n, m, degrees) + 1], degrees

    @pytest.mark.parametrize("n, degrees", [(3, [2]), (2, []), (4, [2, 3, 1])])
    def test_fewer_forms_than_variables_is_undefined(self, n, degrees):
        # prod(1 + ... + z^(d_j - 1)) / (1 - z)^(n - m) has no nonpositive
        # coefficient, so the truncation never ends
        with pytest.raises(UndefinedBound):
            truncated_froberg_polynomial(n, degrees)


class TestBounds:
    def test_Dnm_spec_examples(self):
        assert degree_bound_Dnm(2, 2, [2, 2]) == 3
        assert degree_bound_Dnm(2, 3, [2, 2, 2]) == 2
        assert degree_bound_Dnm(3, 2, [2, 2]) == 3  # m = n-1 branch

    def test_Dnm_undefined_below_n_minus_1(self):
        with pytest.raises(UndefinedBound):
            degree_bound_Dnm(4, 2, [2, 2])

    def test_Dnm_square_case_is_macaulay_bound(self):
        for n in range(1, 5):
            for degrees in itertools.product(range(1, 5), repeat=n):
                assert degree_bound_Dnm(n, n, list(degrees)) == sum(
                    d - 1 for d in degrees
                ) + 1
                assert degree_bound_Dnm(n, n, list(degrees)) == lazard_bound(
                    n, n, list(degrees)
                )

    def test_Dnm_square_closed_form_equals_the_series_route(self):
        for n in range(1, 6):
            for degrees in itertools.product(range(1, 5), repeat=n):
                series = len(truncated_froberg_polynomial(n, list(degrees)))
                assert degree_bound_Dnm(n, n, list(degrees)) == series, degrees

    def test_Dnm_square_case_with_huge_degrees_is_immediate(self):
        start = time.monotonic()
        assert degree_bound_Dnm(3, 3, [10**6] * 3) == 3 * (10**6 - 1) + 1
        assert time.monotonic() - start < 1

    def test_overdetermined_series_cap_is_refused_before_building(self):
        # cap 3 * (10^6 - 1) + 2 is over the limit; no series may be built:
        # a list of that many coefficients alone takes 24 MB
        tracemalloc.start()
        try:
            start = time.monotonic()
            with pytest.raises(CapExhausted):
                truncated_froberg_polynomial(2, [10**6] * 3)
            with pytest.raises(CapExhausted):
                degree_bound_Dnm(2, 3, [10**6] * 3)
            assert time.monotonic() - start < 1
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        # the largest cap accepted is the limit itself: Lazard bound + 1
        degrees = [MAX_SERIES_CAP // 2, MAX_SERIES_CAP // 2, 2]
        assert degree_bound_Dnm(2, 3, degrees) <= lazard_bound(2, 3, degrees)
        # a long series with many numerator terms costs n prefix sums and one
        # pass per degree, not cap times the terms (cap 60,107 here); a long
        # degree list costs m passes over the cap, not its numerator of
        # degree sum(d_j)
        start = time.monotonic()
        assert degree_bound_Dnm(15, 16, list(range(4000, 4016))) == 32053
        assert degree_bound_Dnm(2, 20_000, [2] * 20_000) == 2
        assert time.monotonic() - start < 2

    def test_Dnm_never_exceeds_lazard_for_overdetermined(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = rng.randint(n, n + 4)
            degrees = [rng.randint(1, 4) for _ in range(m)]
            assert degree_bound_Dnm(n, m, degrees) <= lazard_bound(n, m, degrees)

    def test_lazard_spec_examples(self):
        assert lazard_bound(3, 3, [3, 2, 2]) == 5
        assert lazard_bound(2, 3, [2, 2, 2]) == 3
        assert lazard_bound(3, 1, [4]) == 4

    def test_lazard_uses_largest_degrees(self):
        assert lazard_bound(2, 4, [4, 1, 3, 2]) == (4 - 1) + (3 - 1) + 1

    def test_lazard_refusals_name_their_cause(self):
        with pytest.raises(InvalidDegree, match=r"^expected 2 degrees, got 1$"):
            lazard_bound(3, 2, [2])
        with pytest.raises(InvalidDegree, match=r"^need m >= 1 degrees$"):
            lazard_bound(3, 0, [])
        with pytest.raises(InvalidDegree, match=r"^degrees must be >= 1$"):
            lazard_bound(3, 3, [0, 2, 2])


class TestComplexity:
    def test_spec_examples(self):
        cost_new, cost_classic = complexity_estimate(2, 3, 2, 2)
        assert cost_new == 27 and cost_classic == 54

    def test_fractional_omega(self):
        cost_new, _ = complexity_estimate(5, 10, 6, 2.807)
        assert cost_new == pytest.approx(10 * 210**2.807)

    def test_omega_range(self):
        for bad in (1.9, 3.0, 3.5):
            with pytest.raises(OmegaOutOfRange):
                complexity_estimate(2, 3, 2, bad)

    def test_classic_dominates(self):
        rng = random.Random(3)
        for _ in range(100):
            n, m = rng.randint(1, 6), rng.randint(1, 8)
            D = rng.randint(1, 10)
            omega = rng.choice([2, 2.376, 2.807])
            cost_new, cost_classic = complexity_estimate(n, m, D, omega)
            assert cost_new <= cost_classic
