"""Monomial-ideal Hilbert data: numerator recursion against the brute-force
standard-monomial count, Krull dimension, and the regularity profile; the
packed generators against plain tuple loops."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sgb import (
    expand_hilbert_series,
    hilbert_function,
    hilbert_numerator,
    krull_dim,
    minimalize,
    monomials_of_degree,
    regularity_profile,
)
from sgb import check_weakly_revlex, drl_compare, hilbert
from sgb.errors import (
    DegreeTooLarge,
    DimensionMismatch,
    InvalidDegree,
    InvariantViolation,
    SgbError,
    UnitIdeal,
)
from sgb.series import poly_eval, poly_trim


def random_minimal_ideal(rng, n_max=4, gens_max=6, deg_max=4):
    n = rng.randint(1, n_max)
    gens = []
    for _ in range(rng.randint(0, gens_max)):
        d = rng.randint(1, deg_max)
        gens.append(rng.choice(monomials_of_degree(n, d)))
    return minimalize(gens, n)


def brute_force_hf(J, d):
    """Independent of MonomialIdeal.contains: plain divisibility loops."""
    count = 0
    for m in monomials_of_degree(J.n, d):
        if not any(all(ge <= me for ge, me in zip(g, m)) for g in J.gens):
            count += 1
    return count


class TestMinimalize:
    def test_spec_examples(self):
        assert minimalize([(2, 0), (3, 0), (1, 1)], 2).gens == ((2, 0), (1, 1))
        assert minimalize([], 2).gens == ()
        pairwise = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
        assert set(pairwise.gens) == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minimalize([(1, 0), (1, 0, 0)], 2)

    def test_exponents_that_do_not_pack_are_refused(self):
        # a negative exponent would borrow from the next field of its key
        for gens in ([(2**31, 0)], [(2**30, 2**30)], [(0, 2**31 - 1), (1, 2**31 - 1)]):
            with pytest.raises(DegreeTooLarge):
                minimalize(gens, 2)
        with pytest.raises(InvalidDegree) as err:
            minimalize([(-1, 2)], 2)
        assert isinstance(err.value, SgbError)
        with pytest.raises(InvalidDegree):
            minimalize([(1, 0), (3, -1)], 2)
        assert minimalize([(2**31 - 1, 0)], 2).gens == ((2**31 - 1, 0),)

    def test_same_ideal_membership(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 3)
            gens = [rng.choice(monomials_of_degree(n, rng.randint(1, 3))) for _ in range(5)]
            J = minimalize(gens, n)
            for d in range(0, 5):
                for m in monomials_of_degree(n, d):
                    in_original = any(
                        all(ge <= me for ge, me in zip(g, m)) for g in gens
                    )
                    assert in_original == J.contains(m)


class TestHilbertNumerator:
    def test_spec_examples(self):
        assert hilbert_numerator(minimalize([], 3)) == [1]
        assert hilbert_numerator(minimalize([(1, 0)], 2)) == [1, -1]
        assert hilbert_numerator(minimalize([(2, 0), (1, 1)], 2)) == [1, 0, -2, 1]

    def test_oracle_equivalence_random(self):
        rng = random.Random(1)
        for _ in range(150):
            J = random_minimal_ideal(rng)
            hf = expand_hilbert_series(hilbert_numerator(J), J.n, 12)
            for d in range(13):
                assert hf[d] == brute_force_hf(J, d), (J.gens, d)

    def test_order_independence(self):
        rng = random.Random(2)
        for _ in range(50):
            J = random_minimal_ideal(rng)
            gens = list(J.gens)
            rng.shuffle(gens)
            J2 = minimalize(gens, J.n)
            assert hilbert_numerator(J) == hilbert_numerator(J2)


class TestKrullDim:
    def test_spec_examples(self):
        assert krull_dim(minimalize([], 3)) == 3
        assert krull_dim(minimalize([(2, 0), (0, 3)], 2)) == 0
        assert krull_dim(minimalize([(2, 0), (1, 1)], 2)) == 1

    def test_unit_ideal(self):
        with pytest.raises(UnitIdeal):
            krull_dim(minimalize([(0, 0)], 2))

    def test_dimension_zero_iff_all_pure_powers(self):
        rng = random.Random(3)
        for _ in range(200):
            J = random_minimal_ideal(rng, n_max=3)
            if not J.gens:
                continue
            has_all_pure = all(
                any(g[i] and sum(g) == g[i] for g in J.gens) for i in range(J.n)
            )
            assert (krull_dim(J) == 0) == has_all_pure

    def test_matches_hf_stabilization(self):
        # dimension 1 iff HF eventually a positive constant; 0 iff eventually 0
        rng = random.Random(4)
        for _ in range(100):
            J = random_minimal_ideal(rng, n_max=3, deg_max=3)
            if not J.gens:
                continue
            r = krull_dim(J)
            far = [brute_force_hf(J, d) for d in range(10, 14)]
            if r == 0:
                assert all(v == 0 for v in far)
            elif r == 1:
                assert len(set(far)) == 1 and far[0] > 0

    def test_matches_cover_search(self):
        # the free-set tests and the pruned branching stop early; the least
        # cover over every subset is the plain definition
        rng = random.Random(6)
        for _ in range(1000):
            J = random_minimal_ideal(rng, n_max=7, gens_max=9, deg_max=3)
            assert krull_dim(J) == tuple_cover_dim(J.n, J.gens)

    @pytest.mark.parametrize(
        "n, pure, mixed, expected",
        [(24, 24, [], 0), (30, 0, [(1,) + (0,) * 29], 29), (30, 29, [], 1)],
        ids=["24-squares", "x1-in-30", "29-squares-in-30"],
    )
    def test_dimension_at_most_one_or_near_n_is_fast(self, n, pure, mixed, expected):
        # a cover search alone tries about 2^n sets at dimension <= 1
        squares = [tuple(2 * (j == i) for j in range(n)) for i in range(pure)]
        J = minimalize(squares + mixed, n)
        start = time.perf_counter()
        assert krull_dim(J) == expected
        assert time.perf_counter() - start < 0.1

    def test_middle_dimension_is_fast(self):
        # x1 x2, x3 x4, ..., x21 x22: the least cover takes one variable of
        # each pair, dimension 11; a search over the covers of each size
        # tries about C(22, 11) sets
        n = 22
        J = minimalize([tuple(int(j // 2 == i) for j in range(n)) for i in range(n // 2)], n)
        start = time.perf_counter()
        assert krull_dim(J) == 11
        assert time.perf_counter() - start < 0.5


class TestHilbertFunction:
    def test_spec_examples(self):
        J = minimalize([(2, 0), (1, 1)], 2)
        assert hilbert_function(J, 1) == 2
        assert hilbert_function(J, 5) == 1
        assert hilbert_function(minimalize([], 2), 2) == 3


class TestRegularityProfile:
    def test_artinian_example(self):
        prof = regularity_profile(minimalize([(2, 0), (1, 1), (0, 3)], 2))
        assert prof.krull_dim == 0
        assert prof.d_reg == prof.gen_d_reg == prof.hilb == 3
        assert prof.hp_constant is None

    def test_dimension_one_example(self):
        prof = regularity_profile(minimalize([(2, 0), (1, 1)], 2))
        assert prof.krull_dim == 1
        assert prof.h_poly == (1, 1, -1)
        assert prof.hilb == prof.gen_d_reg == 2
        assert prof.d_reg is None
        assert prof.hp_constant == 1

    def test_principal_variable_example(self):
        prof = regularity_profile(minimalize([(1, 0)], 2))
        assert prof.krull_dim == 1 and prof.hilb == 0 and prof.hp_constant == 1

    def test_unit_ideal(self):
        with pytest.raises(UnitIdeal):
            regularity_profile(minimalize([(0, 0, 0)], 3))

    @pytest.mark.parametrize(
        "name, fake, message",
        [
            # r too small: (1-z)^2 does not divide 1 - 2z^2 + z^3
            ("krull_dim", lambda real: lambda J: 0, "must divide"),
            # r too large: h keeps the factor 1 - z
            ("krull_dim", lambda real: lambda J: 2, "must not vanish"),
            # a wrong h(1) moves the measured stabilization degree
            ("poly_eval", lambda real: lambda poly, z: real(poly, z) + 1, "stabilization"),
        ],
    )
    def test_invariant_failures_are_typed(self, monkeypatch, name, fake, message):
        J = minimalize([(2, 0), (1, 1)], 2)
        monkeypatch.setattr(hilbert, name, fake(getattr(hilbert, name)))
        with pytest.raises(InvariantViolation, match=message) as err:
            regularity_profile(J)
        assert isinstance(err.value, SgbError)

    def test_h_poly_divisibility_and_nonvanishing(self):
        rng = random.Random(5)
        for _ in range(150):
            J = random_minimal_ideal(rng)
            prof = regularity_profile(J)
            # reconstruct numerator = h * (1-z)^(n - r)
            recon = list(prof.h_poly)
            for _ in range(J.n - prof.krull_dim):
                recon = poly_trim(
                    [a - b for a, b in zip(recon + [0], [0] + recon)]
                )
            assert recon == list(poly_trim(list(prof.numerator)))
            assert poly_eval(list(prof.h_poly), 1) != 0
            assert prof.hilb == len(prof.h_poly) - 1 - prof.krull_dim + 1

    def test_stabilization_measured_vs_formula(self):
        rng = random.Random(6)
        for _ in range(150):
            J = random_minimal_ideal(rng, n_max=3, deg_max=3)
            prof = regularity_profile(J)
            if prof.krull_dim > 1:
                continue
            stab = prof.gen_d_reg
            horizon = stab + 4
            values = [brute_force_hf(J, d) for d in range(horizon + 1)]
            assert len(set(values[stab:])) == 1
            if stab > 0:
                assert values[stab - 1] != values[stab]
            if prof.krull_dim == 0:
                assert values[prof.d_reg] == 0
                if prof.d_reg > 0:
                    assert values[prof.d_reg - 1] > 0


# ---------------------------------------------------------------------------
# the packed layer against plain tuple loops
# ---------------------------------------------------------------------------

TOP = 2**31 - 1  # largest degree a packed monomial holds


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@st.composite
def monomial_lists(draw, big=False):
    """n in 1..5 and a list of exponent tuples: small exponents, the unit
    monomial now and then, and with ``big`` one exponent near 2^31 - 1."""
    n = draw(st.integers(1, 5))
    gens = []
    for _ in range(draw(st.integers(0, 7))):
        m = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if draw(st.integers(0, 19)) == 0:
            m = [0] * n
        elif big and draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            m[i] = 0
            m[i] = TOP - sum(m) - draw(st.integers(0, 2))
        gens.append(tuple(m))
    return n, gens


def tuple_minimal(gens):
    """Generators that no other divides, one copy each."""
    distinct = set(gens)
    return {g for g in distinct if not any(h != g and tuple_divides(h, g) for h in distinct)}


def tuple_cover_dim(n, gens):
    """n minus the least number of variables meeting every generator's
    support, by trying every subset; None for the unit ideal."""
    supports = [{i for i, e in enumerate(g) if e} for g in gens]
    if any(not s for s in supports):
        return None
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            if all(s & set(cover) for s in supports):
                return n - size


def tuple_weakly_revlex(n, gens):
    """Every monomial DRL-above a generator, of its degree, lies in the ideal."""
    return all(
        any(tuple_divides(h, t) for h in gens)
        for g in gens
        for t in monomials_of_degree(n, sum(g))
        if drl_compare(t, g) == 1
    )


class TestPackedIdeals:
    @settings(max_examples=300, deadline=None)
    @given(monomial_lists(big=True))
    def test_minimal_generators(self, case):
        n, gens = case
        J = minimalize(gens, n)
        assert set(J.gens) == tuple_minimal(gens)
        assert len(J.gens) == len(set(J.gens))
        # DRL-descending, ascending keys
        assert all(drl_compare(a, b) == 1 for a, b in zip(J.gens, J.gens[1:]))
        assert list(J.keys) == sorted(J.keys)
        assert J.is_unit() == ((0,) * n in gens)
        for m in set(gens) | {(1,) * n, (TOP,) + (0,) * (n - 1)}:
            assert J.contains(m) == any(tuple_divides(g, m) for g in gens)

    @settings(max_examples=300, deadline=None)
    @given(monomial_lists(big=True))
    def test_krull_dim(self, case):
        n, gens = case
        J = minimalize(gens, n)
        expected = tuple_cover_dim(n, J.gens)
        if expected is None:
            with pytest.raises(UnitIdeal):
                krull_dim(J)
        else:
            assert krull_dim(J) == expected

    @settings(max_examples=150, deadline=None)
    @given(monomial_lists())
    def test_numerator_against_hilbert_function(self, case):
        n, gens = case
        J = minimalize(gens, n)
        top = max((sum(g) for g in gens), default=0) + 3
        hf = expand_hilbert_series(hilbert_numerator(J), n, top)
        assert hf == [hilbert_function(J, d) for d in range(top + 1)]
        assert hf == [brute_force_hf(J, d) for d in range(top + 1)]

    @settings(max_examples=300, deadline=None)
    @given(monomial_lists())
    def test_weakly_revlex(self, case):
        n, gens = case
        J = minimalize(gens, n)
        assert check_weakly_revlex(J) == tuple_weakly_revlex(n, J.gens)

    def test_empty_and_unit_ideals(self):
        for n in range(1, 6):
            empty, unit = minimalize([], n), minimalize([(0,) * n, (1,) * n], n)
            assert empty.gens == () and unit.gens == ((0,) * n,)
            assert hilbert_numerator(empty) == [1] and hilbert_numerator(unit) == []
            assert krull_dim(empty) == n
            with pytest.raises(UnitIdeal):
                krull_dim(unit)
            assert check_weakly_revlex(empty) and check_weakly_revlex(unit)
            assert not empty.is_unit() and unit.is_unit()
