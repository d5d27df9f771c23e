"""Certification, position checks, the linear-form construction, the theorem
verifier, samplers, and the module's property suites."""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from sgb import (
    PolySystem,
    Polynomial,
    PrimeField,
    apply_linear_change,
    apply_to_system,
    build_sigma,
    certify_d_regular,
    certify_semiregular,
    check_noether_position,
    check_weakly_revlex,
    exact_hilbert_of_ideal,
    expand_hilbert_series,
    find_linear_form,
    first_defect_degree,
    froberg_series,
    buchberger,
    is_regular_sequence,
    lazard_bound,
    leading_monomial_ideal,
    max_gb_deg,
    minimalize,
    monomials_of_degree,
    regularity_profile,
    run_experiment,
    sample_system,
    sample_Z_system,
    summarize,
    verify_main_theorem,
)
from sgb import analysis, engine
from sgb.analysis import child_seed, normalized_form
from sgb.errors import (
    BudgetExhausted,
    DegreeTooSmall,
    DimensionMismatch,
    DimensionTooHigh,
    EmptyBasis,
    InvariantViolation,
    NotLinear,
    SearchExhausted,
    SgbError,
    UnitIdeal,
    ZeroForm,
)
from sgb.series import degree_product
from conftest import corner_system, random_invertible_change, spec_fixture_system


def poly(fld, n, coeffs):
    return Polynomial(fld, n, coeffs)


class TestExactHilbert:
    def test_spec_examples(self, f7):
        system = PolySystem(
            f7, 2, (poly(f7, 2, {(2, 0): 1, (0, 2): 1}), poly(f7, 2, {(1, 1): 1}))
        )
        lm, prof = exact_hilbert_of_ideal(system)
        assert set(lm.gens) == {(2, 0), (1, 1), (0, 3)}
        assert prof.krull_dim == 0 and prof.d_reg == 3

        lm, prof = exact_hilbert_of_ideal(spec_fixture_system(f7))
        assert set(lm.gens) == {(2, 0), (1, 1)}
        assert prof.krull_dim == 1 and prof.gen_d_reg == 2

        lm, prof = exact_hilbert_of_ideal(
            PolySystem(f7, 2, (Polynomial.variable(f7, 2, 0),))
        )
        assert lm.gens == ((1, 0),) and prof.krull_dim == 1 and prof.hilb == 0

    def test_unit_ideal(self, f7):
        system = PolySystem(
            f7, 2, (poly(f7, 2, {(1, 0): 1, (0, 1): 1}), poly(f7, 2, {(1, 0): 1, (0, 1): 2}))
        )
        # <x1 + x2, x1 + 2x2> = <x1, x2>, proper; adding a constant makes a unit
        lm, prof = exact_hilbert_of_ideal(system)
        assert prof.d_reg == 1
        with pytest.raises(UnitIdeal):
            exact_hilbert_of_ideal(
                PolySystem(f7, 2, (poly(f7, 2, {(1, 0): 1}), poly(f7, 2, {(0, 0): 2})))
            )


class TestCertification:
    def test_d_regular_examples(self, f7):
        regular = PolySystem(
            f7, 2, (poly(f7, 2, {(2, 0): 1, (0, 2): 1}), poly(f7, 2, {(1, 1): 1}))
        )
        assert certify_d_regular(regular, 3) is True
        fixture = spec_fixture_system(f7)
        assert certify_d_regular(fixture, 2) is True
        # the fixture's series match breaks exactly at degree 3
        assert certify_d_regular(fixture, 3) is True
        assert certify_d_regular(fixture, 4) is False
        with pytest.raises(DegreeTooSmall):
            certify_d_regular(fixture, 1)

    def test_semiregular_examples(self, f7):
        regular = PolySystem(
            f7, 2, (poly(f7, 2, {(2, 0): 1, (0, 2): 1}), poly(f7, 2, {(1, 1): 1}))
        )
        report = certify_semiregular(regular)
        assert report.cryptographic is True and report.generalized is True
        assert report.first_defect_degree is None  # fully regular, m = n

        fixture = spec_fixture_system(f7)
        report = certify_semiregular(fixture)
        assert report.cryptographic is None  # dimension 1: d_reg infinite
        assert report.generalized is True
        assert report.first_defect_degree == 3

        three = PolySystem(
            f7,
            2,
            (
                poly(f7, 2, {(2, 0): 1}),
                poly(f7, 2, {(0, 2): 1}),
                poly(f7, 2, {(1, 1): 1}),
            ),
        )
        report = certify_semiregular(three)
        assert report.cryptographic is True

    def test_dependent_linear_forms_are_not_certified(self):
        # four linear forms confined to a hyperplane over F_3 collapse to
        # rank 2, so the Hilbert function stabilizes at degree 1 while the
        # largest generator has degree 2; certifying at the stabilization
        # degree alone would be vacuous and would break the degree bound
        from sgb import PrimeField

        f3 = PrimeField(3)
        system = sample_Z_system(4, 5, (1, 1, 1, 1, 2), f3, seed=821)
        report = certify_semiregular(system)
        assert report.generalized is False
        assert report.d_checked == 2  # floored at the largest degree
        assert report.first_defect_degree == 1
        full = verify_main_theorem(system, seed=821, max_attempts=48)
        assert not full.hypotheses_verified
        # part (1) needs no semi-regularity and still holds
        assert full.ineq_max_gb is True

    def test_redundant_high_degree_generator_still_certifies(self, f7):
        # <x1, x1^3>: the cubic is redundant, the quotient stabilizes at
        # degree 0, and the series congruence holds through degree 3
        system = PolySystem(
            f7, 2, (Polynomial.variable(f7, 2, 0), poly(f7, 2, {(3, 0): 1}))
        )
        report = certify_semiregular(system)
        assert report.generalized is True and report.d_checked == 3

    def test_defect_degree_matches_series_comparison(self, f31):
        rng = random.Random(0)
        for k in range(60):
            n = rng.randint(2, 3)
            m = rng.randint(2, 5)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=k)
            _, prof = exact_hilbert_of_ideal(system)
            defect = first_defect_degree(prof, degrees)
            horizon = 12
            hf = expand_hilbert_series(list(prof.numerator), n, horizon)
            series = froberg_series(n, degrees, horizon + 1)
            if defect is None or defect > horizon:
                assert hf == list(series.coeffs)[: horizon + 1]
            else:
                assert hf[:defect] == list(series.coeffs)[:defect]
                assert hf[defect] != series[defect]

    def test_lex_lower_bound_at_first_defect(self, f31):
        # the first differing coefficient is always larger on the exact side
        rng = random.Random(1)
        seen_defect = 0
        for k in range(80):
            n = rng.randint(2, 3)
            m = rng.randint(n, n + 3)
            degrees = tuple(rng.randint(2, 3) for _ in range(m))
            system = sample_Z_system(n, m, degrees, f31, seed=k)
            _, prof = exact_hilbert_of_ideal(system)
            defect = first_defect_degree(prof, degrees)
            if defect is None:
                continue
            seen_defect += 1
            hf = expand_hilbert_series(list(prof.numerator), n, defect)
            series = froberg_series(n, degrees, defect + 1)
            assert hf[defect] > series[defect]
        assert seen_defect >= 20  # the property must actually get exercised

    def test_subsequence_stability(self, f31):
        # adjoining a form can only lower the defect degree
        rng = random.Random(2)
        for k in range(40):
            n = rng.randint(2, 3)
            m = rng.randint(n - 1, n + 2)
            degrees = tuple(rng.randint(2, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=k)
            ell = Polynomial.linear_form(
                f31, [rng.randrange(31) for _ in range(n - 1)] + [1]
            )
            _, prof = exact_hilbert_of_ideal(system)
            _, ext_prof = exact_hilbert_of_ideal(system.extended(ell))
            defect = first_defect_degree(prof, degrees)
            ext_defect = first_defect_degree(ext_prof, degrees + (1,))
            if ext_defect is None:
                assert defect is None
            else:
                assert defect is None or defect >= ext_defect

    def test_regular_sequence_law(self, f31):
        rng = random.Random(3)
        for k in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=k)
            if not is_regular_sequence(system):
                continue
            _, prof = exact_hilbert_of_ideal(system)
            assert list(prof.numerator) == degree_product(degrees)


class TestPositionChecks:
    def test_noether_examples(self):
        assert check_noether_position(minimalize([(2, 0), (1, 1)], 2), 1) is True
        assert check_noether_position(minimalize([(1, 1)], 2), 1) is False
        assert check_noether_position(minimalize([(2, 0), (0, 2)], 2), 0) is True

    def test_weakly_revlex_examples(self):
        assert check_weakly_revlex(minimalize([(2, 0), (1, 1)], 2)) is True
        assert check_weakly_revlex(minimalize([(2, 0), (0, 2)], 2)) is False
        assert check_weakly_revlex(minimalize([(1, 0, 0)], 3)) is True

    def test_weakly_revlex_brute_force(self):
        # independent check: enumerate all preceding monomials directly
        from sgb import drl_compare, monomials_of_degree

        rng = random.Random(4)
        shared_degree = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            gens = [
                rng.choice(monomials_of_degree(n, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))
            ]
            J = minimalize(gens, n)
            shared_degree += len({sum(g) for g in J.gens}) < len(J.gens)
            expected = all(
                J.contains(t)
                for g in J.gens
                for t in monomials_of_degree(n, sum(g))
                if drl_compare(t, g) == 1
            )
            assert check_weakly_revlex(J) == expected
        # ideals with several minimal generators of one degree must be covered
        assert shared_degree >= 100


class TestSigma:
    def test_spec_examples(self, f7):
        # l = x2: identity
        sig = build_sigma(Polynomial.variable(f7, 2, 1))
        assert sig.is_identity()
        # l = x1 + x2: pure shear
        ell = Polynomial.linear_form(f7, [1, 1])
        sig = build_sigma(ell)
        assert sig.matrix == ((1, 6), (0, 1))
        assert apply_linear_change(ell, sig) == Polynomial.variable(f7, 2, 1)
        # l = x1: pure swap
        sig = build_sigma(Polynomial.variable(f7, 2, 0))
        assert sig.matrix == ((0, 1), (1, 0))

    @pytest.mark.parametrize("p", [2, 31, 2**31 - 1])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matrix_is_the_swap_then_the_shear(self, p, n):
        # the product of the two factors, computed here: P swaps the pivot
        # and x_n, S shears the last column by the swapped coefficients
        fld, rng = PrimeField(p), random.Random(p + n)
        for pivot in range(n):
            for _ in range(5):
                vec = [rng.randrange(p) for _ in range(pivot)] + [rng.randrange(1, p)]
                vec += [0] * (n - 1 - pivot)
                moved = [c * pow(vec[pivot], -1, p) % p for c in vec]
                moved[pivot], moved[n - 1] = moved[n - 1], moved[pivot]
                swap = [[int(i == j) for j in range(n)] for i in range(n)]
                swap[pivot], swap[n - 1] = swap[n - 1], swap[pivot]
                shear = [[int(i == j) for j in range(n)] for i in range(n)]
                for i in range(n - 1):
                    shear[i][n - 1] = -moved[i] % p
                product = tuple(
                    tuple(sum(shear[i][k] * swap[k][j] for k in range(n)) % p
                          for j in range(n))
                    for i in range(n)
                )
                sig = build_sigma(Polynomial.linear_form(fld, vec))
                assert sig.matrix == product
                assert ("swap" in sig.note) == (pivot != n - 1)

    def test_errors(self, f7):
        with pytest.raises(ZeroForm):
            build_sigma(Polynomial.zero(f7, 2))
        with pytest.raises(NotLinear):
            build_sigma(poly(f7, 2, {(2, 0): 1}))
        with pytest.raises(NotLinear):
            build_sigma(poly(f7, 2, {(1, 0): 1, (0, 0): 1}))

    def test_sends_form_to_last_variable_random(self, f31):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 4)
            vec = [rng.randrange(31) for _ in range(n)]
            if not any(vec):
                vec[rng.randrange(n)] = 1
            ell = Polynomial.linear_form(f31, vec)
            normalized, _ = normalized_form(ell)
            sig = build_sigma(ell)
            assert apply_linear_change(normalized, sig) == Polynomial.variable(
                f31, n, n - 1
            )


class TestFindLinearForm:
    def test_fixture_takes_xn_first(self, f7):
        pos = find_linear_form(spec_fixture_system(f7), seed=0)
        assert str(pos.ell) == "x2" and pos.attempts_used == 1
        assert pos.pivot_index == 1 and pos.sigma.is_identity()

    def test_rejects_forms_keeping_positive_dimension(self, f7):
        # for <x1^2, x1x2>, the form x1 leaves <x1> of dimension 1
        system = spec_fixture_system(f7)
        ext = system.extended(Polynomial.variable(f7, 2, 0))
        _, prof = exact_hilbert_of_ideal(ext)
        assert prof.krull_dim == 1

    def test_artinian_input_accepts_xn(self, f7):
        system = PolySystem(
            f7, 2, (poly(f7, 2, {(2, 0): 1}), poly(f7, 2, {(0, 2): 1}))
        )
        pos = find_linear_form(system, seed=0)
        assert str(pos.ell) == "x2" and pos.attempts_used == 1

    def test_dimension_too_high(self, f7):
        system = PolySystem(f7, 3, (Polynomial.variable(f7, 3, 0),))
        with pytest.raises(DimensionTooHigh):
            find_linear_form(system, seed=0)

    def test_search_exhausted_over_tiny_field(self):
        # x1*x2*(x1+x2) has all three F_2-rational projective zeros, so each
        # of the three nonzero linear forms over F_2 vanishes at one of them
        from sgb import PrimeField

        f2 = PrimeField(2)
        system = PolySystem(f2, 2, (poly(f2, 2, {(2, 1): 1, (1, 2): 1}),))
        with pytest.raises(SearchExhausted):
            find_linear_form(system, seed=0, max_attempts=16)

    @pytest.mark.parametrize("search", [find_linear_form, verify_main_theorem])
    def test_no_attempts_is_refused_before_any_basis(self, f7, monkeypatch, search):
        monkeypatch.setattr(analysis, "_default_route", None)  # no route, no basis
        with pytest.raises(SgbError, match=r"^max_attempts must be >= 1, got 0$"):
            search(spec_fixture_system(f7), seed=0, max_attempts=0)


def coordinate_zeros_system(fld):
    """Squarefree quadratics in three variables: they vanish at every
    coordinate point, so no variable is an admissible form and sigma is a
    true shear."""
    rng = random.Random(0)
    polys = tuple(
        Polynomial(fld, 3, {t: rng.randrange(1, fld.p) for t in ((1, 1, 0), (1, 0, 1), (0, 1, 1))})
        for _ in range(4)
    )
    return PolySystem(fld, 3, polys)


@st.composite
def extension_cases(draw):
    """A dense or Z system over F_2, F_3 or F_31, of any dimension, and a
    random shear sending a form with last coefficient 1 to x_n."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 31))))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n + 1))
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    sampler = draw(st.sampled_from((sample_system, sample_Z_system)))
    system = sampler(n, m, degrees, fld, seed=draw(st.integers(0, 2**32)))
    vec = draw(st.lists(st.integers(0, fld.p - 1), min_size=n - 1, max_size=n - 1))
    return system, build_sigma(Polynomial.linear_form(fld, vec + [1]))


class TestExtensionFromLeadingMonomials:
    @settings(max_examples=150, deadline=None)
    @given(extension_cases())
    def test_matches_the_basis_of_the_extension(self, case):
        # in(J + <x_n>) = in(J) + <x_n> for homogeneous J under DRL
        # (Bayer-Stillman), for J = I and J = I^sigma
        system, sigma = case
        n = system.n
        xn = Polynomial.variable(system.field, n, n - 1)
        for J in (system, apply_to_system(system, sigma)):
            lm = leading_monomial_ideal(buchberger(J))
            expected = leading_monomial_ideal(buchberger(J.extended(xn)))
            assert minimalize(lm.gens + (xn.leading_monomial(),), n) == expected
            assert analysis._profile_with_xn(lm) == regularity_profile(expected)


@st.composite
def map_cases(draw):
    """A dense, Z or corner system over F_2, F_3, F_31 or F_(2^31 - 1) in 3 to
    6 variables, with m = n - 1 .. n + 1 generators of degree 2 (or 3, for
    n <= 4), and as candidates every variable and two random forms.  Every
    variable of a corner system, and x_1 .. x_(n-1) of a Z system, is
    rejected; for m = n - 1 a regular sequence with an admissible l has
    d_reg(<I, l>) = n, the Lazard degree itself."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 31, 2**31 - 1))))
    n = draw(st.integers(3, 6))
    m = draw(st.integers(n - 1, n + 1))
    degree = st.integers(2, 3 if n <= 4 else 2)
    degrees = tuple(draw(st.lists(degree, min_size=m, max_size=m)))
    sampler = draw(st.sampled_from((sample_system, sample_Z_system, corner_system)))
    system = sampler(n, m, degrees, fld, draw(st.integers(0, 2**32)))
    coefficient = st.integers(0, fld.p - 1)
    vectors = draw(st.lists(st.lists(coefficient, min_size=n, max_size=n), min_size=2, max_size=2))
    forms = [Polynomial.variable(fld, n, i) for i in range(n)]
    return system, forms + [Polynomial.linear_form(fld, v) for v in vectors if any(v)]


def walked_loop(system):
    """The degree loop of ``system`` walked to the Lazard degree of <I, l>,
    or to its cover, whatever the route of ``system``."""
    loop = engine._DegreeLoop(system)
    loop.walk(lazard_bound(system.n, system.m + 1, system.degrees + (1,)))
    return loop


class TestExtensionMaps:
    @settings(max_examples=60, deadline=None)
    @given(map_cases())
    def test_matches_the_basis_of_the_extension(self, case):
        # the profile from multiplication maps on the echelons of I's loop,
        # walked to the Lazard degree of <I, l> or to its cover on either
        # route, with no basis of <I, l>, and from the test with no loop,
        # which takes the oracle's basis of <I, l>: None exactly when that
        # <I, l> is not Artinian
        system, forms = case
        maps = analysis._extension_test(system, walked_loop(system))
        oracle = analysis._extension_test(system, None)
        with mock.patch.object(analysis, "buchberger", wraps=buchberger) as bases:
            profiles = [maps(ell) for ell in forms]
        assert not bases.called
        for ell, profile in zip(forms, profiles):
            lm = leading_monomial_ideal(buchberger(system.extended(ell)))
            expected = regularity_profile(lm)
            assert profile == (expected if expected.artinian else None), ell
            assert oracle(ell) == (expected if expected.artinian else None), ell

    def test_rejection_is_one_rank_at_the_lazard_degree(self, f31, monkeypatch):
        # each form vanishes at a point of V(I): x_1 .. x_(n-1) at
        # (0 : ... : 0 : 1) on a Z system, and on coordinate_zeros_system
        # every variable at the coordinate points where it is 0
        shapes = []
        real = engine.rref_naive
        monkeypatch.setattr(engine, "rref_naive", lambda a, p: shapes.append(a.shape) or real(a, p))
        z = sample_Z_system(4, 4, (2, 2, 3, 3), f31, seed=1)
        cases = [(z, [Polynomial.variable(f31, 4, i) for i in range(3)])]
        corner = coordinate_zeros_system(f31)
        cases.append((corner, [Polynomial.variable(f31, 3, i) for i in range(3)]))
        for system, forms in cases:
            n, degrees = system.n, system.degrees
            top = lazard_bound(n, system.m + 1, degrees + (1,))
            _, profile = exact_hilbert_of_ideal(system)
            hf = expand_hilbert_series(profile.numerator, n, top)
            test = analysis._extension_test(system, walked_loop(system))
            for ell in forms:
                shapes.clear()
                assert test(ell) is None
                assert shapes == [(hf[top - 1], hf[top])]


@st.composite
def artinian_cases(draw):
    """A dense system over F_2, F_3, F_7, F_31 or F_(2^31 - 1) in 2 to 5
    variables with m = n .. n + 2 generators, all quadrics or of mixed
    degrees 1 to 3, whose degree loop, walked up to the Lazard degree,
    reached its cover (so R/I is Artinian); the loop and its basis."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 7, 31, 2**31 - 1))))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n, n + 2))
    mixed = st.lists(st.integers(1, 3), min_size=m, max_size=m)
    degrees = tuple(draw(mixed)) if draw(st.booleans()) else (2,) * m
    system = sample_system(n, m, degrees, fld, draw(st.integers(0, 2**32)))
    loop = engine._DegreeLoop(system)
    basis = loop.basis(max(lazard_bound(n, m, degrees), max(degrees)))
    assume(loop.covered is not None)
    return loop, basis


# the functions that read Hilbert and position data from a leading-term
# ideal, which the verifier counts on I's degree loop instead
HILBERT_ORACLES = (
    "leading_monomial_ideal", "regularity_profile", "_profile_with_xn", "check_weakly_revlex"
)


class TestCountedHilbertData:
    def test_counts_on_the_loop_match_the_oracles(self):
        # HF_{R/I}(d) = |standard_d|, HF_{R/<I, x_n>}(d) the x_n-free
        # standard monomials, and in(I) weakly reverse-lex iff each Q_d lies
        # DRL-above every standard monomial of its degree
        weakly = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(artinian_cases())
        def check(case):
            loop, basis = case
            n, lm = loop.pack.n, leading_monomial_ideal(basis)
            degrees = range(loop.covered + 1)
            counted = analysis._counted_profile([loop.hf(d) for d in degrees], n)
            assert counted == regularity_profile(lm)
            counted = analysis._counted_profile([loop.hf(d, xn_free=True) for d in degrees], n)
            assert counted == analysis._profile_with_xn(lm)
            weakly.append(check_weakly_revlex(lm))
            assert loop.weakly_revlex() == weakly[-1]

        check()
        assert True in weakly and False in weakly

    @pytest.mark.parametrize(
        "n, gens",
        [
            (1, [{(2,): 1}]),  # x1^2
            (2, [{(2, 0): 1, (1, 1): 3, (0, 2): 1}, {(1, 2): 1, (0, 3): 5}]),
        ],
    )
    def test_one_and_two_variable_loops_match_buchberger(self, f7, monkeypatch, n, gens):
        # the x_n-free standard monomials of degree d are its first
        # C(n - 2 + d, d) indices, which at n = 1 is 1 at d = 0 and 0 above
        system = PolySystem(f7, n, tuple(poly(f7, n, c) for c in gens))
        calls = []
        monkeypatch.setattr(analysis, "_ELIMINATION_MIN_MONOMIALS", 0)
        for name in HILBERT_ORACLES:
            real = getattr(analysis, name)
            monkeypatch.setattr(
                analysis, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        routed = verify_main_theorem(system, seed=0)
        assert (routed.engine, routed.krull_dim, calls) == ("macaulay", 0, [])
        monkeypatch.setattr(analysis, "_default_route", lambda system: ("buchberger", None))
        oracle = verify_main_theorem(system, seed=0)
        assert oracle.engine == "buchberger" and comparable(routed) == comparable(oracle)

    def test_oracles_only_off_a_covered_loop(self, f31, monkeypatch):
        calls = []

        def spy(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in HILBERT_ORACLES:
            monkeypatch.setattr(analysis, name, spy(name, getattr(analysis, name)))
        # Krull dimension 0 and 1 on the Macaulay route, where the loop
        # counts HS(R/I) and sigma is the identity, then the Buchberger route
        for system, krull, expected in (
            (sample_system(6, 7, (2,) * 7, f31, seed=1), 0, set()),
            (sample_Z_system(6, 7, (2,) * 7, f31, seed=1), 1, set()),
            (sample_system(3, 3, (2,) * 3, f31, seed=1), 0, set(HILBERT_ORACLES)),
        ):
            calls.clear()
            report = verify_main_theorem(system, seed=1)
            assert report.engine == ("buchberger" if expected else "macaulay")
            assert report.krull_dim == krull and report.sigma.is_identity()
            assert set(calls) == expected
        # a shear on corner 6/6: the loop of I^sigma, stopped by the Hilbert
        # exit, gives LM(I^sigma), whose profile with x_n is the one oracle
        calls.clear()
        report = verify_main_theorem(corner_system(6, 6, (2,) * 6, f31, seed=1), seed=0)
        assert report.engine == "macaulay" and not report.sigma.is_identity()
        assert sorted(calls) == ["_profile_with_xn", "regularity_profile"]


@st.composite
def krull_one_cases(draw):
    """n - 1 dense quadrics, or n - 1 to n + 1 Z or corner quadrics, over
    F_2, F_3, F_7, F_31 or F_(2^31 - 1) in 3 to 6 variables: R/I has Krull
    dimension 1 unless the field is small or the seed unlucky."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 7, 31, 2**31 - 1))))
    n = draw(st.integers(3, 6))
    sampler = draw(st.sampled_from((sample_system, sample_Z_system, corner_system)))
    m = n - 1 if sampler is sample_system else draw(st.integers(n - 1, n + 1))
    return sampler(n, m, (2,) * m, fld, draw(st.integers(0, 2**32)))


class TestCountedSeries:
    def test_matches_the_oracle(self, monkeypatch):
        # HS(R/I) counted on I's loop at the least m >= max(top degree,
        # d_reg(<I, l>)) where l is injective from (R/I)_m (_loop_profile),
        # against regularity_profile(LM(I)): l is injective at that first
        # degree on some inputs, and the loop reads on past it on others
        monkeypatch.setattr(analysis, "_ELIMINATION_MIN_MONOMIALS", 0)
        injective_at_start = []

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(krull_one_cases())
        def check(system):
            try:
                basis, loop, _, profile, _, ext = analysis._ideal_for_search(system, 0, 64)
            except (DimensionTooHigh, SearchExhausted):
                return
            assert profile == regularity_profile(leading_monomial_ideal(buchberger(system)))
            if basis is None:  # counted on the loop
                start = max(max(system.degrees), ext.d_reg)
                injective_at_start.append(loop.hf(start + 1) == loop.hf(start))

        check()
        assert True in injective_at_start and False in injective_at_start

    def test_dimension_two_on_the_loop_route(self, monkeypatch):
        # Z 5/5 over F_2 at these seeds has Krull dimension 2: the leads of
        # I's loop leave the dimension open, so no candidate is tried, I's
        # basis comes from the loop and LM(I) raises as on Buchberger's route
        def no_search(*args):
            raise AssertionError("a candidate was tried")

        monkeypatch.setattr(analysis, "_search_linear_form", no_search)
        f2 = PrimeField(2)
        for seed in (121, 126, 180, 243):
            system = sample_Z_system(5, 5, (2,) * 5, f2, seed)
            assert analysis._default_route(system)[0] == "macaulay"
            message = r"^Krull dimension 2 >= 2: no single form can work$"
            with pytest.raises(DimensionTooHigh, match=message):
                verify_main_theorem(system, seed=0)
            with pytest.raises(DimensionTooHigh, match=message):
                find_linear_form(system, seed=0)

    def test_no_degree_to_read_falls_back_to_the_basis(self, f31, monkeypatch):
        # with no m on the loop, I's basis comes from the loop and LM(I)
        # gives the profile: the reports stay the same
        for system in (
            corner_system(5, 6, (2,) * 6, f31, seed=1),
            sample_Z_system(6, 7, (2,) * 7, f31, seed=1),
        ):
            counted = verify_main_theorem(system, seed=0)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_loop_profile", lambda loop, start: None)
                assert verify_main_theorem(system, seed=0) == counted

    def test_a_walk_stopped_before_m_plus_1_falls_back_to_the_basis(self, monkeypatch):
        # Z 5/4 over F_2: I's loop walks to L = 5 for the search, and the
        # counted profile needs degree 6; with the cell budget at the loop's
        # total at 5 the walk stops there, and I's basis comes from the loop
        system = sample_Z_system(5, 4, (2,) * 4, PrimeField(2), seed=0)
        loops, real_loop = [], analysis._DegreeLoop
        monkeypatch.setattr(analysis, "_DegreeLoop", lambda s: loops.append(real_loop(s)) or loops[-1])
        counted = verify_main_theorem(system, seed=0)
        assert loops[0].top == 6 and loops[0].covered is None
        probe = real_loop(system)
        probe.walk(5)
        monkeypatch.setattr(engine, "MAX_MACAULAY_CELLS", probe.cells)
        loops.clear()
        assert verify_main_theorem(system, seed=0) == counted
        assert loops[0].top == 5

    def test_identity_sigma_ends_at_the_hilbert_exit(self, f31, monkeypatch):
        # Krull dimension 1 and sigma the identity: the counted HS(R/I)
        # ends I's basis on its loop by the Hilbert exit, with no S-pair
        spolys, loops = [], []
        real_spoly, real_loop = engine._spoly, analysis._DegreeLoop
        monkeypatch.setattr(engine, "_spoly", lambda *args: spolys.append(args) or real_spoly(*args))
        monkeypatch.setattr(analysis, "_DegreeLoop", lambda s: loops.append(real_loop(s)) or loops[-1])
        system = sample_Z_system(6, 7, (2,) * 7, f31, seed=1)
        report = verify_main_theorem(system, seed=1)
        assert report.sigma.is_identity() and report.krull_dim == 1
        [loop] = loops
        assert loop.generated is not None and loop.covered is None and not spolys
        assert report.max_gb_deg_sigma == max_gb_deg(buchberger(system))


@st.composite
def sigma_image_cases(draw):
    """A dense, Z or corner system of quadrics over F_2, F_3, F_7, F_31 or
    F_(2^31 - 1) in 3 to 6 variables with m = n - 1 .. n + 1, and its image
    under the sigma that ``build_sigma`` makes for a random form."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 7, 31, 2**31 - 1))))
    n = draw(st.integers(3, 6))
    m = draw(st.integers(n - 1, n + 1))
    sampler = draw(st.sampled_from((sample_system, sample_Z_system, corner_system)))
    system = sampler(n, m, (2,) * m, fld, draw(st.integers(0, 2**32)))
    vec = draw(st.lists(st.integers(0, fld.p - 1), min_size=n, max_size=n))
    assume(any(vec))
    return system, apply_to_system(system, build_sigma(Polynomial.linear_form(fld, vec)))


def sigma_image_check(monkeypatch, check):
    """Run ``check(image, basis, loop)`` over derandomized
    ``sigma_image_cases``, where basis and loop are what the degree loop of
    the image gives at its default cap with the numerator of HS(R/I), every
    shape routed to the degree loop."""
    monkeypatch.setattr(analysis, "_ELIMINATION_MIN_MONOMIALS", 0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(sigma_image_cases())
    def run(case):
        system, image = case
        lm = leading_monomial_ideal(buchberger(system))
        route, cap = analysis._default_route(image)
        assert route == "macaulay"
        loop = analysis._DegreeLoop(image)
        loop.walk(cap, regularity_profile(lm).numerator)
        check(image, loop.basis(cap), loop)

    run()


class TestHilbertExitOnImages:
    def test_basis_of_the_image_matches_buchberger(self, monkeypatch):
        # HS(R/I^sigma) = HS(R/I), so the loop of I^sigma stops at
        # max.GB.deg(I^sigma) when that is within its cap
        stops = []

        def check(image, basis, loop):
            oracle = buchberger(image)
            assert basis == oracle and basis.keys == oracle.keys
            top = max_gb_deg(oracle)
            cap = analysis._default_route(image)[1]
            if top <= cap:  # the exit, or a cover one degree above the basis
                assert loop.top == top and loop.complete
                assert loop.generated == (None if loop.covered else top)
            stops.append(loop.generated is not None and top < cap)

        sigma_image_check(monkeypatch, check)
        assert True in stops and False in stops

    def test_weakly_revlex_from_the_loop(self, monkeypatch):
        # a loop stopped by the Hilbert exit has every minimal generator of
        # in(I^sigma) as a Q_d of a degree it walked
        flags = []

        def check(image, basis, loop):
            if loop.complete:
                flags.append(check_weakly_revlex(leading_monomial_ideal(basis)))
                assert loop.weakly_revlex() == flags[-1]

        sigma_image_check(monkeypatch, check)
        assert True in flags and False in flags

    def test_leading_ideal_from_the_loop(self, monkeypatch):
        # a complete loop's leads are LM of the basis it would build, and the
        # degree of their least key is max.GB.deg
        complete = []

        def check(image, basis, loop):
            complete.append(loop.complete)
            if loop.complete:
                lm = leading_monomial_ideal(basis)
                assert loop.leads() == lm
                assert loop.pack.degree(lm.keys[0]) == max_gb_deg(basis)

        sigma_image_check(monkeypatch, check)
        assert True in complete

    def test_corner_image_stops_at_its_basis_degree(self, f31, monkeypatch):
        # corner 6/6: the loop of I^sigma eliminates no degree above
        # max.GB.deg(I^sigma) = 5, below the cap D(6, 6) = 7, forms no
        # S-pair, and gives the report its weakly reverse-lex flag
        system = corner_system(6, 6, (2,) * 6, f31, seed=1)
        loops, spolys = [], []
        real_loop, real_spoly = analysis._DegreeLoop, engine._spoly

        def no_scan(lm):
            raise AssertionError("check_weakly_revlex called")

        monkeypatch.setattr(analysis, "_DegreeLoop", lambda s: loops.append(real_loop(s)) or loops[-1])
        monkeypatch.setattr(engine, "_spoly", lambda *args: spolys.append(args) or real_spoly(*args))
        monkeypatch.setattr(analysis, "check_weakly_revlex", no_scan)
        report = verify_main_theorem(system, seed=0)
        image = apply_to_system(system, report.sigma)
        [_, loop] = loops  # those of I and of I^sigma
        assert report.engine == "macaulay" and analysis._default_route(system) == ("macaulay", 7)
        assert loop.top == loop.generated == report.max_gb_deg_sigma == 5
        assert not spolys
        assert report.weakly_revlex == check_weakly_revlex(leading_monomial_ideal(buchberger(image)))

    @pytest.mark.parametrize("sampler, m", [(sample_system, 7), (corner_system, 6)])
    def test_a_complete_loop_assembles_no_basis(self, f31, monkeypatch, sampler, m):
        # dense 6/7 (sigma the identity) and corner 6/6 (a shear): the report
        # comes off complete degree loops, with no basis assembled
        system = sampler(6, m, (2,) * m, f31, seed=1)

        def no_basis(*args, **kwargs):
            raise AssertionError("a basis was assembled")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_complete", no_basis)
            patch.setattr(engine, "_reduced_basis", no_basis)
            report = verify_main_theorem(system, seed=0)
        assert report.engine == "macaulay"
        assert report.sigma.is_identity() == (sampler is sample_system)
        image = apply_to_system(system, report.sigma)
        assert report.max_gb_deg_sigma == max_gb_deg(buchberger(image))

    def test_an_incomplete_loop_hands_over(self, monkeypatch):
        # Z 4/5 over F_2: the loop of I^sigma ends at its cap D(4, 5) = 3,
        # below max.GB.deg(I^sigma) = 4, so Buchberger's loop finishes the
        # basis from there; the report is the one of Buchberger's route
        system = sample_Z_system(4, 5, (2,) * 5, PrimeField(2), seed=2)
        loops, handovers = [], []
        real_loop, real_complete = analysis._DegreeLoop, engine._complete

        def complete(G, pack, fld, above=None):
            handovers.append(above)
            return real_complete(G, pack, fld, above)

        monkeypatch.setattr(analysis, "_ELIMINATION_MIN_MONOMIALS", 0)
        monkeypatch.setattr(analysis, "_DegreeLoop", lambda s: loops.append(real_loop(s)) or loops[-1])
        monkeypatch.setattr(engine, "_complete", complete)
        routed = verify_main_theorem(system, seed=0)
        [_, loop] = loops  # those of I and of I^sigma
        assert routed.engine == "macaulay" and not routed.sigma.is_identity()
        assert not loop.complete and loop.top == 3 < routed.max_gb_deg_sigma == 4
        assert handovers == [3]
        monkeypatch.setattr(analysis, "_ELIMINATION_MIN_MONOMIALS", 10**9)
        oracle = verify_main_theorem(system, seed=0)
        assert oracle.engine == "buchberger" and comparable(routed) == comparable(oracle)


class TestVerifyMainTheorem:
    def test_worked_fixture(self, f7):
        report = verify_main_theorem(spec_fixture_system(f7), seed=1)
        assert report.krull_dim == 1
        assert str(report.ell) == "x2" and report.sigma.is_identity()
        assert report.d_reg_ell == 2 and report.gen_d_reg == 2
        assert report.max_gb_deg_sigma == 2 and report.D_nm == 3
        assert report.ineq_max_gb is True and report.ineq_D_nm is True
        assert report.weakly_revlex is True and report.equality_attained is True
        assert report.hypotheses_verified

    def test_two_runs_on_one_input_give_equal_reports(self, f31):
        # sigma is the identity on the first system and a shear on the second
        for system in (
            sample_Z_system(5, 6, (2,) * 6, f31, 3),
            corner_system(5, 6, (2,) * 6, f31, 1),
        ):
            first, second = (verify_main_theorem(system, seed=1) for _ in range(2))
            assert first.sigma is not second.sigma
            assert first == second and hash(first.sigma) == hash(second.sigma)
        assert not first.sigma.is_identity()

    def test_artinian_fixture(self, f7):
        system = PolySystem(
            f7, 2, (poly(f7, 2, {(2, 0): 1, (0, 2): 1}), poly(f7, 2, {(1, 1): 1}))
        )
        report = verify_main_theorem(system, seed=1)
        assert report.krull_dim == 0
        assert report.max_gb_deg_sigma == 3
        assert max(report.d_reg_ell, report.gen_d_reg) == 3
        assert report.D_nm == 3 and report.ineq_max_gb and report.ineq_D_nm

    def test_m_equals_n_minus_1_law(self, f7):
        report = verify_main_theorem(
            PolySystem(f7, 2, (poly(f7, 2, {(3, 0): 1}),)), seed=0
        )
        assert report.gen_d_reg == 2
        assert report.d_reg_ell == 3
        assert report.m_n_minus_1_law is True

    def test_theorem_holds_on_sampled_grid(self, f31, f7):
        rng = random.Random(6)
        params = [
            (2, 2, (2, 2)),
            (2, 3, (2, 2, 2)),
            (3, 3, (2, 2, 2)),
            (3, 4, (2, 2, 2, 2)),
            (3, 2, (2, 3)),
            (4, 4, (2, 2, 2, 2)),
        ]
        hypothesis_rows = 0
        for idx, (n, m, degrees) in enumerate(params):
            for sampler in (sample_system, sample_Z_system):
                for trial in range(3):
                    fld = f31 if trial % 2 else f7
                    system = sampler(n, m, degrees, fld, seed=idx * 100 + trial)
                    try:
                        report = verify_main_theorem(system, seed=trial)
                    except (DimensionTooHigh, SearchExhausted):
                        continue
                    # theorem part (1) needs only dimension <= 1 and the form
                    assert report.ineq_max_gb is True
                    if report.hypotheses_verified:
                        hypothesis_rows += 1
                        assert report.ineq_D_nm is True
                    if report.weakly_revlex and report.artinian_after_sigma:
                        assert report.equality_attained == (
                            report.max_gb_deg_sigma
                            == max(report.d_reg_ell, report.gen_d_reg)
                        )
        assert hypothesis_rows >= 15

    def test_hf_invariance_under_coordinate_change(self, f31):
        rng = random.Random(7)
        for k in range(25):
            n = rng.randint(2, 3)
            m = rng.randint(2, 4)
            degrees = tuple(rng.randint(2, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=k)
            t = random_invertible_change(rng, f31, n)
            _, prof = exact_hilbert_of_ideal(system)
            _, prof_t = exact_hilbert_of_ideal(apply_to_system(system, t))
            assert prof.numerator == prof_t.numerator

    def test_rejects_inhomogeneous(self, f7):
        from sgb.errors import NotHomogeneous

        system = PolySystem(f7, 2, (poly(f7, 2, {(1, 0): 1, (0, 0): 1}),))
        with pytest.raises(NotHomogeneous):
            verify_main_theorem(system, seed=0)

    def test_sigma_xn_cross_check_failure_is_typed(self, f31, monkeypatch):
        # sigma is a true shear, so <I^sigma, x_n> is read from LM(I^sigma)
        # and checked against the basis of <I, l>; the rejected x_n has no
        # d_reg and is left as it is
        system = coordinate_zeros_system(f31)
        report = verify_main_theorem(system, seed=0)
        assert not report.sigma.is_identity() and report.artinian_after_sigma
        real = analysis._profile_with_xn

        def skewed(lm):
            profile = real(lm)
            if profile.d_reg is None:
                return profile
            return dataclasses.replace(profile, d_reg=profile.d_reg + 1)

        monkeypatch.setattr(analysis, "_profile_with_xn", skewed)
        with pytest.raises(InvariantViolation, match="must match"):
            verify_main_theorem(system, seed=0)

    def test_bases_per_run(self, f31, monkeypatch):
        # no basis of <I, x_n> or <I^sigma, x_n>: one basis when sigma is
        # the identity, otherwise those of I and I^sigma, that of I^sigma
        # through groebner_basis with the numerator of HS(R/I), and one of
        # <I, l> for each candidate after x_n, all on Buchberger's route
        # (n = 3), which tests candidates by the oracle
        bases = []
        real = analysis.buchberger
        monkeypatch.setattr(analysis, "buchberger", lambda system: bases.append(system) or real(system))
        systems = [coordinate_zeros_system(f31)] + [
            sampler(3, m, (2,) * m, f31, seed=k)
            for sampler in (sample_system, sample_Z_system)
            for m in (2, 3, 4)
            for k in range(3)
        ]
        seen = set()
        for system in systems:
            bases.clear()
            report = verify_main_theorem(system, seed=0)
            identity = report.sigma.is_identity()
            extensions = [s for s in bases if s.m == system.m + 1]
            assert len(extensions) == report.attempts_used - 1
            assert len(bases) == (1 if identity else 2 + report.attempts_used - 1)
            seen.add(identity)
        assert seen == {True, False}

    def test_budget_exhaustion_is_a_row_status(self, f31, monkeypatch):
        # no capped basis stands in for an unfinished one
        system = sample_system(3, 4, (2, 2, 2, 2), f31, seed=3)
        monkeypatch.setattr(engine, "MAX_S_PAIRS", 1)
        with pytest.raises(BudgetExhausted):
            verify_main_theorem(system, seed=3)
        records = run_experiment(3, 4, (2, 2, 2, 2), 31, trials=4, seed=3)
        assert [r.status for r in records] == ["BudgetExhausted"] * 4
        assert " ok=0 " in summarize(records)


def comparable(outcome):
    """A verifier outcome with the engine name, which differs between
    routes, set aside."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return dataclasses.replace(outcome, engine=None)


def verify_outcome(system):
    try:
        return verify_main_theorem(system, seed=0)
    except SgbError as e:
        return e


def groebner_outcome(system):
    """A default-route basis as its printed elements and leading keys, or
    the name of its error."""
    try:
        basis = analysis.groebner_basis(system)
    except SgbError as e:
        return type(e).__name__
    return [str(g) for g in basis], basis.keys


class TestDefaultRoute:
    @staticmethod
    def forced(monkeypatch, fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_default_route", lambda system: ("buchberger", None))
            return fn(*args)

    @pytest.mark.parametrize(
        "sampler, n, m, p",
        [
            (sample_system, 6, 7, 2),
            (sample_system, 7, 8, 3),
            (sample_system, 6, 7, 31),
            (sample_system, 7, 8, 65521),
            (sample_Z_system, 6, 6, 2),
            (sample_Z_system, 7, 8, 3),
            (sample_Z_system, 6, 7, 31),
            (sample_Z_system, 7, 8, 65521),
            (corner_system, 6, 6, 2),
            (corner_system, 6, 7, 2),
            (corner_system, 6, 7, 3),
            (corner_system, 7, 8, 31),
            (corner_system, 6, 6, 65521),
            (sample_system, 5, 4, 3),
            (sample_system, 5, 6, 2),
            (sample_Z_system, 5, 5, 2),
            (corner_system, 5, 5, 3),
            (corner_system, 5, 6, 7),
        ],
    )
    def test_reports_match_buchberger(self, monkeypatch, sampler, n, m, p):
        system = sampler(n, m, (2,) * m, PrimeField(p), seed=p + n)
        assert analysis._default_route(system)[0] == "macaulay"
        routed = verify_outcome(system)
        oracle = self.forced(monkeypatch, verify_outcome, system)
        assert comparable(routed) == comparable(oracle)
        if not isinstance(routed, Exception):
            assert routed.engine == "macaulay" and oracle.engine == "buchberger"

    def test_route_by_shape(self, f31, monkeypatch):
        # each basis is built once, by the oracle or by one degree loop of
        # its ideal
        calls, loops = [], []
        real_buchberger, real_loop = analysis.buchberger, analysis._DegreeLoop

        def loop(system):
            calls.append(("loop", system.m))
            loops.append(real_loop(system))
            return loops[-1]

        monkeypatch.setattr(analysis, "_DegreeLoop", loop)
        monkeypatch.setattr(
            analysis, "buchberger",
            lambda system: calls.append(("buchberger", system.m)) or real_buchberger(system),
        )
        report = verify_main_theorem(sample_system(6, 7, (2,) * 7, f31, seed=1), seed=0)
        assert report.sigma.is_identity() and report.engine == "macaulay"
        assert calls == [("loop", 7)]

        calls.clear()
        report = verify_main_theorem(sample_system(4, 4, (2,) * 4, f31, seed=1), seed=0)
        assert report.engine == "buchberger" and calls == [("buchberger", 4)]

        # I and I^sigma by elimination; the candidates after x_n read the
        # echelons of I's degree loop, which is not built again: at 6/6 its
        # cap D = 7 is the Lazard degree of <I, l>, at 6/7 it goes on past
        # the cap D = 4 up to 7, while the loop of I^sigma stops by the
        # Hilbert exit at max.GB.deg(I^sigma): 5 below the cap at 6/6, 4 at it
        for m, cap in ((6, 7), (7, 4)):
            calls.clear()
            loops.clear()
            system = corner_system(6, m, (2,) * m, f31, seed=1)
            assert analysis._default_route(system) == ("macaulay", cap)
            report = verify_main_theorem(system, seed=0)
            assert not report.sigma.is_identity() and report.engine == "macaulay"
            assert report.attempts_used > 6
            assert calls == [("loop", m), ("loop", m)]
            assert [lp.top for lp in loops] == [7, report.max_gb_deg_sigma]
            assert loops[1].generated == report.max_gb_deg_sigma <= cap

    def test_budget_falls_back_to_buchberger(self, f31, monkeypatch):
        # the route depends on the shape only; a loop whose first degree is
        # over the cell budget stops at lo - 1, as at a cap, and Buchberger's
        # loop finishes the basis from the generators
        system = sample_system(6, 7, (2,) * 7, f31, seed=2)
        routed = verify_main_theorem(system, seed=0)
        assert routed.engine == "macaulay"
        monkeypatch.setattr(engine, "MAX_MACAULAY_CELLS", 1000)
        assert analysis._default_route(system) == ("macaulay", 4)
        loops, real_loop = [], analysis._DegreeLoop
        monkeypatch.setattr(analysis, "_DegreeLoop", lambda s: loops.append(real_loop(s)) or loops[-1])
        fallback = verify_main_theorem(system, seed=0)
        assert [loop.top for loop in loops] == [1] and not loops[0].cells
        assert fallback == routed

    @pytest.mark.parametrize(
        "case, cells",
        [("corner 5/6", 10_000), ("coordinate zeros", 10), ("corner 6/7", 18_000)],
    )
    def test_refused_loop_leaves_candidates_to_buchberger(self, f31, monkeypatch, case, cells):
        # unpatched, the candidates after x_n read the echelons of I on the
        # Macaulay route, carried on from the cap D(6, 7) = 4 by the loop
        # that built I's basis, and get a basis of <I, l> each from the
        # oracle on the Buchberger route, which builds no loop; with a cell
        # budget that stops I's loop past the cap but short of the Lazard
        # degree of <I, l>, each gets a basis of <I, l> on either route
        system = {
            "corner 5/6": corner_system(5, 6, (2,) * 6, f31, seed=1),
            "coordinate zeros": coordinate_zeros_system(f31),
            "corner 6/7": corner_system(6, 7, (2,) * 7, f31, seed=1),
        }[case]
        route = analysis._default_route(system)
        loops, built, extensions = [], [], []
        real_loop, real_buchberger = analysis._DegreeLoop, analysis.buchberger

        def spy(s):
            if s.m > system.m:
                extensions.append(s)
            return real_buchberger(s)

        monkeypatch.setattr(
            analysis, "_DegreeLoop",
            lambda s: loops.append(s) or built.append(real_loop(s)) or built[-1])
        monkeypatch.setattr(analysis, "buchberger", spy)
        routed = verify_main_theorem(system, seed=0)
        assert not routed.sigma.is_identity()
        # the loops that built the bases of I and I^sigma, if any
        bases = [] if route[0] == "buchberger" else [system, apply_to_system(system, routed.sigma)]
        assert loops == bases
        assert len(extensions) == (routed.attempts_used - 1 if route[0] == "buchberger" else 0)

        loops.clear()
        built.clear()
        extensions.clear()
        monkeypatch.setattr(engine, "MAX_MACAULAY_CELLS", cells)
        assert analysis._default_route(system) == route
        oracle = verify_main_theorem(system, seed=0)
        assert oracle == routed and loops == bases
        assert len(extensions) == routed.attempts_used - 1
        if built:
            lazard = lazard_bound(system.n, system.m + 1, system.degrees + (1,))
            assert route[1] <= built[0].top < lazard

    def test_buchberger_route_builds_no_loop(self, f31, monkeypatch):
        # every coordinate point is a zero of these systems, so x_n is
        # rejected and later candidates are tried; on Buchberger's route each
        # gets a basis of <I, l> and no degree loop is built, and the report
        # equals the one routed to I's loop, which tests them by its maps
        loops = []
        real_loop = analysis._DegreeLoop
        monkeypatch.setattr(analysis, "_DegreeLoop", lambda s: loops.append(s) or real_loop(s))
        systems = [
            coordinate_zeros_system(f31),
            corner_system(4, 4, (2,) * 4, PrimeField(7), seed=1),
            corner_system(4, 5, (2,) * 5, f31, seed=2),
        ]
        for system in systems:
            assert analysis._default_route(system)[0] == "buchberger"
            report = verify_main_theorem(system, seed=0)
            assert report.engine == "buchberger" and report.attempts_used >= 2
            assert loops == []
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_ELIMINATION_MIN_MONOMIALS", 0)
                looped = verify_main_theorem(system, seed=0)
            assert looped.engine == "macaulay" and loops
            assert comparable(looped) == comparable(report)
            loops.clear()

    def test_unreachable_bound_falls_back_to_buchberger(self, f31):
        # D(2, 3) of three degree-40,000 generators needs a series longer
        # than the series limit (CapExhausted); the Lazard cap that stands in
        # is 40,000 degrees past the lowest one, over the loop's limit
        gens = ((40_000, 0), (0, 40_000), (20_000, 20_000))
        system = PolySystem(f31, 2, tuple(poly(f31, 2, {t: 1}) for t in gens))
        assert analysis._default_route(system) == ("buchberger", None)
        assert analysis.groebner_basis(system) == buchberger(system)

    def test_typed_errors_match_buchberger(self, f31, monkeypatch):
        base = sample_system(6, 7, (2,) * 7, f31, seed=3).polys
        one = Polynomial(f31, 6, {(0,) * 6: 1})
        zero = Polynomial(f31, 6, {})
        x6 = Polynomial.variable(f31, 6, 5)
        systems = {
            "constant": base + (one,),
            "zero": base + (zero,),
            "duplicate": base + base[:1],
            "linear": base + (x6,),
            "m < n - 1": base[:4],
        }
        eliminated = {"duplicate", "linear", "m < n - 1"}
        outcomes = {}
        for name, polys in systems.items():
            system = PolySystem(f31, 6, polys)
            route = "macaulay" if name in eliminated else "buchberger"
            assert analysis._default_route(system)[0] == route, name
            basis = groebner_outcome(system)
            assert basis == self.forced(monkeypatch, groebner_outcome, system), name
            outcomes[name] = comparable(verify_outcome(system))
            oracle = comparable(self.forced(monkeypatch, verify_outcome, system))
            assert outcomes[name] == oracle, name
        assert outcomes["constant"] == "UnitIdeal"
        assert outcomes["zero"] == "ZeroPolynomial"
        assert outcomes["m < n - 1"] == "DimensionTooHigh"
        for name in ("duplicate", "linear"):
            assert not isinstance(outcomes[name], str)
        with pytest.raises(EmptyBasis):
            analysis.groebner_basis(PolySystem(f31, 6, ()))


class TestSamplers:
    def test_deterministic(self, f31):
        a = sample_system(3, 4, (2, 2, 2, 2), f31, seed=11)
        b = sample_system(3, 4, (2, 2, 2, 2), f31, seed=11)
        assert all(x == y for x, y in zip(a.polys, b.polys))

    def test_degrees_and_term_counts(self, f31):
        import math

        system = sample_system(3, 3, (2, 3, 1), f31, seed=12)
        for f, d in zip(system.polys, (2, 3, 1)):
            assert f.degree() == d and f.is_homogeneous()
            assert len(f.coeffs) <= math.comb(3 + d - 1, d)

    def test_distinct_seeds_differ(self, f31):
        systems = {
            tuple(sorted(sample_system(2, 2, (2, 2), f31, seed=s).polys[0].coeffs.items()))
            for s in range(100)
        }
        assert len(systems) >= 99

    def test_z_construction_kills_last_corner(self, f31):
        for s in range(30):
            system = sample_Z_system(3, 3, (2, 2, 3), f31, seed=s)
            point = [0, 0, 1]
            for f in system.polys:
                assert f.evaluate(point) == 0
            _, prof = exact_hilbert_of_ideal(system)
            assert prof.krull_dim >= 1

    def test_child_seed_spread(self):
        seeds = {child_seed(7, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_z_construction_needs_two_variables(self, f7):
        with pytest.raises(DimensionMismatch):
            sample_Z_system(1, 2, (2, 2), f7, seed=0)

    @pytest.mark.parametrize("sampler", [sample_system, sample_Z_system])
    def test_wrong_degree_count_is_typed(self, f7, sampler):
        with pytest.raises(DimensionMismatch, match="expected 3 degrees"):
            sampler(3, 3, (2, 2), f7, seed=0)
