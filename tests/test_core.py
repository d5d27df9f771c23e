"""Field arithmetic, DRL order axioms, polynomial laws, coordinate changes,
and homogenization."""

import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

import sgb
from sgb import core
from sgb import (
    LinearChange,
    PolySystem,
    Polynomial,
    PrimeField,
    apply_linear_change,
    apply_to_system,
    build_sigma,
    dehomogenize,
    drl_compare,
    drl_key,
    homogenize,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
    poly_to_string,
    top_part,
)
from sgb.errors import (
    BadModulus,
    DegreeTooLarge,
    DimensionMismatch,
    InvalidDegree,
    MatrixTooLarge,
    ZeroInverse,
    ZeroPolynomial,
)
from conftest import random_invertible_change, random_polynomial


def binom(n, k):
    import math

    return math.comb(n, k)


# ---------------------------------------------------------------------------
# prime field
# ---------------------------------------------------------------------------


class TestPrimeField:
    def test_rejects_composites_and_range(self):
        for bad in (0, 1, 4, 6, 9, 561, 2**31, 2**31 + 11):
            with pytest.raises(BadModulus):
                PrimeField(bad)

    def test_accepts_primes(self):
        for p in (2, 3, 7, 31, 2**31 - 1):  # 2^31 - 1 is prime (Mersenne)
            assert PrimeField(p).p == p

    def test_inverse_fixtures(self, f7):
        assert f7.inv(1) == 1
        assert f7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
        with pytest.raises(ZeroInverse):
            f7.inv(0)

    def test_inverse_law(self, f31):
        for a in range(1, 31):
            assert a * f31.inv(a) % 31 == 1


# ---------------------------------------------------------------------------
# DRL order
# ---------------------------------------------------------------------------


def drl_greater_oracle(a, b):
    """Independent comparator straight from the sign rule."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b)]
    last = next((d for d in reversed(diff) if d), None)
    return last is not None and last < 0


small_monoms = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(*([st.integers(min_value=0, max_value=4)] * n))
)


class TestDrlOrder:
    def test_spec_examples(self):
        assert drl_compare((2, 0), (1, 1)) == 1  # x1^2 > x1x2
        assert drl_compare((0, 2, 0), (1, 0, 1)) == 1  # x2^2 > x1x3
        assert drl_compare((1, 2), (1, 2)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            drl_compare((1, 0), (1, 0, 0))

    def test_against_sign_rule_oracle(self):
        rng = random.Random(0)
        for _ in range(2000):
            n = rng.randint(1, 4)
            a = tuple(rng.randint(0, 4) for _ in range(n))
            b = tuple(rng.randint(0, 4) for _ in range(n))
            cmp = drl_compare(a, b)
            assert (cmp == 1) == drl_greater_oracle(a, b)
            assert (cmp == -1) == drl_greater_oracle(b, a)
            assert (cmp == 0) == (a == b)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=200)
    def test_order_axioms(self, n, data):
        exp = st.tuples(*([st.integers(0, 4)] * n))
        a, b, c = data.draw(exp), data.draw(exp), data.draw(exp)
        # totality and antisymmetry
        assert drl_compare(a, b) == -drl_compare(b, a)
        # transitivity
        if drl_compare(a, b) >= 0 and drl_compare(b, c) >= 0:
            assert drl_compare(a, c) >= 0
        # degree compatibility
        if sum(a) > sum(b):
            assert drl_compare(a, b) == 1
        # multiplicativity
        if drl_compare(a, b) == 1:
            assert drl_compare(mono_mul(a, c), mono_mul(b, c)) == 1


class TestMonomialsOfDegree:
    def test_spec_examples(self):
        assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert monomials_of_degree(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        rng_sorted = sorted(monomials_of_degree(3, 2), key=drl_key, reverse=True)
        assert list(monomials_of_degree(3, 2)) == rng_sorted

    def test_count_and_strict_descent(self):
        for n in range(1, 5):
            for d in range(0, 6):
                ms = monomials_of_degree(n, d)
                assert len(ms) == binom(n + d - 1, d)
                assert all(sum(m) == d for m in ms)
                assert all(
                    drl_compare(ms[i], ms[i + 1]) == 1 for i in range(len(ms) - 1)
                )
                if d > 0:
                    first, last = [0] * n, [0] * n
                    first[0] = last[-1] = d
                    assert ms[0] == tuple(first) and ms[-1] == tuple(last)

    def test_size_limit(self, monkeypatch):
        # counted before any monomial is listed
        with pytest.raises(MatrixTooLarge):
            monomials_of_degree(4, 5000)
        # in at most 8 variables the limit is MAX_MONOMIALS monomials; above,
        # 8 MAX_MONOMIALS exponent cells
        limit = core.MAX_MONOMIALS
        for n in range(1, 9):
            assert core._lists(n, limit) and not core._lists(n, limit + 1)
        for n in (9, 600):
            most = 8 * limit // n
            assert core._lists(n, most) and not core._lists(n, most + 1)
        monkeypatch.setattr(core, "MAX_MONOMIALS", binom(9, 3))
        listing = monomials_of_degree.__wrapped__  # a cache hit skips the check
        assert len(listing(7, 3)) == binom(9, 3)
        with pytest.raises(MatrixTooLarge):
            listing(7, 4)
        # 78 monomials of 12 exponents each: fewer than 84, but 936 cells
        assert len(listing(9, 2)) == binom(10, 2)
        with pytest.raises(MatrixTooLarge, match="^78 monomials .* over the limit of 56$"):
            listing(12, 2)

    def test_high_degree_in_few_variables(self):
        # each monomial costs O(n), not O(d)
        start = time.monotonic()
        ms = monomials_of_degree(2, 20000)
        assert time.monotonic() - start < 1
        assert len(ms) == 20001 and ms[0] == (20000, 0) and ms[-1] == (0, 20000)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class TestPolynomial:
    def test_terms_descending_and_leading(self, f7):
        f = Polynomial(f7, 2, {(0, 2): 3, (2, 0): 1, (1, 1): 2})
        assert [m for m, _ in f.terms()] == [(2, 0), (1, 1), (0, 2)]
        assert f.leading_monomial() == (2, 0)
        assert f.leading_coeff() == 1

    def test_no_zero_coefficients_stored(self, f7):
        f = Polynomial(f7, 2, {(1, 0): 7, (0, 1): 14, (0, 0): 3})
        assert f.coeffs == {(0, 0): 3}

    def test_negative_exponent_is_refused(self, f7):
        # packed, x1^-1 would borrow from x2: Buchberger once returned
        # x1^4294967295*x2^2 + x1 for x1^-1*x2^3 + x1
        with pytest.raises(InvalidDegree, match="negative"):
            Polynomial(f7, 2, {(-1, 3): 1, (1, 0): 1})
        with pytest.raises(InvalidDegree):
            Polynomial(f7, 3, {(0, 0, -2): 0})  # even with a zero coefficient
        assert Polynomial(f7, 0, {(): 3}).coeffs == {(): 3}

    def test_zero_polynomial(self, f7):
        z = Polynomial.zero(f7, 2)
        assert z.is_zero() and z.degree() == -1
        with pytest.raises(ZeroPolynomial):
            z.leading_monomial()
        with pytest.raises(ZeroPolynomial):
            z.monic()

    def test_ring_laws_random(self, f31):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, f31, n, nonzero=False)
            g = random_polynomial(rng, f31, n, nonzero=False)
            h = random_polynomial(rng, f31, n, nonzero=False)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f - f == Polynomial.zero(f31, n)

    def test_degree_of_product(self, f31):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, f31, n)
            g = random_polynomial(rng, f31, n)
            assert (f * g).degree() == f.degree() + g.degree()

    def test_string_form(self, f7):
        f = Polynomial(f7, 2, {(2, 0): 1, (1, 1): 3, (0, 0): 5})
        assert poly_to_string(f) == "x1^2 + 3*x1*x2 + 5"
        assert poly_to_string(Polynomial.zero(f7, 2)) == "0"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unchecked_results_equal_a_checked_rebuild(self, data):
        # arithmetic and unpacking build their dicts clean and skip the
        # constructor's checks; the checking constructor must agree, so no
        # zero, unreduced or misplaced coefficient gets through
        p = data.draw(st.sampled_from((2, 3, 31, 2**31 - 1)), label="p")
        fld, n = PrimeField(p), data.draw(st.integers(0, 3), label="n")
        monomial = st.tuples(*[st.integers(0, 4)] * n)

        def polynomial(label):
            coeffs = st.dictionaries(monomial, st.integers(-p, 2 * p), max_size=5)
            return Polynomial(fld, n, data.draw(coeffs, label=label))

        f, g = polynomial("f"), polynomial("g")
        c = data.draw(st.integers(-p, 2 * p), label="c")
        m = data.draw(monomial, label="m")
        pack = core._Packing(n)
        results = [
            f + g, f - g, -f, f * g, f * c, f.scale(c), f.term_mul(m, c),
            pack.polynomial(pack.terms(f), fld),
        ]
        for r in results:
            assert r.coeffs == Polynomial(fld, n, r.coeffs).coeffs
            assert all(0 < v < p for v in r.coeffs.values())
        assert pack.polynomial(pack.terms(f), fld) == f

    def test_term_mul_checks_its_monomial(self, f7):
        f = Polynomial(f7, 2, {(1, 0): 1})
        with pytest.raises(DimensionMismatch):
            f.term_mul((1,))
        with pytest.raises(InvalidDegree, match="negative"):
            f.term_mul((-1, 1))
        assert f.term_mul((0, 2), 3) == Polynomial(f7, 2, {(1, 2): 3})


# ---------------------------------------------------------------------------
# linear changes
# ---------------------------------------------------------------------------


@st.composite
def round_trip_cases(draw):
    """A polynomial over F_2 to F_(2^31-1) in 1 to 7 variables whose monomials
    fit the packing: small exponents, and in some monomials one exponent as
    large as the degree limit allows."""
    p = draw(st.sampled_from((2, 3, 31, 65521, 2**31 - 1)), label="p")
    n = draw(st.integers(1, 7), label="n")
    limit = core._Packing(n).limit
    small = st.integers(0, min(3, (limit - 1) // n))

    def monomial():
        m = draw(st.lists(small, min_size=n, max_size=n))
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            m[i] = 0
            m[i] = draw(st.integers(0, limit - 1 - sum(m)))
        return tuple(m)

    coeffs = {monomial(): draw(st.integers(-p, 2 * p)) for _ in range(draw(st.integers(0, 6)))}
    return Polynomial(PrimeField(p), n, coeffs)


class TestPackedRoundTrips:
    """The edges of the engine: text to Polynomial and back, and Polynomial
    to packed terms and back."""

    @settings(max_examples=300, deadline=None)
    @given(f=round_trip_cases())
    def test_print_parse_and_pack_unpack(self, f):
        names = [f"x{i + 1}" for i in range(f.n)]
        text = poly_to_string(f, names)
        assert parse_polynomial(text, names, f.field) == f
        pack = core._Packing(f.n)
        terms = pack.terms(f)
        assert list(terms) == sorted(terms)  # keys ascend: the leading term first
        g = pack.polynomial(terms, f.field)
        assert g == f
        drl = sorted(f.coeffs.items(), key=lambda t: drl_key(t[0]), reverse=True)
        assert list(g.terms()) == drl == list(f.terms())
        assert poly_to_string(g, names) == text
        assert parse_polynomial(poly_to_string(g, names), names, f.field) == g


def naive_image(f, t):
    """f(x . P) expanded with Polynomial products and sums: each term's
    factors x_i become the linear form of column i of P, one at a time."""
    fld, n = f.field, f.n
    columns = [Polynomial.linear_form(fld, [row[i] for row in t.matrix]) for i in range(n)]
    out = Polynomial.zero(fld, n)
    for m, c in f.coeffs.items():
        term = Polynomial.constant(fld, n, c)
        for i, e in enumerate(m):
            for _ in range(e):
                term = term * columns[i]
        out = out + term
    return out


@st.composite
def substitution_cases(draw):
    """One to three polynomials over F_2 .. F_(2^31 - 1) in 1 to 7 variables,
    each of up to six terms of degrees 0 to 4, and either the sigma that
    ``build_sigma`` makes for a random form or a random invertible change."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 7, 31, 65521, 2**31 - 1))))
    n = draw(st.integers(1, 7))
    top = draw(st.integers(1, 4))
    monomial = st.integers(0, top).flatmap(lambda d: st.sampled_from(monomials_of_degree(n, d)))
    terms = st.dictionaries(monomial, st.integers(1, fld.p - 1), max_size=6)
    polys = [Polynomial(fld, n, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    coefficient = st.integers(0, fld.p - 1)
    if draw(st.booleans()):
        vec = draw(st.lists(coefficient, min_size=n, max_size=n).filter(any))
        change = build_sigma(Polynomial.linear_form(fld, vec))
    else:
        rows = draw(st.lists(st.lists(coefficient, min_size=n, max_size=n), min_size=n, max_size=n))
        try:
            change = LinearChange(fld, rows)
        except ZeroInverse:
            change = LinearChange.identity(fld, n)
    return PolySystem(fld, n, tuple(polys)), change


class TestLinearChange:
    def test_identity_fixture(self, f7):
        t = LinearChange.identity(f7, 2)
        f = Polynomial(f7, 2, {(1, 1): 1})
        assert apply_linear_change(f, t) == f

    def test_shear_fixture(self, f7):
        # x2 -> x2 - x1, so x1*x2 -> x1*x2 - x1^2 and (x1+x2) -> x2
        t = LinearChange(f7, [[1, -1], [0, 1]])
        f = Polynomial(f7, 2, {(1, 1): 1})
        assert apply_linear_change(f, t) == Polynomial(f7, 2, {(1, 1): 1, (2, 0): -1})
        ell = Polynomial.linear_form(f7, [1, 1])
        assert apply_linear_change(ell, t) == Polynomial.variable(f7, 2, 1)

    def test_singular_matrix_rejected(self, f7):
        with pytest.raises(ZeroInverse):
            LinearChange(f7, [[1, 1], [1, 1]])

    def test_compares_and_hashes_by_field_and_matrix(self, f7):
        a = LinearChange(f7, [[1, -1], [0, 1]], "x2 -> x2 - x1")
        b = LinearChange(f7, ((1, 6), (0, 1)), "another label")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a.matrix == ((1, 6), (0, 1)) and a.n == 2
        assert a != LinearChange(PrimeField(5), [[1, -1], [0, 1]])
        assert a != LinearChange(f7, [[1, 1], [0, 1]])
        assert a.inverse().inverse() == a and a.inverse() != a

    @pytest.mark.parametrize("name", ["matrix", "field", "note", "n"])
    def test_attributes_cannot_be_assigned(self, f7, name):
        t = LinearChange.identity(f7, 2)
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        assert t.is_identity()

    def test_non_square_matrix_rejected(self, f7):
        with pytest.raises(DimensionMismatch):
            LinearChange(f7, [[1, 0, 0], [0, 1, 0]])

    def test_dimension_mismatch(self, f7):
        t = LinearChange.identity(f7, 3)
        with pytest.raises(DimensionMismatch):
            apply_linear_change(Polynomial.variable(f7, 2, 0), t)

    @settings(max_examples=300, deadline=None)
    @given(substitution_cases())
    def test_matches_the_naive_expansion(self, case):
        # the packed accumulation gives the expanded product, with its terms
        # in DRL order, and the inverse change takes the image back
        system, t = case
        image = apply_to_system(system, t)
        for f, g in zip(system.polys, image.polys):
            assert g == naive_image(f, t)
            assert list(g.terms()) == sorted(g.coeffs.items(), key=lambda e: drl_key(e[0]), reverse=True)
        assert apply_to_system(image, t.inverse()) == system

    def test_a_high_power_is_built_without_recursion(self, f7):
        # each power comes from the one before in a loop, so an exponent past
        # the interpreter's recursion limit is no different
        t = LinearChange(f7, [[1, 0], [0, 3]])  # x2 -> 3 x2
        image = apply_linear_change(Polynomial(f7, 2, {(0, 5000): 1}), t)
        assert image == Polynomial(f7, 2, {(0, 5000): pow(3, 5000, 7)})

    def test_degree_over_the_packing_is_refused(self, f7):
        # a typed error before any power is built
        f = Polynomial(f7, 2, {(2**31, 0): 1})
        with pytest.raises(DegreeTooLarge):
            apply_linear_change(f, LinearChange.identity(f7, 2))

    def test_round_trip_1000_random_polynomials(self, f31):
        rng = random.Random(3)
        for _ in range(1000):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, f31, n, max_deg=3, nonzero=False)
            t = random_invertible_change(rng, f31, n)
            back = apply_linear_change(apply_linear_change(f, t), t.inverse())
            assert back == f

    def test_degree_and_homogeneity_preserved(self, f31):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, f31, n, homogeneous=True)
            t = random_invertible_change(rng, f31, n)
            g = apply_linear_change(f, t)
            assert g.degree() == f.degree()
            assert g.is_homogeneous()


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------


class TestHomogenize:
    def test_spec_examples(self, f7):
        f = Polynomial(f7, 1, {(2,): 1, (1,): 3, (0,): 5})  # x1^2 + 3x1 + 5
        h = homogenize(f)
        assert h == Polynomial(f7, 2, {(2, 0): 1, (1, 1): 3, (0, 2): 5})
        assert homogenize(Polynomial.variable(f7, 1, 0)) == Polynomial(
            f7, 2, {(1, 0): 1}
        )
        g = Polynomial(f7, 2, {(1, 1): 1, (0, 1): 1})  # x1x2 + x2
        assert homogenize(g) == Polynomial(f7, 3, {(1, 1, 0): 1, (0, 1, 1): 1})

    def test_top_part_examples(self, f7):
        f = Polynomial(f7, 1, {(2,): 1, (1,): 3, (0,): 5})
        assert top_part(f) == Polynomial(f7, 1, {(2,): 1})
        g = Polynomial(f7, 2, {(1, 1): 1, (0, 1): 1})
        assert top_part(g) == Polynomial(f7, 2, {(1, 1): 1})
        hom = Polynomial(f7, 2, {(1, 1): 2, (2, 0): 1})
        assert top_part(hom) == hom

    def test_zero_rejected(self, f7):
        with pytest.raises(ZeroPolynomial):
            homogenize(Polynomial.zero(f7, 2))
        with pytest.raises(ZeroPolynomial):
            top_part(Polynomial.zero(f7, 2))

    def test_round_trip_random(self, f31):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, f31, n, max_deg=4)
            h = homogenize(f)
            assert h.is_homogeneous() and h.degree() == f.degree()
            assert dehomogenize(h, 1) == f
            assert dehomogenize(h, 0) == top_part(f)


class TestPackage:
    def test_public_names_resolve(self):
        assert len(set(sgb.__all__)) == len(sgb.__all__)
        for name in sgb.__all__:
            assert hasattr(sgb, name), name
        modules = {n for n in sgb.__all__ if isinstance(getattr(sgb, n), types.ModuleType)}
        assert modules == {"errors"}
