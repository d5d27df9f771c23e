"""Macaulay matrices, the two RREF routines, the Macaulay engine and its
degree-by-degree elimination, the Gebauer-Moeller pruning against the
Buchberger oracle, and the rank identity."""

import contextlib
import gc
import hashlib
import math
import random
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgb import (
    PolySystem,
    Polynomial,
    PrimeField,
    buchberger,
    build_macaulay,
    drl_key,
    gb_up_to,
    hilbert_function,
    hilbert_numerator,
    is_regular_sequence,
    krull_dim,
    lazard_bound,
    leading_monomial_ideal,
    max_gb_deg,
    minimalize,
    mono_divides,
    mono_lcm,
    mono_div,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
    rref_block,
    rref_naive,
    sample_system,
    sample_Z_system,
)
from sgb import analysis, core, engine
from sgb.core import _Packing
from sgb.engine import (
    MAX_MACAULAY_CELLS,
    _macaulay_cells,
    _matmul_mod,
    _monic,
    _reduce,
    _Reducers,
)
from sgb.errors import (
    BudgetExhausted,
    DegreeTooLarge,
    DegreeTooSmall,
    EmptyBasis,
    InvalidDegree,
    MatrixTooLarge,
    NotHomogeneous,
    ZeroPolynomial,
)
from conftest import corner_system, spec_fixture_system


def fixture_f1_f2(fld):
    return PolySystem(
        fld,
        2,
        (
            Polynomial(fld, 2, {(2, 0): 1, (0, 2): 1}),  # x1^2 + x2^2
            Polynomial(fld, 2, {(1, 1): 1}),  # x1*x2
        ),
    )


def z_example():
    """Krull dimension one over F_2: Lazard bound 4, true maximal basis
    degree 5."""
    return sample_Z_system(4, 3, (2, 2, 2), PrimeField(2), seed=2)


@pytest.fixture(scope="module")
def complete_engine_cases():
    """(system, oracle basis as strings, its maximal degree) for dense and Z
    systems over F_2, F_3, F_7 and F_31, and for the Z example."""
    shapes = ((3, 3, (2, 2, 2)), (4, 3, (2, 2, 2)), (4, 4, (1, 2, 2, 3)), (4, 5, (2,) * 5))
    systems = [z_example()]
    for q in (2, 3, 7, 31):
        for sampler in (sample_system, sample_Z_system):
            for n, m, degrees in shapes:
                for seed in range(3):
                    systems.append(sampler(n, m, degrees, PrimeField(q), seed))
    cases = []
    for system in systems:
        oracle = buchberger(system)
        cases.append((system, [str(g) for g in oracle], max_gb_deg(oracle)))
    return cases


EDGE_PRIMES = (2, 3, 31, 65521, 2**31 - 1)


@pytest.fixture(scope="module")
def echelon_cases():
    """(system, one above its true maximal basis degree) for dense, Z and
    mixed-degree systems in 3 and 4 variables over F_2, F_3, F_31, F_65521
    and F_{2^31-1}, and for corner quadrics 5/6 and 6/6, dense quadrics 6/7
    and Z quadrics 5/5 over F_2, F_31 and F_{2^31-1}: in 5 to 7 variables a
    degree has many pivot rows per variable, repeated products the chain
    criterion drops and keeps, and pivot blocks solved in several rounds."""
    shapes = (
        (3, 3, (2, 2, 2)),
        (4, 4, (2, 2, 2, 2)),
        (4, 4, (1, 2, 2, 3)),
        (4, 3, (3, 2, 2)),
        (3, 4, (2, 3, 2, 1)),
        (4, 5, (2,) * 5),
    )
    wide = (
        (corner_system, 5, 6),
        (corner_system, 6, 6),
        (sample_system, 6, 7),
        (sample_Z_system, 5, 5),
    )
    systems = []
    for q in EDGE_PRIMES:
        for sampler in (sample_system, sample_Z_system):
            for n, m, degrees in shapes:
                for seed in range(2):
                    systems.append(sampler(n, m, degrees, PrimeField(q), seed))
    for q in (2, 31, 2**31 - 1):
        for sampler, n, m in wide:
            systems.append(sampler(n, m, (2,) * m, PrimeField(q), 1))
    return [(system, max_gb_deg(buchberger(system)) + 1) for system in systems]


@contextlib.contextmanager
def eliminations(monkeypatch):
    """Record the echelon (leading and standard indices, tails) of each degree
    gb_up_to eliminates, seen through the module global it calls."""
    seen = []
    step = engine._eliminate_degree

    def spy(*args):
        seen.append(step(*args))
        return seen[-1]

    with monkeypatch.context() as mp:
        mp.setattr(engine, "_eliminate_degree", spy)
        yield seen


def gauss_jordan(a, p):
    """Gauss-Jordan on lists of Python ints, reducing every entry at every
    step."""
    rows = [[x % p for x in row] for row in a.tolist()]
    cols = a.shape[1]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for h, row in enumerate(rows):
            if h != r and row[c]:
                rows[h] = [(x - row[c] * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    return np.array(rows, dtype=np.int64).reshape(a.shape), tuple(pivots)


KERNEL_PRIMES = (2, 3, 65521, 67108859, 2**31 - 1)


@st.composite
def int_matrices(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 6))
    # small entries give rank-deficient matrices, wide ones negative and >= p
    entry = draw(st.sampled_from([st.integers(0, 2), st.integers(-3 * p, 3 * p)]))
    cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.int64).reshape(rows, cols), p


def assert_matches_oracle(a, p):
    # the reference for both numpy kernels: the RREF and its pivots
    expected, pivots = gauss_jordan(a, p)
    naive, block = rref_naive(a, p), rref_block(a, p)
    assert naive.matrix.dtype == np.int64 and naive.matrix.shape == a.shape
    assert np.array_equal(naive.matrix, expected)
    assert naive.pivots == pivots and naive.rank == len(pivots)
    assert np.array_equal(block.matrix, naive.matrix)
    assert block.pivots == naive.pivots and block.rank == naive.rank


def normal_form_oracle(f: Polynomial, reducers) -> Polynomial:
    """Remainder of ``f`` on division by ``reducers`` (full tail reduction)."""
    fld = f.field
    p = fld.p
    lead = [(g.leading_monomial(), fld.inv(g.leading_coeff()), g) for g in reducers]
    work = dict(f.coeffs)
    remainder = {}
    while work:
        m = max(work, key=drl_key)
        c = work.pop(m)
        for lm, lc_inv, g in lead:
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                scale = c * lc_inv % p
                for gm, gc in g.coeffs.items():
                    key = mono_mul(gm, shift)
                    if key == m:
                        continue
                    v = (work.get(key, 0) - scale * gc) % p
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
    return Polynomial(fld, f.n, remainder)


@st.composite
def division_cases(draw):
    """An inhomogeneous f and reducers with non-monic leading coefficients;
    leading monomials come from a pool of at most three, so duplicates are
    common.  Also a split point for appending to a warm reducer set."""
    p = draw(st.sampled_from((2, 3, 7, 31, 2**31 - 1)))
    n = draw(st.integers(1, 3))
    fld = PrimeField(p)
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.integers(1, p - 1)
    f = Polynomial(fld, n, draw(st.dictionaries(monomial, coeff, max_size=8)))
    pool = draw(st.lists(monomial, min_size=1, max_size=3))
    reducers = []
    for _ in range(draw(st.integers(0, 5))):
        lm = draw(st.sampled_from(pool))
        tail = draw(st.dictionaries(monomial, coeff, max_size=4))
        tail = {m: c for m, c in tail.items() if drl_key(m) < drl_key(lm)}
        reducers.append(Polynomial(fld, n, {**tail, lm: draw(coeff)}))
    split = draw(st.integers(0, len(reducers)))
    return f, reducers, split


def reducer_set(polys, n):
    """A fresh ``_Reducers`` of ``n`` variables holding ``polys``."""
    reducers = _Reducers(_Packing(n))
    for g in polys:
        add_reducer(reducers, g)
    return reducers


def add_reducer(reducers, g: Polynomial) -> None:
    # division by g and by g / lc(g) leaves the same remainder
    reducers.add(_monic(reducers.pack.terms(g), g.field.p))


def remainder(f: Polynomial, reducers) -> Polynomial:
    """Remainder of ``f`` by the engine's ``_reduce``, unpacked."""
    pack = reducers.pack
    return pack.polynomial(_reduce(pack.terms(f), reducers, f.field.p), f.field)


class TestNormalForm:
    @settings(max_examples=400, deadline=None)
    @given(division_cases())
    def test_matches_oracle(self, case):
        f, reducers, split = case
        expected = normal_form_oracle(f, reducers)
        assert remainder(f, reducer_set(reducers, f.n)) == expected
        # caches filled on a prefix stay valid after appending the rest
        warm = reducer_set(reducers[:split], f.n)
        assert remainder(f, warm) == normal_form_oracle(f, reducers[:split])
        for g in reducers[split:]:
            add_reducer(warm, g)
        assert remainder(f, warm) == expected

    def test_edge_cases(self, f7):
        x1, x2, x3 = (Polynomial.variable(f7, 3, i) for i in range(3))
        zero = Polynomial.zero(f7, 3)
        f = x1 * x1 + x2 * 3

        def nf(f, polys):
            return remainder(f, reducer_set(polys, 3))

        assert nf(f, []) == f == normal_form_oracle(f, [])
        assert nf(zero, [x1 + x2]).is_zero()
        assert nf(zero, []).is_zero()
        # duplicate leading monomials: the first reducer in list order wins
        assert nf(x1, [x1 + x2, x1 + x3]) == -x2
        assert nf(x1, [x1 + x3, x1 + x2]) == -x3
        # non-monic leading coefficient
        assert nf(x1 * x2, [x1 * 2 + x3]) == x2 * x3 * 3

    def test_append_after_cached_miss(self, f31):
        x1, x2 = (Polynomial.variable(f31, 2, i) for i in range(2))
        f = x1 * x2 + x2 * x2 * 5
        reducers = reducer_set([x1 * x1 + x2], 2)
        assert remainder(f, reducers) == f
        x1x2 = reducers.pack.pack((1, 1))  # the divisor cache is keyed by packed monomial
        assert reducers.divisor[x1x2] == ~1  # a miss after checking one reducer
        g = x2 * 2 + Polynomial.constant(f31, 2, 1)
        add_reducer(reducers, g)  # LM x2 divides the cached miss x1*x2
        fresh = reducer_set([x1 * x1 + x2, g], 2)
        assert remainder(f, reducers) == remainder(f, fresh)
        assert remainder(f, reducers) == normal_form_oracle(f, [x1 * x1 + x2, g])
        assert reducers.divisor[x1x2] == 1


@st.composite
def packed_cases(draw):
    """Two monomials whose degrees fit the packing: small exponents, or one
    exponent as large as the degree limit allows; the second is often a
    multiple of the first."""
    n = draw(st.integers(1, 4))
    limit = _Packing(n).limit

    def monomial():
        m = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            m[i] = 0
            m[i] = limit - 1 - sum(m) - draw(st.integers(0, 2))
        return tuple(m)

    a, b = monomial(), monomial()
    if draw(st.booleans()) and sum(a) + sum(b) < limit:
        b = mono_mul(a, b)
    return a, b


class TestPackedMonomials:
    @settings(max_examples=400, deadline=None)
    @given(packed_cases())
    def test_matches_tuple_monomials(self, case):
        a, b = case
        pack = _Packing(len(a))
        ka, kb = pack.pack(a), pack.pack(b)
        assert pack.unpack(ka) == a and pack.degree(ka) == sum(a)
        # a smaller key is a DRL-larger monomial
        assert (ka < kb) == (drl_key(a) > drl_key(b))
        assert (ka == kb) == (a == b)
        assert pack.divides(ka, kb) == mono_divides(a, b)
        lcm = pack.lcm(ka, kb)  # exact even when its degree does not fit
        assert pack.unpack(lcm) == mono_lcm(a, b)
        assert pack.degree(lcm) == sum(mono_lcm(a, b))
        if sum(a) + sum(b) < pack.limit:
            assert ka + kb == pack.pack(mono_mul(a, b))
        if mono_divides(a, b):
            assert kb - ka == pack.pack(mono_div(b, a))

    def test_zero_and_largest_exponents(self):
        pack = _Packing(3)
        top = pack.limit - 1
        for m in [(0, 0, 0), (top, 0, 0), (0, 0, top), (1, top - 2, 1)]:
            assert pack.unpack(pack.pack(m)) == m
        assert pack.pack((0, 0, 0)) == 0
        assert pack.divides(pack.pack((0, 0, 0)), pack.pack((0, top, 0)))
        assert not pack.divides(pack.pack((0, top, 0)), pack.pack((1, top - 1, 0)))
        assert pack.lcm(pack.pack((top, 0, 0)), pack.pack((0, 0, top))) == (
            pack.pack((top, 0, 0)) + pack.pack((0, 0, top))
        )

    def test_monomial_caches_are_bounded(self):
        # the (n, d) caches keep the pairs used last: walking more shapes
        # than they hold keeps each within its size, and a table evicted and
        # built again is the same
        caches = (monomials_of_degree, core._packed_monomials, engine._products)

        def tables():
            return [monomials_of_degree(3, 4), core._packed_monomials(3, 4),
                    engine._products(3, 4).tolist()]

        first = tables()
        for n in (1, 2):
            for d in range(1, 300):
                for cache in caches:
                    cache(n, d)
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize < 2 * 300
        assert tables() == first

    def test_over_wide_input_is_refused(self, f31):
        limit = _Packing(2).limit
        for m in [(limit, 0), (limit // 2, limit // 2)]:
            system = PolySystem(f31, 2, (Polynomial(f31, 2, {m: 1, (1, 0): 1}),))
            with pytest.raises(DegreeTooLarge):
                buchberger(system)
            with pytest.raises(DegreeTooLarge):
                remainder(system.polys[0], reducer_set([], 2))
        fits = PolySystem(f31, 2, (Polynomial(f31, 2, {(limit - 1, 0): 1}),))
        assert buchberger(fits).elements == fits.polys

    def test_one_variable_power_over_the_width_is_refused(self, f31):
        # one variable has one monomial of each degree: listing it must not
        # first copy range(d), which ran out of memory at d = 2^31
        d = _Packing(1).limit
        assert monomials_of_degree(1, d) == ((d,),)
        system = PolySystem(f31, 1, (Polynomial(f31, 1, {(d,): 1}),))
        with pytest.raises(DegreeTooLarge):
            gb_up_to(system, d)

    def test_lcm_over_the_width_is_refused_mid_run(self, f31):
        # inputs of degree 2^30 + 1 fit; the only pair has lcm
        # x1^(2^30)*x2^(2^30) of degree 2^31, which does not
        names = ("x1", "x2", "x3")
        polys = ("x1^1073741824*x2 + x3^1073741825", "x1*x2^1073741824 + x3^1073741825")
        system = PolySystem(f31, 3, tuple(parse_polynomial(f, names, f31) for f in polys))
        with pytest.raises(DegreeTooLarge, match="degree 2147483648;"):
            buchberger(system)
        # the degree loop would list every monomial of degree 2^30 + 1, so it
        # stops before it, at lo - 1, and hands the generators over to
        # Buchberger's loop, which meets the lcm
        loop = engine._DegreeLoop(system)
        loop.walk(2**30 + 1)
        assert loop.top == 2**30 and not loop.echelons and loop._owner is None
        with pytest.raises(DegreeTooLarge, match="degree 2147483648;"):
            gb_up_to(system, 2**30 + 1)


class TestInputChecks:
    @pytest.mark.parametrize("entry", ["build_macaulay", "gb_up_to", "loop", "buchberger"])
    def test_one_order_on_every_entry(self, f7, entry):
        # an empty system, then homogeneity for elimination, then a zero
        # generator, then a degree below 1 for elimination
        call = {
            "build_macaulay": lambda s: build_macaulay(s, 2),
            "gb_up_to": lambda s: gb_up_to(s, 2),
            "loop": engine._DegreeLoop,
            "buchberger": buchberger,
        }[entry]
        eliminates = entry != "buchberger"
        x1, zero = Polynomial.variable(f7, 2, 0), Polynomial.zero(f7, 2)
        one = Polynomial(f7, 2, {(0, 0): 1})
        cases = [
            ((), EmptyBasis),
            ((zero, x1 + one), NotHomogeneous if eliminates else ZeroPolynomial),
            ((x1, zero, one), ZeroPolynomial),
        ]
        for polys, error in cases:
            with pytest.raises(error):
                call(PolySystem(f7, 2, polys))
        with pytest.raises(EmptyBasis, match="^cannot compute a basis for an empty system$"):
            call(PolySystem(f7, 2, ()))
        if eliminates:
            with pytest.raises(InvalidDegree):
                call(PolySystem(f7, 2, (x1, one)))
        else:
            assert [str(g) for g in call(PolySystem(f7, 2, (x1, one)))] == ["1"]


class TestBuildMacaulay:
    def test_hand_expansion(self, f7):
        mac = build_macaulay(fixture_f1_f2(f7), 3)
        assert mac.columns == ((3, 0), (2, 1), (1, 2), (0, 3))
        assert mac.row_labels == (
            ((1, 0), 0),
            ((0, 1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
        )
        expected = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
        )
        assert np.array_equal(mac.matrix, expected)

    def test_one_by_one(self, f7):
        system = PolySystem(f7, 1, (Polynomial.variable(f7, 1, 0),))
        mac = build_macaulay(system, 1)
        assert mac.matrix.shape == (1, 1) and mac.matrix[0, 0] == 1

    def test_monomial_shifts(self, f7):
        system = PolySystem(f7, 2, (Polynomial(f7, 2, {(2, 0): 1}),))
        mac = build_macaulay(system, 3)
        assert mac.matrix.shape == (2, 4)
        assert mac.row_labels == (((1, 0), 0), ((0, 1), 0))

    def test_row_count_formula(self, f31):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=rng.randrange(10**6))
            d = rng.randint(min(degrees), 6)
            mac = build_macaulay(system, d)
            expected = sum(
                math.comb(n - 1 + d - dj, d - dj) for dj in degrees if dj <= d
            )
            assert mac.matrix.shape == (expected, math.comb(n + d - 1, d))

    def test_rows_encode_products(self, f31):
        rng = random.Random(1)
        for _ in range(30):
            system = sample_system(3, 2, (2, 3), f31, seed=rng.randrange(10**6))
            mac = build_macaulay(system, 4)
            for (mult, j), row in zip(mac.row_labels, mac.matrix):
                product = system.polys[j].term_mul(mult)
                rebuilt = {
                    mac.columns[i]: int(v) for i, v in enumerate(row) if v
                }
                assert rebuilt == product.coeffs

    def test_errors(self, f7):
        inhom = PolySystem(
            f7, 2, (Polynomial(f7, 2, {(1, 0): 1, (0, 0): 1}),)
        )
        with pytest.raises(NotHomogeneous):
            build_macaulay(inhom, 2)
        with pytest.raises(DegreeTooSmall):
            build_macaulay(fixture_f1_f2(f7), 1)

    def test_size_limit(self, f7):
        system = PolySystem(f7, 3, (Polynomial(f7, 3, {(2, 0, 0): 1}),))
        with pytest.raises(MatrixTooLarge):
            build_macaulay(system, 10**8)
        with pytest.raises(MatrixTooLarge):
            gb_up_to(system, 10**8)
        # one variable: every matrix has one cell, but the loop is too long
        line = PolySystem(f7, 1, (Polynomial(f7, 1, {(1,): 1}),))
        with pytest.raises(MatrixTooLarge, match="degrees"):
            gb_up_to(line, 10**8)
        # M_1000 alone (999 x 1,001) is under the limit, and the loop has
        # 999 degrees of two standard monomials each, far under its budget
        plane = PolySystem(f7, 2, (Polynomial(f7, 2, {(2, 0): 1}),))
        assert _macaulay_cells(plane, 1000) < MAX_MACAULAY_CELLS
        loop = engine._DegreeLoop(plane)
        assert loop.basis(1000) == buchberger(plane)
        assert loop.top == 1000 and loop.cells < 10**8

    def test_size_limit_admits_dense_7_8_at_lazard_cap(self, monkeypatch):
        # 8 quadrics in 7 variables at the Lazard cap 8: M_8 is 7,392 x 3,003,
        # and the loop meets its cover at 6 with its arrays bounded by under
        # 10^5 cells, so a budget of exactly its total walks the same degrees
        f31 = PrimeField(31)
        system = sample_system(7, 8, (2,) * 8, f31, seed=1)
        assert _macaulay_cells(system, 8) == 7392 * 3003
        loop = engine._DegreeLoop(system)
        loop.walk(8)
        assert (loop.top, loop.covered) == (5, 6) and 0 < loop.cells < 10**5
        monkeypatch.setattr(engine, "MAX_MACAULAY_CELLS", loop.cells)
        again = engine._DegreeLoop(system)
        again.walk(8)
        assert (again.top, again.covered, again.cells) == (5, 6, loop.cells)

    def test_dump_golden(self, f7):
        mac = build_macaulay(fixture_f1_f2(f7), 3)
        assert mac.dump() == "3 4 4 7\n1 0 1 0\n0 1 0 1\n0 1 0 0\n0 0 1 0\n"


class TestRref:
    def test_spec_examples(self):
        res = rref_naive(np.array([[0, 1], [1, 0]]), 7)
        assert np.array_equal(res.matrix, np.eye(2, dtype=np.int64)) and res.rank == 2
        res = rref_naive(np.array([[2, 4], [1, 2]]), 7)
        assert np.array_equal(res.matrix, np.array([[1, 2], [0, 0]])) and res.rank == 1
        zero = np.zeros((3, 2), dtype=np.int64)
        res = rref_naive(zero, 7)
        assert np.array_equal(res.matrix, zero) and res.rank == 0

    def test_canonical_form_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.integers(0, 31, size=(rng.integers(1, 8), rng.integers(1, 6)))
            res = rref_naive(a, 31)
            assert list(res.pivots) == sorted(res.pivots)
            for row_idx, col in enumerate(res.pivots):
                assert res.matrix[row_idx, col] == 1
                column = res.matrix[:, col].copy()
                column[row_idx] = 0
                assert not column.any()
            assert not res.matrix[res.rank:].any()

    def test_idempotent_and_permutation_stable(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.integers(0, 31, size=(rng.integers(1, 10), rng.integers(1, 6)))
            res = rref_naive(a, 31)
            again = rref_naive(res.matrix, 31)
            assert np.array_equal(res.matrix, again.matrix)
            shuffled = a[rng.permutation(a.shape[0])]
            assert rref_naive(shuffled, 31).rank == res.rank
            assert np.array_equal(rref_naive(shuffled, 31).matrix, res.matrix)

    def test_block_equals_naive_small(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ell = int(rng.integers(1, 8))
            k = int(rng.integers(1, 2 * ell + 1))
            a = rng.integers(0, 31, size=(k, ell))
            naive, block = rref_naive(a, 31), rref_block(a, 31)
            assert np.array_equal(naive.matrix, block.matrix)

    def test_block_equals_naive_tall(self):
        rng = np.random.default_rng(3)
        for ratio in (3, 10, 20):
            for _ in range(20):
                ell = int(rng.integers(1, 8))
                a = rng.integers(0, 31, size=(ratio * ell, ell))
                naive, block = rref_naive(a, 31), rref_block(a, 31)
                assert np.array_equal(naive.matrix, block.matrix)
                assert naive.pivots == block.pivots

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernels_match_oracle(self, case):
        assert_matches_oracle(*case)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize(
        "shape", [(0, 4), (4, 0), (0, 0), (5, 3), (30, 4), (17, 3)]
    )
    def test_kernels_match_oracle_edge_shapes(self, p, shape):
        rng = np.random.default_rng(sum(shape))
        assert_matches_oracle(np.zeros(shape, dtype=np.int64), p)
        # entries negative and >= p; the last two shapes are tall (rows > 2 cols)
        a = rng.integers(-2 * p, 2 * p, size=shape, dtype=np.int64)
        assert_matches_oracle(a, p)
        if shape[0] and shape[1]:
            a[:, -1] = a[:, 0]
            a[-1] = a[0] + a[1 % shape[0]]
            assert_matches_oracle(a, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize(
        "rows, cols, dependent",
        [
            # runs of dependent columns, with the rank below and at the rows
            (40, 48, [*range(10, 20), *range(30, 38)]),
            (24, 48, [*range(5, 9), *range(40, 48)]),
            # isolated dependent columns: every third, or a few far apart
            (40, 48, list(range(3, 48, 3))),
            (30, 64, [1, 17, 33, 63]),
            # tall enough that rref_block eliminates in batches
            (96, 40, [*range(8, 16), 20, 27, 39]),
        ],
    )
    def test_kernels_match_oracle_with_dependent_columns(self, p, rows, cols, dependent):
        # wide matrices whose dependent columns, each a combination of the
        # columns before it, take no pivot, so the elimination passes over
        # them; entries are unreduced, negative and >= p
        rng = np.random.default_rng(rows * cols + len(dependent))
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        for c in dependent:
            coeffs = rng.integers(0, p, size=c, dtype=np.int64)
            a[:, c] = a[:, :c].astype(object).dot(coeffs.astype(object)) % p
        a += p * rng.integers(-2, 3, size=(rows, cols), dtype=np.int64)
        assert not set(rref_naive(a, p).pivots) & set(dependent)
        assert_matches_oracle(a, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize(
        "blocks, size, dense",
        [(8, 3, 0), (6, 4, 6), (3, 5, 20)],
    )
    def test_kernels_match_oracle_with_shuffled_blocks(self, p, blocks, size, dense):
        # blocks of `size` rows and size - 1 columns down the diagonal, the
        # rows shuffled, then `dense` random columns: most pivot rows lie below
        # those found so far and are swapped up; a block column is hit by
        # fewer than half the rows, and updated by gather and scatter, a dense
        # column by more, and updated by one broadcast; at p = 2^31 - 1 a
        # sweep mod p comes before every second update, of either kind
        rng = np.random.default_rng(blocks * size + dense)
        rows, width = blocks * size, blocks * (size - 1)
        a = np.zeros((rows, width + dense), dtype=np.int64)
        for b in range(blocks):
            at = (slice(b * size, (b + 1) * size), slice(b * (size - 1), (b + 1) * (size - 1)))
            a[at] = rng.integers(1, p, size=(size, size - 1), dtype=np.int64)
        a[:, width:] = rng.integers(0, p, size=(rows, dense), dtype=np.int64)
        a = a[rng.permutation(rows)]
        assert_matches_oracle(a, p)
        a += p * rng.integers(-2, 3, size=a.shape, dtype=np.int64)
        assert_matches_oracle(a, p)

    def test_largest_prime_sweeps_unreduced_entries(self):
        # at p = 2^31 - 1 each update subtracts up to about 2^62, and the
        # non-pivot columns of a 12 x 16 or 24 x 32 matrix are hit by every
        # pivot: without the sweeps mod p their entries would pass 2^63 - 1.
        # An entry can take two updates between sweeps; letting it take three
        # overflows in every 24 x 32 case.
        p = 2**31 - 1
        for rows, cols in ((12, 16), (24, 32)):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
                assert rref_naive(a, p).rank == rows
                assert_matches_oracle(a, p)

    def test_stacked_copy(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 7, size=(5, 3))
        single = rref_naive(a, 7)
        stacked = rref_block(np.vstack([a] * 5), 7)
        assert np.array_equal(
            single.matrix[: single.rank], stacked.matrix[: stacked.rank]
        )


class TestGroebner:
    def test_buchberger_spec_examples(self, f7):
        basis = buchberger(fixture_f1_f2(f7))
        assert [str(g) for g in basis] == ["x1^2 + x2^2", "x1*x2", "x2^3"]
        basis = buchberger(
            PolySystem(
                f7, 2, (Polynomial.variable(f7, 2, 0), Polynomial.variable(f7, 2, 1))
            )
        )
        assert [str(g) for g in basis] == ["x1", "x2"]
        basis = buchberger(spec_fixture_system(f7))
        assert [str(g) for g in basis] == ["x1^2", "x1*x2"]

    def test_buchberger_errors(self, f7):
        with pytest.raises(ZeroPolynomial):
            buchberger(PolySystem(f7, 2, (Polynomial.zero(f7, 2),)))
        with pytest.raises(EmptyBasis):
            buchberger(PolySystem(f7, 2, ()))

    def test_buchberger_criterion_on_random_systems(self, f31):
        # every input generator and every S-polynomial of the output reduces
        # to zero, by the tuple-monomial oracle division
        rng = random.Random(5)
        for k in range(25):
            n = rng.randint(2, 3)
            m = rng.randint(2, 4)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=k)
            basis = buchberger(system)
            elems = list(basis.elements)
            for f in system.polys:
                assert normal_form_oracle(f, elems).is_zero()
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    lcm = mono_lcm(
                        elems[i].leading_monomial(), elems[j].leading_monomial()
                    )
                    s = elems[i].term_mul(
                        mono_div(lcm, elems[i].leading_monomial())
                    ) - elems[j].term_mul(mono_div(lcm, elems[j].leading_monomial()))
                    assert normal_form_oracle(s, elems).is_zero()

    def test_huge_exponents_give_the_same_basis(self, f31):
        names = ("x1", "x2")
        polys = ("x1^60000 + x2^60000", "x1*x2")
        system = PolySystem(f31, 2, tuple(parse_polynomial(f, names, f31) for f in polys))
        expected = ["x1*x2", "x1^60000 + x2^60000", "x2^60001"]
        assert [str(g) for g in buchberger(system)] == expected

    def test_reducedness(self, f31):
        rng = random.Random(6)
        for k in range(25):
            basis = buchberger(sample_system(3, 3, (2, 2, 3), f31, seed=100 + k))
            lms = basis.leading_monomials()
            for i, g in enumerate(basis):
                assert g.leading_coeff() == 1
                for j, lm in enumerate(lms):
                    if i == j:
                        continue
                    assert not any(mono_divides(lm, m) for m in g.coeffs)

    def test_gb_up_to_spec_examples(self, f7):
        basis = gb_up_to(fixture_f1_f2(f7), 3)
        assert [str(g) for g in basis] == ["x1^2 + x2^2", "x1*x2", "x2^3"]

        single = gb_up_to(PolySystem(f7, 1, (Polynomial.variable(f7, 1, 0),)), 1)
        assert [str(g) for g in single] == ["x1"]

        capped = gb_up_to(spec_fixture_system(f7), 4)
        assert [str(g) for g in capped] == ["x1^2", "x1*x2"]

    def test_gb_up_to_requires_homogeneous(self, f7):
        inhom = PolySystem(f7, 1, (Polynomial(f7, 1, {(1,): 1, (0,): 1}),))
        with pytest.raises(NotHomogeneous):
            gb_up_to(inhom, 2)

    def test_engine_matches_oracle(self, f31):
        rng = random.Random(7)
        for k in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(max(1, n - 1), 5)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=500 + k)
            oracle = buchberger(system)
            cap = max(max_gb_deg(oracle), max(degrees))
            engine = gb_up_to(system, cap)
            assert [str(g) for g in engine] == [str(g) for g in oracle]
            # both routes share one sort, so pin the order against drl_key:
            # by degree, then DRL-descending leading monomial
            for basis in (oracle, engine):
                order = [(g.degree(), drl_key(g.leading_monomial())) for g in basis]
                assert all(
                    a[0] < b[0] or (a[0] == b[0] and a[1] > b[1])
                    for a, b in zip(order, order[1:])
                )

    def test_every_cap_gives_the_oracle_basis(self, complete_engine_cases):
        for system, oracle, top in complete_engine_cases:
            for cap in range(max(system.degrees), top + 2):
                assert [str(g) for g in gb_up_to(system, cap)] == oracle, (system, cap)

    def test_rows_alone_are_the_basis_from_the_true_degree(
        self, monkeypatch, complete_engine_cases
    ):
        # from the true maximal degree on, Buchberger's loop has nothing to
        # add, so a wrong or missing RREF row cannot hide behind it
        # (_complete takes monic packed polynomials with their packing)
        starts = []
        real = engine._complete

        def spy(G, pack, fld, **kw):
            starts.append([pack.polynomial(g, fld) for g in G])
            return real(G, pack, fld, **kw)

        monkeypatch.setattr(engine, "_complete", spy)
        for system, oracle, top in complete_engine_cases:
            for cap in range(max(top, max(system.degrees)), top + 2):
                starts.clear()
                basis = gb_up_to(system, cap)
                # a loop that met its cover returns its rows as the basis
                rows = starts[0] if starts else basis.elements
                assert sorted(map(str, rows)) == sorted(oracle), (system, cap)
        # below it, the Z example's rows miss the degree-5 element
        starts.clear()
        gb_up_to(z_example(), 4)
        assert len(starts[0]) == 7 and max(g.degree() for g in starts[0]) == 4

    def test_rows_are_not_reduced_again(self, monkeypatch, complete_engine_cases):
        # the RREF rows are already the reduced basis up to the cap; from the
        # true maximal degree on the loop adds nothing, so each reduction is
        # that of an S-pair and leaves zero (an empty packed remainder)
        remainders = []
        real = engine._reduce
        monkeypatch.setattr(
            engine, "_reduce", lambda f, g, p: remainders.append(real(f, g, p)) or remainders[-1]
        )
        for system, oracle, top in complete_engine_cases:
            for cap in range(max(top, max(system.degrees)), top + 2):
                gb_up_to(system, cap)
        assert remainders and all(not r for r in remainders)

    @pytest.mark.parametrize(
        "polys, pairs",
        [
            # only the product criterion drops pairs (3 of them; without it
            # 5 S-pairs are reduced)
            (("x1^2 + x2^2", "x1*x2", "x3^2"), 2),
            # only the chain criterion drops a pair (without it 9 S-pairs)
            (("x1^2", "x1*x2 + x3^2", "x1*x3 + x2*x3"), 8),
        ],
    )
    def test_gebauer_moeller_pair_counts(self, f7, monkeypatch, polys, pairs):
        names = ("x1", "x2", "x3")
        system = PolySystem(f7, 3, tuple(parse_polynomial(f, names, f7) for f in polys))
        monkeypatch.setattr(engine, "MAX_S_PAIRS", pairs)
        buchberger(system)
        monkeypatch.setattr(engine, "MAX_S_PAIRS", pairs - 1)
        with pytest.raises(BudgetExhausted):
            buchberger(system)

    def test_max_gb_deg(self, f7):
        assert max_gb_deg(buchberger(fixture_f1_f2(f7))) == 3
        assert max_gb_deg(buchberger(PolySystem(f7, 2, (Polynomial.variable(f7, 2, 0),)))) == 1
        assert max_gb_deg(buchberger(spec_fixture_system(f7))) == 2
        from sgb import GroebnerBasis

        with pytest.raises(EmptyBasis):
            max_gb_deg(GroebnerBasis((), _Packing(2), f7))
        # a hand-built basis derives its leading keys from its elements
        basis = buchberger(fixture_f1_f2(f7))
        rebuilt = GroebnerBasis(basis.packed, basis.pack, f7)
        assert max_gb_deg(rebuilt) == 3
        assert rebuilt.keys == basis.keys

    def test_gb_up_to_cap_below_generators(self, f7):
        with pytest.raises(DegreeTooSmall):
            gb_up_to(fixture_f1_f2(f7), 1)

    def test_pair_budget(self, f31, monkeypatch):
        system = sample_system(3, 4, (2, 2, 2, 2), f31, seed=3)
        default = buchberger(system)
        monkeypatch.setattr(engine, "MAX_S_PAIRS", 1)
        with pytest.raises(BudgetExhausted):
            buchberger(system)
        monkeypatch.setattr(engine, "MAX_S_PAIRS", 10_000)
        assert [str(g) for g in buchberger(system)] == [str(g) for g in default]

    def test_reduction_steps_are_bounded(self, f31):
        # each step trades one power of x1 for one of x2, so the first
        # S-polynomial needs about 2^29 reduction steps
        e = 2**29
        system = PolySystem(f31, 2, (
            Polynomial(f31, 2, {(e, 0): 1, (0, e): 3}),
            Polynomial(f31, 2, {(1, 0): 1, (0, 1): 1}),
        ))
        start = time.perf_counter()
        with pytest.raises(BudgetExhausted, match="reduction"):
            buchberger(system)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("n, m, steps", [(3, 4, 44), (4, 5, 246)])
    def test_reduction_step_count_is_pinned(self, f31, monkeypatch, n, m, steps):
        # the budget is a count of popped terms, so a run stops at the same
        # step on every machine
        system = sample_system(n, m, (2,) * m, f31, seed=3)
        default = buchberger(system)
        monkeypatch.setattr(engine, "MAX_REDUCTION_STEPS", steps)
        assert buchberger(system) == default
        monkeypatch.setattr(engine, "MAX_REDUCTION_STEPS", steps - 1)
        with pytest.raises(BudgetExhausted):
            buchberger(system)

    @pytest.mark.parametrize(
        "n, m, seed, pairs, growth",
        [(6, 7, 1, 128, "c3d6a11e214f2066"), (4, 5, 3, 27, "409e73f33e21ea77")],
    )
    def test_s_pair_order_is_pinned(self, f31, monkeypatch, n, m, seed, pairs, growth):
        # the pair count moves when pruning or the selection by degree
        # changes; the order in which the basis grew also moves when ties
        # between pairs of one lcm are broken differently
        grown = []
        real = engine._reduced_basis

        def spy(G, pack, fld, above=None):
            grown.append([pack.polynomial(g, fld) for g in G])
            return real(G, pack, fld, above)

        monkeypatch.setattr(engine, "_reduced_basis", spy)
        system = sample_system(n, m, (2,) * m, f31, seed=seed)
        monkeypatch.setattr(engine, "MAX_S_PAIRS", pairs)
        buchberger(system)
        monkeypatch.setattr(engine, "MAX_S_PAIRS", pairs - 1)
        with pytest.raises(BudgetExhausted):
            buchberger(system)
        text = "\n".join(str(g) for g in grown[0])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == growth

    def test_rank_identity_and_pivot_monomials(self, f31):
        # dim R_d - rank(M_d) = HF of the leading-monomial ideal, and the
        # pivot columns are exactly the degree-d part of <LM(G)>
        rng = random.Random(8)
        for k in range(20):
            n = rng.randint(2, 3)
            m = rng.randint(2, 4)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=900 + k)
            basis = buchberger(system)
            lm_ideal = leading_monomial_ideal(basis)
            for d in range(min(degrees), 7):
                mac = build_macaulay(system, d)
                res = rref_naive(mac.matrix, 31)
                monoms = monomials_of_degree(n, d)
                assert len(monoms) - res.rank == hilbert_function(lm_ideal, d)
                pivot_monoms = {mac.columns[c] for c in res.pivots}
                ideal_part = {t for t in monoms if lm_ideal.contains(t)}
                assert pivot_monoms == ideal_part


def echelon_rows(echelon, n):
    """The rows an echelon keeps, leading monomial plus tail, as a dense
    matrix over the degree's monomials in pivot order.  Leads and standard
    monomials are indices among the degree's ascending packed keys, which
    are the columns of M_d."""
    size = len(core._packed_monomials(n, echelon.degree))
    rows = np.zeros((len(echelon.leads), size), dtype=np.int64)
    rows[np.arange(len(echelon.leads)), echelon.leads] = 1
    rows[:, echelon.standard] = echelon.tails
    return rows[np.argsort(echelon.leads, kind="stable")]


@st.composite
def edge_field_cases(draw):
    """A dense, Z or mixed-degree system over a field at the edges of the
    range, p in {2, 3, 31, 65521, 2^31 - 1}, and a cap from its largest
    generator degree to the Lazard bound + 1."""
    fld = PrimeField(draw(st.sampled_from(EDGE_PRIMES)))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n + 1))
    kind = draw(st.sampled_from((sample_system, sample_Z_system, "mixed")))
    if kind == "mixed":
        degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
        kind = sample_system
    else:
        degrees = (draw(st.integers(1, 3)),) * m
    system = kind(n, m, degrees, fld, seed=draw(st.integers(0, 2**32)))
    cap = draw(st.integers(max(degrees), lazard_bound(n, m, degrees) + 1))
    return system, cap


class TestDegreeElimination:
    def test_kept_rows_are_the_rref_of_m_d(self, monkeypatch, echelon_cases):
        # degree d is eliminated from the rows of degree d - 1 times each
        # variable, never from M_d; the rows it keeps must still be exactly
        # the nonzero rows of the canonical RREF of M_d
        for system, cap in echelon_cases:
            with eliminations(monkeypatch) as seen:
                gb_up_to(system, cap)
            assert seen
            for echelon in seen:
                full = rref_naive(build_macaulay(system, echelon.degree).matrix, system.field.p)
                kept = echelon_rows(echelon, system.n)
                assert np.array_equal(kept, full.matrix[: full.rank]), (system, echelon.degree)

    def test_via_is_the_least_variable_of_each_pivot_row(self, monkeypatch, echelon_cases):
        # the chain criterion reads via: for a lead t in P_d it is the least k
        # with t / x_k a lead of degree d - 1, the variable of t's pivot row,
        # and it is n on Q_d, the leads new at d
        for system, cap in echelon_cases:
            n = system.n
            with eliminations(monkeypatch) as seen:
                gb_up_to(system, cap)
            below, degree = set(), seen[0].degree - 1
            for echelon in seen:
                assert echelon.degree == degree + 1
                degree = echelon.degree
                monos = monomials_of_degree(n, degree)
                leads = [monos[i] for i in echelon.leads.tolist()]
                lifted = len(leads) - len(echelon.new)
                assert echelon.leads[lifted:].tolist() == echelon.new.tolist()
                for t, k in zip(leads[:lifted], echelon.via[:lifted].tolist()):
                    quotients = (
                        j for j in range(n)
                        if t[j] and t[:j] + (t[j] - 1,) + t[j + 1:] in below
                    )
                    assert k == next(quotients), (system, degree, t)
                assert echelon.via[lifted:].tolist() == [n] * len(echelon.new)
                below = set(leads)

    @settings(max_examples=100, deadline=None)
    @given(edge_field_cases())
    def test_matches_buchberger_over_the_edge_fields(self, case):
        system, cap = case
        basis, oracle = gb_up_to(system, cap), buchberger(system)
        assert basis == oracle and basis.keys == oracle.keys

    def test_each_degree_reduces_one_block(self, monkeypatch, f7):
        # bench/tracing.py counts matrices and ranks by wrapping the module
        # globals build_macaulay and rref_naive: the loop builds no M_d and
        # reaches rref_naive by name once per degree, for its block D
        system = sample_system(3, 3, (1, 2, 3), f7, seed=0)
        calls = []
        rref = engine.rref_naive
        monkeypatch.setattr(engine, "build_macaulay", lambda *a: calls.append("build"))
        monkeypatch.setattr(engine, "rref_naive", lambda a, p: calls.append(a.shape) or rref(a, p))
        with eliminations(monkeypatch) as seen:
            assert gb_up_to(system, 5) == buchberger(system)
        assert [e.degree for e in seen] == [1, 2, 3, 4, 5]
        assert len(calls) == 5 and "build" not in calls

    def test_the_basis_keeps_no_degree_loop(self, f31, monkeypatch):
        # a basis is a value: the loop that built it, with its echelons, is
        # garbage once gb_up_to or the default route returns it
        refs = []

        class Loop(engine._DegreeLoop):
            def __init__(self, system):
                super().__init__(system)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(engine, "_DegreeLoop", Loop)
        monkeypatch.setattr(analysis, "_DegreeLoop", Loop)
        system = sample_system(6, 7, (2,) * 7, f31, seed=1)
        route, cap = analysis._default_route(system)
        assert route == "macaulay"
        for build in (lambda s: gb_up_to(s, cap), analysis.groebner_basis):
            refs.clear()
            basis = build(system)
            gc.collect()
            assert len(refs) == 1 and refs[0]() is None
            assert len(basis) and basis.keys

    def test_matrix_products_stay_exact_past_2_63(self):
        # at p = 2^31 - 1 two products already pass 2^63; 70,000 of them
        # also take more than one chunk of the split product
        rng = np.random.default_rng(3)
        for p in EDGE_PRIMES:
            for k in (0, 1, 2, 3, 40, 70_000):
                a = rng.integers(p - 3, p, size=(2, k)) if k > 40 else rng.integers(0, p, size=(2, k))
                b = rng.integers(p - 3, p, size=(k, 3))
                exact = [
                    [sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p for j in range(3)]
                    for i in range(2)
                ]
                assert _matmul_mod(a, b, p).tolist() == exact, (p, k)


def array_cells(frame_locals) -> int:
    """The most cells of one array a frame holds, counting a view as the
    array it was cut from."""
    sizes = [0]
    for value in frame_locals.values():
        for a in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(a, engine.RrefResult):
                a = a.matrix
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                sizes.append(a.size)
    return max(sizes)


@contextlib.contextmanager
def largest_arrays(*functions):
    """Record, for each return from one of ``functions`` or a function
    defined in one, the most cells of one array among its locals (its
    arguments too) and the array it returns."""
    codes = {f.__code__ for f in functions}
    codes |= {c for f in functions for c in f.__code__.co_consts if hasattr(c, "co_code")}
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code in codes:
            seen.append(max(array_cells(frame.f_locals), array_cells({"arg": arg})))

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(old)


class TestLoopBudget:
    @pytest.mark.parametrize(
        "sampler, n, degrees, p",
        [
            (sample_system, 5, (2,) * 6, 31),
            (corner_system, 5, (2,) * 6, 31),
            (sample_Z_system, 4, (2,) * 5, 2),
            (sample_system, 5, (1, 2, 3, 3, 3), 31),
            (sample_system, 3, (2, 4), 7),
        ],
    )
    def test_the_bound_covers_every_array(self, sampler, n, degrees, p):
        # each degree's bound, the growth of the loop's cells, is at least
        # every array the elimination makes, the products' rows and tails,
        # the block D and the copy its RREF works on, the kept tails, and the
        # multiplication maps into that degree, with the table they gather
        system = sampler(n, len(degrees), degrees, PrimeField(p), seed=1)
        loop = engine._DegreeLoop(system)
        functions = (
            engine._eliminate_degree, engine.rref_naive, engine._rref_inplace,
            engine._matmul_mod,
        )
        lazard = lazard_bound(n, len(degrees), degrees)
        for d in range(loop.lo, lazard + 1):
            before = loop.cells
            with largest_arrays(*functions) as seen:
                loop.walk(d)
            if loop.top < d:
                break
            bound = loop.cells - before
            with largest_arrays(engine._DegreeLoop.extension_hf) as maps:
                loop.extension_hf([1] * n, d)
            kept = vars(loop.echelon(d)).values()
            seen += maps + [a.size for a in kept if isinstance(a, np.ndarray)]
            assert max(seen) <= bound, (d, seen, bound)
        assert loop.echelons and loop.cells <= MAX_MACAULAY_CELLS

    def test_each_limit_stops_the_walk_before_its_degree(self, f7, monkeypatch):
        # x1^2 in 3 variables: no degree is covered, and degree d has C(d + 2,
        # 2) monomials.  The limits on degrees and on listing monomials stop
        # the walk before the table of P is made, the cell budget after
        system = PolySystem(f7, 3, (Polynomial(f7, 3, {(2, 0, 0): 1}),))
        full = engine._DegreeLoop(system)
        full.walk(7)

        def walked(module, name, value):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, value)
                loop = engine._DegreeLoop(system)
                loop.walk(10)
            return loop.top, loop._owner is None

        assert walked(engine, "MAX_LOOP_DEGREES", 5) == (6, True)
        assert walked(core, "MAX_MONOMIALS", math.comb(9, 2)) == (7, True)  # N_8 = C(10, 2)
        assert walked(engine, "MAX_MACAULAY_CELLS", full.cells) == (7, False)
        # the listing limit bounds the table of P, (n + 1) N_2 cells here, so
        # a budget below it stops the walk after the table, by the cells
        assert walked(engine, "MAX_MACAULAY_CELLS", 4 * math.comb(4, 2) - 1) == (1, False)

    def test_listing_limit_counts_exponent_cells(self, f31):
        # two linear forms in 600 variables: degree 2 has 180,300 monomials of
        # 600 exponents each, over the listing limit, so the loop stops at
        # degree 1 and hands its rows to Buchberger's loop, where the product
        # criterion leaves no pair
        n = 600
        polys = tuple(
            Polynomial(f31, n, {tuple(int(k == i) for k in range(n)): c for i, c in terms})
            for terms in (((0, 1), (5, 3), (599, 2)), ((1, 1), (7, 5)))
        )
        system = PolySystem(f31, n, polys)
        oracle = buchberger(system)
        start = time.monotonic()
        assert gb_up_to(system, 1) == oracle
        assert analysis.groebner_basis(system) == oracle
        assert time.monotonic() - start < 2
        start = time.monotonic()
        with pytest.raises(MatrixTooLarge, match="^180300 monomials of degree 2 in 600 variables"):
            monomials_of_degree(n, 2)
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("sampler", [sample_system, corner_system])
    def test_a_handover_prunes_no_pair_at_or_below_the_top(self, f31, monkeypatch, sampler):
        # a loop stopped at a cap below the largest basis degree hands its
        # rows over; each pair of lcm degree <= that cap is dropped as soon as
        # the pruning makes it, so no later pruning is given one, and the
        # basis stays the same
        system = sampler(5, 5, (1, 2, 3, 3, 3), f31, seed=0)
        oracle = buchberger(system)
        degrees, real = [], engine._update_pairs

        def spy(pack, lmG, pairs, lcms, t):
            degrees.extend(pack.degree(lcms[pair]) for pair in pairs)
            return real(pack, lmG, pairs, lcms, t)

        monkeypatch.setattr(engine, "_update_pairs", spy)
        assert max_gb_deg(oracle) > 4
        for cap in range(3, max_gb_deg(oracle)):
            degrees.clear()
            loop = engine._DegreeLoop(system)
            assert loop.basis(cap) == oracle
            assert loop.top == cap and not loop.complete
            assert degrees and min(degrees) > cap, cap

    @pytest.mark.parametrize("sampler", [sample_system, corner_system])
    def test_a_stop_below_the_top_generator_degree_is_exact(self, f31, monkeypatch, sampler):
        # with a budget that stops the loop at degree 2, below the cubics,
        # the rows and the generators of degrees 3 on go to Buchberger's
        # loop, and every entry gives the basis and the report it gave
        system = sampler(5, 5, (1, 2, 3, 3, 3), f31, seed=0)
        oracle = buchberger(system)
        report = analysis.verify_main_theorem(system, seed=0)
        route, cap = analysis._default_route(system)
        assert route == "macaulay"
        loops, real_loop = [], engine._DegreeLoop

        def spy(s):
            loops.append(real_loop(s))
            return loops[-1]

        monkeypatch.setattr(engine, "_DegreeLoop", spy)
        monkeypatch.setattr(analysis, "_DegreeLoop", spy)
        monkeypatch.setattr(engine, "MAX_MACAULAY_CELLS", 1000)
        assert gb_up_to(system, cap) == oracle
        assert analysis.groebner_basis(system) == oracle
        assert analysis.verify_main_theorem(system, seed=0) == report
        assert loops and all(loop.top == 2 and not loop.complete for loop in loops)


@st.composite
def basis_cases(draw):
    """A dense or Z system over F_2, F_3 or F_31, of any dimension."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 31))))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n + 1))
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    sampler = draw(st.sampled_from((sample_system, sample_Z_system)))
    return sampler(n, m, degrees, fld, seed=draw(st.integers(0, 2**32)))


class TestLeadingMonomialIdeal:
    @settings(max_examples=150, deadline=None)
    @given(basis_cases())
    def test_packed_keys_match_the_leading_monomials(self, system):
        # the ideal is read from the packed leading keys the engine kept,
        # not from the elements' sorted terms
        basis = buchberger(system)
        lm = leading_monomial_ideal(basis)
        expected = minimalize(basis.leading_monomials(), system.n)
        assert lm == expected
        assert lm.gens == expected.gens
        assert set(lm.gens) == set(basis.leading_monomials())


@st.composite
def inhomogeneous_systems(draw):
    """Up to three polynomials of mixed degrees in one to three variables
    over F_2, F_3, F_31 or F_(2^31-1)."""
    p = draw(st.sampled_from((2, 3, 31, 2**31 - 1)))
    n = draw(st.integers(1, 3))
    fld = PrimeField(p)
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    polys = draw(st.lists(
        st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=4),
        min_size=1, max_size=3,
    ))
    return PolySystem(fld, n, tuple(Polynomial(fld, n, f) for f in polys))


class TestMaxGbDegFromKeys:
    # max_gb_deg reads the least leading key; DRL is graded, so that is the
    # largest degree of an element

    @settings(max_examples=100, deadline=None)
    @given(basis_cases())
    def test_both_engines(self, system):
        for basis in (buchberger(system), gb_up_to(system, max(system.degrees))):
            assert max_gb_deg(basis) == max(g.degree() for g in basis.elements)

    @settings(max_examples=100, deadline=None)
    @given(inhomogeneous_systems())
    def test_inhomogeneous_buchberger(self, system):
        basis = buchberger(system)
        assert max_gb_deg(basis) == max(g.degree() for g in basis.elements)


def built_degrees(system, cap):
    """The basis gb_up_to returns at ``cap``, and the degrees it
    eliminates."""
    with pytest.MonkeyPatch.context() as mp, eliminations(mp) as seen:
        basis = gb_up_to(system, cap)
    return basis, [echelon.degree for echelon in seen]


@st.composite
def exit_cases(draw):
    """A dense, Z, mixed-degree, sparse or power-led system over F_2, F_3 or
    F_31, Artinian or not, and a cap from its largest generator degree to
    the Lazard bound + 2.  Sparse generators (one to three terms), or a pure
    power of each variable ahead of dense ones, give initial ideals that hold
    a power of every variable before the last degree, so the cover test, not
    its pure-power pre-test, decides."""
    fld = PrimeField(draw(st.sampled_from((2, 3, 31))))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n + 2))
    kind = draw(st.sampled_from(("dense", "Z", "mixed", "sparse", "powers")))
    if kind in ("mixed", "sparse", "powers"):
        degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    else:
        degrees = (draw(st.integers(1, 3)),) * m
    if kind == "sparse":
        coeff = st.integers(1, fld.p - 1)
        polys = tuple(
            Polynomial(fld, n, draw(st.dictionaries(
                st.sampled_from(monomials_of_degree(n, d)), coeff, min_size=1, max_size=3
            )))
            for d in degrees
        )
        system = PolySystem(fld, n, polys)
    else:
        sampler = sample_Z_system if kind == "Z" else sample_system
        system = sampler(n, m, degrees, fld, seed=draw(st.integers(0, 2**32)))
    if kind == "powers":
        exps = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
        powers = tuple(
            Polynomial(fld, n, {tuple(e * (j == i) for j in range(n)): 1}) for i, e in enumerate(exps)
        )
        k = draw(st.integers(0, 1))  # with no other generator R/I is Gorenstein
        system = PolySystem(fld, n, powers + system.polys[:k])
        m, degrees = n + k, tuple(exps) + degrees[:k]
    cap = draw(st.integers(max(degrees), lazard_bound(n, m, degrees) + 2))
    return system, cap


class TestCoverExit:
    @settings(max_examples=120, deadline=None)
    @given(exit_cases())
    def test_stops_at_the_first_covered_degree(self, case):
        # degree d is skipped, with every degree above it, iff every degree-d
        # monomial is a multiple of a basis element of lower degree: d lies
        # above the basis and HF(d) = 0, read from the oracle's leading ideal
        system, cap = case
        oracle = buchberger(system)
        basis, built = built_degrees(system, cap)
        assert basis == oracle and basis.keys == oracle.keys
        lm = leading_monomial_ideal(oracle)
        top = max_gb_deg(oracle)
        stop = next((d for d in range(top + 1, cap + 1) if hilbert_function(lm, d) == 0), cap + 1)
        assert built == list(range(min(system.degrees), stop))
        if krull_dim(lm) > 0:  # never covered: every degree up to the cap
            assert built == list(range(min(system.degrees), cap + 1))

    @pytest.mark.parametrize("n, m, built", [(5, 6, [2, 3, 4]), (6, 7, [2, 3, 4]), (6, 6, [2, 3, 4, 5, 6, 7])])
    def test_dense_quadrics_at_the_lazard_cap(self, f31, n, m, built):
        # 5/6 and 6/7 stop after degree 4; this 6/6 has a degree-7 basis
        # element (the regularity), so degree 7 is eliminated
        system = sample_system(n, m, (2,) * m, f31, seed=1)
        basis, seen = built_degrees(system, lazard_bound(n, m, system.degrees))
        assert seen == built and max_gb_deg(basis) == built[-1]
        assert basis == buchberger(system)

    def test_squares_skip_the_last_matrix(self, f31):
        # x_i^2 in six variables: HF(7) = 0 with a basis of degree 2, so the
        # Lazard cap's degree 7 is never eliminated, and no pair is formed
        squares = tuple(Polynomial(f31, 6, {tuple(2 * (j == i) for j in range(6)): 1}) for i in range(6))
        system = PolySystem(f31, 6, squares)
        basis, seen = built_degrees(system, 7)
        assert seen == [2, 3, 4, 5, 6] and basis.elements == squares

    def test_z_systems_build_every_degree(self, f31):
        system = sample_Z_system(4, 5, (2,) * 5, f31, seed=1)
        assert built_degrees(system, 7)[1] == [2, 3, 4, 5, 6, 7]


def hilbert_walk(system, cap, numerator):
    """The basis a degree loop given the Hilbert numerator ``numerator``
    returns at ``cap``, the degrees it eliminates, and how many
    S-polynomials it forms."""
    spolys = []
    real = engine._spoly
    with pytest.MonkeyPatch.context() as mp, eliminations(mp) as seen:
        mp.setattr(engine, "_spoly", lambda *args: spolys.append(args) or real(*args))
        loop = engine._DegreeLoop(system)
        loop.walk(cap, numerator)
        basis = loop.basis(cap)
    return basis, [echelon.degree for echelon in seen], len(spolys)


class TestHilbertExit:
    @settings(max_examples=120, deadline=None)
    @given(exit_cases())
    def test_stops_at_the_largest_basis_degree(self, case):
        # given HS(R/I), the loop stops after max.GB.deg(I), the first degree
        # whose leads have that series, with no S-pair; a basis above the cap
        # is walked to the cap and finished by the pairs, as without it
        system, cap = case
        oracle = buchberger(system)
        top = max_gb_deg(oracle)
        numerator = hilbert_numerator(leading_monomial_ideal(oracle))
        basis, built, spolys = hilbert_walk(system, cap, numerator)
        assert basis == oracle and basis.keys == oracle.keys
        assert built == list(range(min(system.degrees), min(top, cap) + 1))
        if top <= cap:
            assert spolys == 0

    def test_z_system_stops_below_the_cap(self, f31):
        # R/I has dimension 1, so the cover never comes: without the numerator
        # the loop walks to the cap and hands its rows to the pair loop
        system = sample_Z_system(4, 5, (2,) * 5, f31, seed=1)
        oracle = buchberger(system)
        numerator = hilbert_numerator(leading_monomial_ideal(oracle))
        basis, built, spolys = hilbert_walk(system, 7, numerator)
        assert basis == oracle and spolys == 0
        assert built == list(range(2, max_gb_deg(oracle) + 1)) and built[-1] < 7
        assert built_degrees(system, 7)[1] == [2, 3, 4, 5, 6, 7]

    def test_the_pre_test_alone_does_not_stop(self, f31, monkeypatch):
        # <x1^2, x2^4> in three variables: after degree 2, HF_{R/J}(3) = 7 =
        # HF_{R/I}(3), yet J = <x1^2> lacks x2^4, and the numerators tell
        # them apart; degree 3 adds no lead and is not asked
        system = PolySystem(f31, 3, tuple(Polynomial(f31, 3, {e: 1}) for e in ((2, 0, 0), (0, 4, 0))))
        numerator = hilbert_numerator(leading_monomial_ideal(buchberger(system)))
        asked = []
        real = engine.hilbert_numerator
        monkeypatch.setattr(engine, "hilbert_numerator", lambda J: asked.append(J.gens) or real(J))
        basis, built, spolys = hilbert_walk(system, 6, numerator)
        assert basis.elements == system.polys and built == [2, 3, 4] and spolys == 0
        assert asked == [((2, 0, 0),), ((0, 4, 0), (2, 0, 0))]
