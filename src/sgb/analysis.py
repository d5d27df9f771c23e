"""Semi-regularity certification, structural position checks, the linear-form
coordinate change, the end-to-end degree-bound verifier, and random samplers.

The verifier realizes the inequality chain

    max.GB.deg(I^sigma)  <=  max{d_reg(<I, l>), gen_d_reg(I)}  <=  D(n, m)

for homogeneous ideals with Krull dimension <= 1, together with the equality
case for weakly reverse lexicographic leading-term ideals and the m = n - 1
regular-sequence law.  All Hilbert data is exact; nothing is sampled.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass

from .core import (
    LinearChange,
    PolySystem,
    Polynomial,
    _packed_monomials,
    _packing,
    apply_to_system,
    monomials_of_degree,
)
from .engine import (
    MAX_LOOP_DEGREES,
    GroebnerBasis,
    _check_system,
    _DegreeLoop,
    buchberger,
    leading_monomial_ideal,
)
from .errors import (
    CapExhausted,
    DegreeTooSmall,
    DimensionMismatch,
    DimensionTooHigh,
    InvariantViolation,
    NotHomogeneous,
    NotLinear,
    SearchExhausted,
    SgbError,
    UndefinedBound,
    UnitIdeal,
    ZeroForm,
)
from .hilbert import HilbertProfile, MonomialIdeal, krull_dim, regularity_profile
from .series import (
    _times_one_minus_z, bound_report, degree_bound_Dnm, degree_product, lazard_bound, poly_sub,
    poly_trim,
)

# ---------------------------------------------------------------------------
# exact Hilbert data of a polynomial ideal
# ---------------------------------------------------------------------------


# Fewest monomials of degree top + 1, for top the largest generator degree,
# at which the default route eliminates: quadrics in n >= 5, cubics in
# n >= 4.  The CPU time of run_experiment with the loop forced over that on
# the default route, per cell of the experiment-batch grid (dense and Z
# quadrics over F_q, q in {2, 3, 7, 31}, 4 seeds x 5 trials, best of 5,
# alternating, two runs, records equal): n = 3 (10 monomials) 1.62-2.32, 4/4
# (20) 0.83-1.43, 4/5 0.70-1.69, those cells 1.30-1.34.  Cubics in n = 3..5
# (15, 35, 70) read 0.25-0.44, 0.67-1.20, 1.43-4.36 earlier, Buchberger over loop.
_ELIMINATION_MIN_MONOMIALS = 35


def _default_route(system: PolySystem) -> tuple[str, int | None]:
    """Engine and cap of ``groebner_basis``'s default route for ``system``.

    A system that the degree loop takes (``engine._check_system``) and whose
    degree top + 1 has at least ``_ELIMINATION_MIN_MONOMIALS`` monomials goes
    to the Macaulay engine at the cap D(n, m) (the Lazard bound where D is
    undefined, and never below top), unless the loop would walk more than
    ``MAX_LOOP_DEGREES`` degrees up to it; a walk that meets the loop's
    other limits hands over below the cap.  Every other system goes to the
    Buchberger oracle, which raises the typed error of each system it
    refuses too.  The verifier routes I and I^sigma the same way, and on the
    Macaulay route reads HS(R/I) and the linear form off I's loop
    (``_ideal_for_search``).  The route depends only on n and the degrees,
    so a system and its image under a linear change share it.
    """
    try:
        _check_system(system, eliminate=True)
    except SgbError:
        return "buchberger", None
    degrees = system.degrees
    n, m, top = system.n, system.m, max(degrees)
    if math.comb(n + top, top + 1) < _ELIMINATION_MIN_MONOMIALS:
        return "buchberger", None
    try:
        cap = degree_bound_Dnm(n, m, degrees)
    except (UndefinedBound, CapExhausted):
        cap = lazard_bound(n, m, degrees)
    cap = max(cap, top)
    if cap - min(degrees) >= MAX_LOOP_DEGREES:
        return "buchberger", None
    return "macaulay", cap


def groebner_basis(system: PolySystem) -> GroebnerBasis:
    """Complete reduced basis of ``system`` by its default route
    (``_default_route``): the Macaulay engine at the cap D(n, m) for
    systems with enough monomials above their top degree, and the
    Buchberger oracle for the rest, including every system a typed error
    rejects.  Both engines give the same basis; a caller that names one
    calls ``buchberger`` or ``gb_up_to``.  The degree loop of an Artinian
    system stops by the cover test with no pair reduced."""
    engine, cap = _default_route(system)
    if engine == "buchberger":
        return buchberger(system)
    return _DegreeLoop(system).basis(cap)


def _hilbert_of_basis(basis: GroebnerBasis) -> tuple[MonomialIdeal, HilbertProfile]:
    lm = leading_monomial_ideal(basis)
    if lm.is_unit():
        raise UnitIdeal("ideal contains a nonzero constant")
    return lm, regularity_profile(lm)


def exact_hilbert_of_ideal(system: PolySystem) -> tuple[MonomialIdeal, HilbertProfile]:
    """Leading-monomial ideal of the complete reduced basis plus its exact
    profile."""
    if not system.homogeneous:
        raise NotHomogeneous("exact Hilbert data needs a homogeneous system")
    return _hilbert_of_basis(groebner_basis(system))


def _profile_with_xn(lm: MonomialIdeal) -> HilbertProfile:
    """Profile of <J, x_n> from ``lm`` = LM(J), with no basis of <J, x_n>.

    For a homogeneous J under DRL with x_n last, in(J + <x_n>) = in(J) +
    <x_n> (Bayer-Stillman 1987, "A criterion for detecting m-regularity",
    Lemma 2.2).
    """
    xn = _packing(lm.n).variable(lm.n - 1)
    return regularity_profile(MonomialIdeal.generated_by(lm.n, lm.keys + (xn,)))


# ---------------------------------------------------------------------------
# semi-regularity certification through Hilbert series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of comparing the exact Hilbert series against the generic one.

    ``first_defect_degree`` is the least degree where the exact series and
    prod(1 - z^(d_j)) / (1 - z)^n differ (None if they agree identically).
    ``cryptographic``/``generalized`` are None where not applicable.
    """

    d_checked: int
    is_d_regular: bool
    cryptographic: bool | None
    generalized: bool | None
    first_defect_degree: int | None


def first_defect_degree(profile: HilbertProfile, degrees) -> int | None:
    """Least degree where HS_{R/I} deviates from the generic series.

    Both series share the denominator (1 - z)^n, so the deviation point is
    the lowest nonzero coefficient of the numerator difference.
    """
    diff = poly_sub(list(profile.numerator), degree_product(degrees))
    for k, c in enumerate(diff):
        if c:
            return k
    return None


def _certification(profile: HilbertProfile, degrees) -> CertificationReport:
    defect = first_defect_degree(profile, degrees)
    r = profile.krull_dim
    min_domain = max(degrees)

    def regular_to(d):
        return defect is None or defect >= d

    # r = 0: the series check at d_reg coincides with the closed-form
    # criterion (at the first defect the exact side is larger, so the series
    # coefficient there is negative and the truncation stops); degenerate
    # d_reg below the largest generator degree is harmless here.
    cryptographic = regular_to(profile.d_reg) if r == 0 else None
    if r == 0:
        generalized = cryptographic
        d_checked = profile.d_reg
    elif r == 1:
        # d-regularity is only defined from the largest generator degree on;
        # a stabilization degree below that must be certified at the floor,
        # otherwise dependent low-degree generators certify vacuously and
        # the degree bound they feed is unsound
        d_checked = max(profile.gen_d_reg, min_domain)
        generalized = regular_to(d_checked)
    else:
        generalized = None
        d_checked = min_domain
    return CertificationReport(
        d_checked=d_checked,
        is_d_regular=regular_to(d_checked),
        cryptographic=cryptographic,
        generalized=generalized,
        first_defect_degree=defect,
    )


def certify_d_regular(system: PolySystem, d: int) -> bool:
    """True iff the exact Hilbert function equals the generic series
    coefficients in every degree below ``d``."""
    if d < max(system.degrees):
        raise DegreeTooSmall(f"d-regularity needs d >= max degree {max(system.degrees)}")
    _, profile = exact_hilbert_of_ideal(system)
    defect = first_defect_degree(profile, system.degrees)
    return defect is None or defect >= d


def certify_semiregular(system: PolySystem) -> CertificationReport:
    """Certify both semi-regularity notions from the exact Hilbert series."""
    _, profile = exact_hilbert_of_ideal(system)
    return _certification(profile, system.degrees)


def is_regular_sequence(system: PolySystem) -> bool:
    """Exact check of the regular-sequence Hilbert identity
    HS_{R/I} = prod(1 - z^(d_j)) / (1 - z)^n."""
    _, profile = exact_hilbert_of_ideal(system)
    return first_defect_degree(profile, system.degrees) is None


# ---------------------------------------------------------------------------
# structural position checks
# ---------------------------------------------------------------------------


def check_noether_position(lm: MonomialIdeal, r: int) -> bool:
    """True iff each of x_1 .. x_{n-r} has a pure power among the generators:
    one whose support is the guard bit of that variable alone."""
    pack = _packing(lm.n)
    supports = set(map(pack.support, lm.keys))
    return all(1 << (s + pack.bits - 1) in supports for s in pack.shifts[: lm.n - r])


def check_weakly_revlex(lm: MonomialIdeal) -> bool:
    """True iff every same-degree monomial preceding a minimal generator also
    lies in the ideal.

    The monomials preceding a generator include those preceding every larger
    generator of its degree, so each degree d is checked once, at its largest
    key, against the generators of degree <= d: the keys from -d 2^(32 n) on.
    """
    pack = _packing(lm.n)
    guard, keys = pack.guard, lm.keys
    smallest = {pack.degree(g): g for g in keys}
    for d, g in smallest.items():
        monoms = _packed_monomials(lm.n, d)
        below = keys[bisect.bisect_left(keys, -d * pack.unit):]
        last = below[0]  # neighbouring monomials tend to share a divisor
        for t in monoms[: bisect.bisect_left(monoms, g)]:
            top = t | guard
            if (top - last) & guard == guard:
                continue
            for h in below:
                if (top - h) & guard == guard:
                    last = h
                    break
            else:
                return False
    return True


# ---------------------------------------------------------------------------
# linear form and coordinate change (sigma)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositionChange:
    """A linear form avoiding the projective zeros, with the variable change
    sending it to the last variable.

    ``pivot_index`` is the 0-based index of the form's chosen pivot variable;
    ``ell`` is normalized so the pivot coefficient is 1, which makes
    ``apply_linear_change(ell, sigma) == x_n`` exact.
    """

    ell: Polynomial
    pivot_index: int
    sigma: LinearChange
    attempts_used: int


def _coefficients(ell: Polynomial) -> list:
    """The coefficient of each variable in the linear form ``ell``."""
    coeffs = [0] * ell.n
    for m, c in ell.coeffs.items():
        coeffs[m.index(1)] = c
    return coeffs


def build_sigma(ell: Polynomial) -> LinearChange:
    """Change of variables sending the linear form to x_n: a swap of the
    pivot and x_n, then a shear of the last column.  Its matrix is the
    product of the two, written directly: the shear matrix, with columns
    ``pivot`` and n - 1 swapped because the swap acts first."""
    ell, pivot = normalized_form(ell)
    fld, n = ell.field, ell.n
    moved = _coefficients(ell)
    moved[pivot], moved[n - 1] = moved[n - 1], moved[pivot]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(rows):
        if i < n - 1:
            row[n - 1] = -moved[i] % fld.p
        row[pivot], row[n - 1] = row[n - 1], row[pivot]
    note = "shear last column"
    if pivot != n - 1:
        note = f"swap x{pivot + 1} and x{n}, then {note}"
    return LinearChange(fld, rows, note)


def normalized_form(ell: Polynomial) -> tuple[Polynomial, int]:
    """Scale so the largest-index nonzero coefficient becomes 1."""
    if ell.is_zero():
        raise ZeroForm("zero form")
    if not ell.is_linear_form():
        raise NotLinear("expected a homogeneous linear form")
    coeffs = _coefficients(ell)
    pivot = max(i for i, c in enumerate(coeffs) if c)
    return ell.scale(ell.field.inv(coeffs[pivot])), pivot


def _counted_profile(values, n: int) -> HilbertProfile:
    """Profile of R/J in n variables from ``values``, HF_{R/J}(0..m) for a
    degree m from which HF_{R/J} is constant: HS(R/J) = sum_{d<m} HF(d) z^d
    + HF(m) z^m / (1 - z).  For HF(m) = 0, R/J is Artinian and h = values;
    else it has Krull dimension 1 and h = values (1 - z), cut at degree m."""
    r = int(values[-1] > 0)
    h = poly_trim(_times_one_minus_z(list(values), (1,) * r))
    numerator = _times_one_minus_z(h + [0] * (n - r), (1,) * (n - r))
    stable = len(h) - r
    d_reg, constant = (None, values[-1]) if r else (stable, None)
    return HilbertProfile(tuple(numerator), r, tuple(h), stable, d_reg, stable, constant)


def _extension_profile(hf, lazard: int, n: int, at_lazard: bool) -> HilbertProfile | None:
    """The profile of <I, l> when R/<I, l> is Artinian, else None, from
    ``hf``, d -> HF_{R/<I, l>}(d) for 1 <= d <= ``lazard``, the Lazard degree
    of <I, l>, with no basis of <I, l>.  An Artinian <I, l> has HF zero at
    the Lazard degree (Lazard 1983; HF is the same over the algebraic
    closure of F_p), and HF stays 0 above a zero: the values from degree 1
    up accept at the first zero, with HF(0) = 1, and a nonzero value at the
    Lazard degree rejects, asked first ``at_lazard`` (I's loop stands there)."""
    if at_lazard and hf(lazard):
        return None
    values = [1, *itertools.takewhile(bool, map(hf, range(1, lazard)))]
    if len(values) == lazard and not at_lazard and hf(lazard):
        return None
    return _counted_profile(values + [0], n)


class _LoopFallsShort(Exception):
    """I's degree loop cannot settle the search (``_extension_test``)."""


def _leads_gate(loop: _DegreeLoop, lazard: int) -> bool:
    """Whether I's loop, walked to the Lazard degree, shows dim R/I <= 1 (leads lie in in(I))."""
    loop.walk(lazard)
    return loop.covered is not None or loop.top >= lazard and krull_dim(loop.leads()) <= 1


def _extension_test(system: PolySystem, loop: _DegreeLoop | None, lm: MonomialIdeal | None = None):
    """A function from a linear form l to the profile of <I, l> when R/<I, l>
    is Artinian, else to None.  l is rejected with no rank or basis if l_j =
    0 for a coordinate point e_j where every generator vanishes: e_j lies in
    V(<I, l>).  Given ``lm`` = LM(I), x_n takes the profile of in(I) + <x_n>.
    Else ``_extension_profile`` reads I's ``loop``, walked only to the degree
    it reads: the x_n-free standard counts, or multiplication on R/I
    (``_DegreeLoop.extension_hf``).  With no ``lm``, a walk the budget stops,
    or a rejection that ``_leads_gate`` leaves open, raises ``_LoopFallsShort``;
    given ``lm``, l goes to buchberger if no loop stands at the Lazard degree or its cover."""
    n = system.n
    lazard = lazard_bound(n, system.m, system.degrees)  # that of <I, l> too
    # f(e_j) is the coefficient of x_j^(deg f) in f
    zeros = [j for j in range(n) if not any(f.coeffs.get(tuple(d * (i == j) for i in range(n)))
                                            for f, d in zip(system.polys, system.degrees))]
    on_loop = loop is not None and (lm is None or loop.covered is not None or loop.top >= lazard)
    gate = functools.cache(lambda: lm is not None or _leads_gate(loop, lazard))

    def test(ell):
        coeffs = _coefficients(ell)
        if any(not coeffs[j] for j in zeros):
            return None
        xn = not any(coeffs[:-1])
        if xn and lm is not None:
            return _profile_with_xn(lm)
        if not on_loop:
            profile = _hilbert_of_basis(buchberger(system.extended(ell)))[1]
            return profile if profile.artinian else None

        def hf(d):
            loop.walk(d)
            if loop.covered is None and loop.top < d:
                raise _LoopFallsShort(f"the budget stopped I's loop short of degree {d}")
            return loop.hf(d, xn_free=True) if xn else loop.extension_hf(coeffs, d)

        profile = _extension_profile(hf, lazard, n, loop.covered is not None or loop.top >= lazard)
        if profile is None and not gate():
            raise _LoopFallsShort("the leads walked to the Lazard degree leave dim R/I open")
        return profile

    return test


def _search_linear_form(system, extension, seed, max_attempts):
    """The position change of the first admissible candidate and the
    profile of <I, l>, for dim R/I <= 1: x_n, x_(n-1), ..., x_1, then seeded
    random forms, each tested by ``extension`` (``_extension_test``)."""
    fld, n = system.field, system.n
    rng = random.Random(seed)

    def candidates():
        for i in reversed(range(n)):
            yield Polynomial.variable(fld, n, i)
        while True:
            vec = [rng.randrange(fld.p) for _ in range(n)]
            if any(vec):
                yield Polynomial.linear_form(fld, vec)

    for attempts, ell in enumerate(itertools.islice(candidates(), max_attempts), 1):
        ext_profile = extension(ell)
        if ext_profile is not None and ext_profile.artinian:
            ell, pivot = normalized_form(ell)
            pos = PositionChange(ell, pivot, build_sigma(ell), attempts)
            return pos, ext_profile
    raise SearchExhausted(
        f"no admissible linear form in {max_attempts} attempts; "
        "the field may have fewer elements than the ideal has projective zeros"
    )


def _loop_profile(loop: _DegreeLoop, start: int, lazard: int) -> HilbertProfile | None:
    """HS(R/I) counted on I's degree loop once a form l is accepted, with no
    basis of I, at the least m >= ``start`` = max(top generator degree,
    d_reg(<I, l>)) where l is injective from (R/I)_m to (R/I)_{m+1}; None
    if no m up to ``lazard``, the Lazard degree, has it with the loop short
    of its cover, or the walk stops before m + 1.  The loop walks only to
    the degree m + 1 it reads.  HF_{R/<I, l>} is 0 from m on, so l
    maps (R/I)_m onto (R/I)_{m+1}, and injectivity, HF_{R/I}(m + 1) -
    HF_{R/<I, l>}(m + 1) = HF_{R/I}(m), reads HF_{R/I}(m + 1) = HF_{R/I}(m).
    Then HF_{R/I} stays HF_{R/I}(m) from m on (``_counted_profile``) by the
    "if" direction of Bayer-Stillman 1987 ("A criterion for detecting
    m-regularity", Theorem 1.10, j = 1, h_1 = l), for any linear form over
    any field:

    I is generated in degrees <= m, (I + <l>)_d = R_d for d >= m, and
    injectivity at m is (I : l)_m = I_m.  Let (I : l)_d = I_d, d >= m, and f
    in R_{d+1} with l f in I; write f = sum_i x_i f_i, f_i in R_d.  As
    I_{d+2} = R_1 I_{d+1}, l f = sum_i x_i g_i with g_i in I_{d+1}, so the
    l f_i - g_i are a syzygy of x_1 .. x_n: l f_i - g_i = sum_j x_j a_ij,
    a_ij = -a_ji in R_d (the Koszul relations generate them).  Split a_ij =
    b_ij + l c_ij with b_ij in I_d, c_ij in R_{d-1}, both antisymmetric.
    Then l (f_i - sum_j x_j c_ij) = g_i + sum_j x_j b_ij is in I, so f_i -
    sum_j x_j c_ij is in (I : l)_d = I_d, and f = sum_i x_i (f_i - sum_j x_j
    c_ij), the c_ij cancelling in pairs, is in I.  So (I : l)_d = I_d for
    every d >= m: l is injective from (R/I)_d, and onto (R/I)_{d+1}.
    """
    for m in itertools.count(start):
        if loop.covered is None and m > lazard:  # from the cover on HF is 0
            return None
        loop.walk(m + 1)
        if loop.covered is None and loop.top <= m:
            return None
        if loop.hf(m + 1) == loop.hf(m):
            return _counted_profile([loop.hf(d) for d in range(m + 1)], loop.pack.n)


def _ideal_for_search(system: PolySystem, seed: int, max_attempts: int):
    """I's basis (None if none was built), I's degree loop and the cap of
    its route (both None on Buchberger's route), the profile of R/I, the
    position change and the profile of <I, l>.  NotHomogeneous and SgbError
    (``max_attempts`` < 1) come before any elimination, DimensionTooHigh
    (dim R/I >= 2: no single form can work) before SearchExhausted.

    On the Macaulay route the candidates are tested on I's loop, walked
    only as far as each test reads (``_extension_test``), and HS(R/I) is
    counted on it (``_loop_profile``), with no basis of I.  An accepted l
    shows dim R/I <= 1, as dim R/<I, l> >= dim R/I - 1; the leads gate is
    asked at the first rejection at the Lazard degree and when the attempts
    run out.  Where the budget stops the walk, the gate fails, or the loop
    leaves HS(R/I) open, I's basis comes from the loop, and LM(I) gives the
    profile, the dimension check and x_n, as on Buchberger's route."""
    if not system.homogeneous:
        raise NotHomogeneous("the degree bounds apply to homogeneous ideals")
    if max_attempts < 1:
        raise SgbError(f"max_attempts must be >= 1, got {max_attempts}")
    engine, cap = _default_route(system)
    loop = None if engine == "buchberger" else _DegreeLoop(system)
    found = profile = None
    if loop is not None:
        lazard = lazard_bound(system.n, system.m, system.degrees)
        try:
            found = _search_linear_form(system, _extension_test(system, loop), seed, max_attempts)
            profile = _loop_profile(loop, max(max(system.degrees), found[1].d_reg), lazard)
        except SearchExhausted:
            if _leads_gate(loop, lazard):
                raise
        except _LoopFallsShort:
            pass
    if profile is not None:
        return None, loop, cap, profile, *found
    basis = buchberger(system) if loop is None else loop.basis(cap)
    lm, profile = _hilbert_of_basis(basis)
    if profile.krull_dim >= 2:
        raise DimensionTooHigh(f"Krull dimension {profile.krull_dim} >= 2: no single form can work")
    extension = _extension_test(system, loop, lm)
    found = found or _search_linear_form(system, extension, seed, max_attempts)
    return basis, loop, cap, profile, *found


def find_linear_form(
    system: PolySystem,
    seed: int = 0,
    max_attempts: int = 64,
) -> PositionChange:
    """Search for a linear form l with R/<I, l> Artinian.

    Tries x_n, x_{n-1}, ..., x_1 first, then seeded random forms.  Raises
    SearchExhausted when the budget runs out (the field may be too small)
    and DimensionTooHigh when R/I itself has dimension >= 2.
    """
    return _ideal_for_search(system, seed, max_attempts)[4]


# ---------------------------------------------------------------------------
# the end-to-end theorem verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Per-system verification record for the full inequality chain.

    When the hypotheses hold (dimension <= 1, generalized semi-regular),
    ``ineq_max_gb`` and ``ineq_D_nm`` are theorems: a False value signals an
    implementation bug.  ``engine`` names the default route of I and
    I^sigma: ``macaulay``, the degree loop, or ``buchberger``, then the only engine run.
    """

    n: int
    m: int
    degrees: tuple
    q: int
    krull_dim: int
    ell: Polynomial | None
    sigma: LinearChange | None
    attempts_used: int
    d_reg_ell: int | None
    gen_d_reg: int | None
    max_gb_deg_sigma: int | None
    D_nm: int | None
    lazard: int
    ineq_max_gb: bool | None
    ineq_D_nm: bool | None
    weakly_revlex: bool | None
    artinian_after_sigma: bool | None
    equality_attained: bool | None
    m_n_minus_1_law: bool | None
    semiregular: CertificationReport
    engine: str

    @property
    def hypotheses_verified(self) -> bool:
        return self.krull_dim <= 1 and self.semiregular.generalized is True


def verify_main_theorem(
    system: PolySystem,
    seed: int = 0,
    max_attempts: int = 64,
) -> TheoremReport:
    """Run the whole pipeline on one homogeneous system and fill every flag.

    Every basis is complete and reduced.  I and I^sigma take the default
    route (``_default_route``), which depends only on the shape, so
    ``TheoremReport.engine`` names one engine.  A basis that needs more than
    ``engine.MAX_S_PAIRS`` S-pair reductions raises BudgetExhausted, at the
    same pair for a fixed input; on the Macaulay route only the pairs of
    Buchberger's loop after the handover at the cap count.

    On the Macaulay route I's degree loop, walked only as far as the search
    and the count read, gives the linear form and HS(R/I), Artinian or of
    Krull dimension 1, with no basis of I (``_ideal_for_search``); elsewhere
    LM(I) gives HS(R/I) and x_n.  sigma is invertible, so HS(R/I^sigma) =
    HS(R/I), and the degree loop of I^sigma, or I's when sigma is the
    identity, walks with that numerator to its cap or stops earlier,
    complete, by its cover or at max.GB.deg(I^sigma) by the Hilbert exit
    (``engine._DegreeLoop.walk``).  A complete loop gives LM(I^sigma)
    (``_DegreeLoop.leads``), max.GB.deg(I^sigma) as the degree of its least
    key (DRL is graded), and the weakly reverse-lex flag, with no basis of
    I^sigma.  Only an incomplete loop, by the handover at its cap
    (``_DegreeLoop.basis``), and Buchberger's route build that basis, and
    ``check_weakly_revlex`` scans its leading monomials.  This uses the
    exact series of I, not the theorem, so ``ineq_max_gb`` stays a check.

    No basis of <I^sigma, x_n> is computed: in(J + <x_n>) = in(J) + <x_n>
    for J = I^sigma (Bayer-Stillman 1987, Lemma 2.2), so d_reg(<I^sigma,
    x_n>) == d_reg(<I, l>) compares LM(I^sigma) with the test of l
    (``_extension_test``).  A run on the Macaulay route computes no basis
    unless a loop is left incomplete at its cap, I's loop leaves dim R/I or
    HS(R/I) open, or the cell budget cuts its walk short; on Buchberger's
    route it computes those of I, of I^sigma for sigma not the identity and
    of <I, l> per candidate after x_n that vanishes at no coordinate zero of I.
    """
    basis, loop, cap, profile, pos, ext_profile = _ideal_for_search(system, seed, max_attempts)
    n, m, degrees = system.n, system.m, system.degrees
    semireg = _certification(profile, degrees)
    gen_d_reg = profile.gen_d_reg
    d_reg_ell = ext_profile.d_reg

    identity = pos.sigma.is_identity()  # then the normalized l is x_n
    if identity:
        image, basis_sigma, loop_sigma = system, basis, loop
    else:
        # I^sigma takes I's route and cap: they depend on the shape only
        image, basis_sigma = apply_to_system(system, pos.sigma), None
        loop_sigma = None if loop is None else _DegreeLoop(image)
    if loop_sigma is not None and basis_sigma is None:
        # HS(R/I^sigma) = HS(R/I), which lets the loop stop at max.GB.deg
        loop_sigma.walk(cap, profile.numerator)
    if loop_sigma is not None and loop_sigma.complete:
        lm_sigma, weakly = loop_sigma.leads(), loop_sigma.weakly_revlex()
    else:
        if basis_sigma is None:
            basis_sigma = buchberger(image) if loop_sigma is None else loop_sigma.basis(cap)
        lm_sigma = leading_monomial_ideal(basis_sigma)
        weakly = check_weakly_revlex(lm_sigma)
    sigma_xn_profile = ext_profile if identity else _profile_with_xn(lm_sigma)
    # DRL is graded, so the least key of LM(I^sigma) has the largest degree
    gb_deg_sigma = _packing(n).degree(lm_sigma.keys[0])
    artinian_after_sigma = sigma_xn_profile.krull_dim == 0
    if artinian_after_sigma and sigma_xn_profile.d_reg != d_reg_ell:
        raise InvariantViolation(
            "d_reg(<I^sigma, x_n>) must match d_reg(<I, l>) "
            f"({sigma_xn_profile.d_reg} vs {d_reg_ell})"
        )

    bounds = bound_report(n, m, degrees)
    rhs = max(d_reg_ell, gen_d_reg)
    ineq_max_gb = gb_deg_sigma <= rhs
    ineq_D_nm = None if bounds.D_nm is None else rhs <= bounds.D_nm
    equality = (gb_deg_sigma == rhs) if (weakly and artinian_after_sigma) else None

    m_n_minus_1_law = None
    if m == n - 1 and first_defect_degree(ext_profile, degrees + (1,)) is None:
        m_n_minus_1_law = gen_d_reg == d_reg_ell - 1 == sum(d - 1 for d in degrees)

    return TheoremReport(
        n=n,
        m=m,
        degrees=degrees,
        q=system.field.p,
        krull_dim=profile.krull_dim,
        ell=pos.ell,
        sigma=pos.sigma,
        attempts_used=pos.attempts_used,
        d_reg_ell=d_reg_ell,
        gen_d_reg=gen_d_reg,
        max_gb_deg_sigma=gb_deg_sigma,
        D_nm=bounds.D_nm,
        lazard=bounds.lazard,
        ineq_max_gb=ineq_max_gb,
        ineq_D_nm=ineq_D_nm,
        weakly_revlex=weakly,
        artinian_after_sigma=artinian_after_sigma,
        equality_attained=equality,
        m_n_minus_1_law=m_n_minus_1_law,
        semiregular=semireg,
        engine="buchberger" if loop is None else "macaulay",
    )


# ---------------------------------------------------------------------------
# random samplers
# ---------------------------------------------------------------------------


def child_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed derivation, independent of scheduling."""
    return (master_seed * 0x9E3779B97F4A7C15 + index + 1) % 2**63


def _random_homogeneous(rng, fld, n, d, skip=None):
    monoms = monomials_of_degree(n, d)
    while True:
        coeffs = {}
        for m in monoms:
            if skip is not None and m == skip:
                continue
            c = rng.randrange(fld.p)
            if c:
                coeffs[m] = c
        if coeffs:
            return Polynomial(fld, n, coeffs)


def sample_system(n: int, m: int, degrees, fld, seed: int) -> PolySystem:
    """Dense random homogeneous system: independently uniform coefficients on
    every degree-d_j monomial; deterministic for a fixed seed."""
    if len(degrees) != m:
        raise DimensionMismatch(f"expected {m} degrees, got {len(degrees)}")
    rng = random.Random(seed)
    return PolySystem(
        fld, n, tuple(_random_homogeneous(rng, fld, n, d) for d in degrees)
    )


def sample_Z_system(n: int, m: int, degrees, fld, seed: int) -> PolySystem:
    """Like :func:`sample_system` but with the x_n^(d_i) coefficient of each
    polynomial forced to zero, so (0 : ... : 0 : 1) is a projective zero and
    the quotient is never Artinian."""
    if n < 2:
        raise DimensionMismatch("the corner-vanishing construction needs n >= 2")
    if len(degrees) != m:
        raise DimensionMismatch(f"expected {m} degrees, got {len(degrees)}")
    rng = random.Random(seed)
    polys = []
    for d in degrees:
        skip = tuple([0] * (n - 1) + [d])
        polys.append(_random_homogeneous(rng, fld, n, d, skip=skip))
    return PolySystem(fld, n, tuple(polys))
