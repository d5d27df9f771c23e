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
    GroebnerBasis,
    _check_degree_loop,
    _DegreeLoop,
    buchberger,
    gb_up_to,
    leading_monomial_ideal,
    max_gb_deg,
)
from .errors import (
    CapExhausted,
    DegreeTooSmall,
    DimensionMismatch,
    DimensionTooHigh,
    InvariantViolation,
    MatrixTooLarge,
    NotHomogeneous,
    NotLinear,
    SearchExhausted,
    UndefinedBound,
    UnitIdeal,
    ZeroForm,
)
from .hilbert import HilbertProfile, MonomialIdeal, regularity_profile
from .series import degree_bound_Dnm, degree_product, lazard_bound, poly_mul, poly_sub

# ---------------------------------------------------------------------------
# exact Hilbert data of a polynomial ideal
# ---------------------------------------------------------------------------


# Fewest monomials of degree top + 1, for top the largest generator degree,
# at which the default route eliminates.  From there on (quadrics in n >= 6,
# cubics in n >= 5) gb_up_to at D(n, m) was 2.1-5.8x as fast as the
# Buchberger oracle on dense systems over F_31 with m = n..n + 2; below it,
# 0.5-2.2x, so the smallest shapes lost.
_ELIMINATION_MIN_MONOMIALS = 56


def _default_route(system: PolySystem) -> tuple[str, int | None]:
    """Engine and cap of ``groebner_basis``'s default route for ``system``.

    A homogeneous system whose generators all have degree >= 1 and whose
    degree top + 1 has at least ``_ELIMINATION_MIN_MONOMIALS`` monomials goes
    to the Macaulay engine at the cap D(n, m) (the Lazard bound where D is
    undefined, and never below top), if ``gb_up_to``'s degree loop up to
    that cap fits the engine's cell budget.  Every other system goes to the
    Buchberger oracle.  The route depends only on n and the degrees, so a
    system and its image under a linear change share it.
    """
    degrees = system.degrees
    if not system.polys or not system.homogeneous or min(degrees) < 1:
        return "buchberger", None
    n, m, top = system.n, system.m, max(degrees)
    if math.comb(n + top, top + 1) < _ELIMINATION_MIN_MONOMIALS:
        return "buchberger", None
    try:
        cap = degree_bound_Dnm(n, m, degrees)
    except (UndefinedBound, CapExhausted):
        cap = lazard_bound(n, m, degrees)
    cap = max(cap, top)
    try:
        _check_degree_loop(system, min(degrees), cap)
    except MatrixTooLarge:
        return "buchberger", None
    return "macaulay", cap


def groebner_basis(system: PolySystem) -> GroebnerBasis:
    """Complete reduced basis of ``system`` by its default route
    (``_default_route``): the Macaulay engine at the cap D(n, m) for
    systems with enough monomials above their top degree, where the loop of
    an Artinian system stops by the cover test with no pair reduced, and
    the Buchberger oracle for the rest, including every system a typed
    error rejects.  Both engines give the same basis; a caller that names
    one calls ``buchberger`` or ``gb_up_to``."""
    engine, cap = _default_route(system)
    return buchberger(system) if engine == "buchberger" else gb_up_to(system, cap)


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


def _extension_profile(loop: _DegreeLoop, lazard: int, ell: Polynomial) -> HilbertProfile | None:
    """The profile of <I, ell> when R/<I, ell> is Artinian, else None, from
    the values of its Hilbert function that ``loop`` reads from
    multiplication on R/I (``_DegreeLoop.extension_hf``), with no basis of
    <I, ell>.  ``loop`` has walked I up to ``lazard``, the Lazard degree of
    <I, ell>, or up to its cover.

    An Artinian <I, l> has HF zero at the Lazard degree (Lazard 1983; the
    Hilbert function is the same over the algebraic closure of F_p), so one
    rank there rejects.  An accepted form takes ranks from degree 1 up to the
    first zero of HF, and HF(0) = 1; those values are the h-polynomial of the
    Artinian quotient, whose d_reg is their count.
    """
    coeffs = _coefficients(ell)
    if loop.extension_hf(coeffs, lazard):
        return None
    h = [1]
    for d in range(1, lazard):
        value = loop.extension_hf(coeffs, d)
        if not value:
            break
        h.append(value)
    numerator = poly_mul(h, degree_product((1,) * ell.n))
    return HilbertProfile(tuple(numerator), 0, tuple(h), len(h), len(h), len(h), None)


def _extension_test(system: PolySystem, basis: GroebnerBasis):
    """A function from a linear form l to the profile of <I, l>, or to None
    when l is rejected, for the candidates after x_n.

    It is ``_extension_profile`` bound to a degree loop walked up to the
    Lazard degree of <I, l>, whose echelons of I give multiplication on R/I
    and whose ``extension_hf`` takes the ranks.  A basis from the Macaulay
    route carries the degree loop that built it, which goes on from its cap
    if the Lazard degree lies above; otherwise the loop starts from the
    generators.  A loop that the engine's cell budget refuses leaves the
    candidates to the Buchberger oracle, a basis of <I, l> each."""
    n, degrees = system.n, system.degrees
    lazard = lazard_bound(n, system.m + 1, degrees + (1,))
    try:
        _check_degree_loop(system, min(degrees), lazard)
    except MatrixTooLarge:
        return lambda ell: _hilbert_of_basis(buchberger(system.extended(ell)))[1]
    loop = basis.echelons or _DegreeLoop(system)
    loop.walk(lazard)
    return functools.partial(_extension_profile, loop, lazard)


def _search_linear_form(system, basis, seed, max_attempts):
    """Candidate loop over the homogeneous system ``system`` and the basis
    of its ideal I; assumes the dimension precondition already holds.

    Returns the position change together with the profile of the successful
    extension <I, l> so callers need not recompute it.  No candidate gets a
    basis of <I, l>.  The first, l = x_n, is read from LM(I): I is
    homogeneous and the order is DRL with x_n last, so in(I + <x_n>) = in(I)
    + <x_n> (Bayer-Stillman 1987, Lemma 2.2).  Every later candidate is
    tested by multiplication maps on the echelons of I, whose ranks the
    degree loop of I takes (``_extension_test``); the loop is made ready on
    the first of them, so a run that accepts x_n builds no map.
    """
    fld, n = system.field, system.n
    rng = random.Random(seed)
    lm = leading_monomial_ideal(basis)
    extension = None

    def candidates():
        for i in reversed(range(n)):
            yield Polynomial.variable(fld, n, i)
        while True:
            vec = [rng.randrange(fld.p) for _ in range(n)]
            if any(vec):
                yield Polynomial.linear_form(fld, vec)

    attempts = 0
    for ell in candidates():
        if attempts >= max_attempts:
            break
        attempts += 1
        if attempts == 1:  # l = x_n
            ext_profile = _profile_with_xn(lm)
        else:
            if extension is None:
                extension = _extension_test(system, basis)
            ext_profile = extension(ell)
        if ext_profile is not None and ext_profile.artinian:
            ell, pivot = normalized_form(ell)
            pos = PositionChange(ell, pivot, build_sigma(ell), attempts)
            return pos, ext_profile
    raise SearchExhausted(
        f"no admissible linear form in {max_attempts} attempts; "
        "the field may have fewer elements than the ideal has projective zeros"
    )


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
    if not system.homogeneous:
        raise NotHomogeneous("exact Hilbert data needs a homogeneous system")
    basis = groebner_basis(system)
    _, profile = _hilbert_of_basis(basis)
    if profile.krull_dim >= 2:
        raise DimensionTooHigh(
            f"Krull dimension {profile.krull_dim} >= 2: no single form can work"
        )
    pos, _ = _search_linear_form(system, basis, seed, max_attempts)
    return pos


# ---------------------------------------------------------------------------
# the end-to-end theorem verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Per-system verification record for the full inequality chain.

    When the hypotheses hold (dimension <= 1, generalized semi-regular),
    ``ineq_max_gb`` and ``ineq_D_nm`` are theorems: a False value signals an
    implementation bug.  ``engine`` names the engine of the bases of I and
    I^sigma: ``macaulay`` or ``buchberger``.
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

    Every basis is complete and reduced.  The bases of I and I^sigma take
    ``groebner_basis``'s default route, which depends only on the shape, so
    both come from the engine that ``TheoremReport.engine`` names.  A basis
    that needs more than ``engine.MAX_S_PAIRS`` S-pair reductions raises
    BudgetExhausted, at the same pair for a fixed input; on the Macaulay
    route only the pairs of Buchberger's loop after the handover at the cap
    count.

    No basis of <J, x_n> is computed, for J = I or J = I^sigma: the system is
    homogeneous and the order is DRL with x_n last, so in(J + <x_n>) = in(J)
    + <x_n> (Bayer-Stillman 1987, Lemma 2.2) and its Hilbert data is read
    from LM(J).  The candidates l after x_n are tested by multiplication
    maps on the echelons of I, ranked inside the degree loop of I
    (``_DegreeLoop.extension_hf``), with no basis of <I, l> unless the cell
    budget refuses the echelons.  So a run computes at most two bases: that
    of I, and that of I^sigma when sigma is not the identity.  The check
    d_reg(<I^sigma, x_n>) == d_reg(<I, l>) compares two independent
    computations, LM(I^sigma) and the maps on I.
    """
    if not system.homogeneous:
        raise NotHomogeneous("the degree bounds apply to homogeneous ideals")
    n, m = system.n, system.m
    degrees = system.degrees

    basis = groebner_basis(system)
    lm, profile = _hilbert_of_basis(basis)
    if profile.krull_dim >= 2:
        raise DimensionTooHigh(f"Krull dimension {profile.krull_dim} >= 2")
    semireg = _certification(profile, degrees)
    gen_d_reg = profile.gen_d_reg

    pos, ext_profile = _search_linear_form(system, basis, seed, max_attempts)
    d_reg_ell = ext_profile.d_reg

    if pos.sigma.is_identity():  # then the normalized l is x_n
        basis_sigma, lm_sigma, sigma_xn_profile = basis, lm, ext_profile
    else:
        basis_sigma = groebner_basis(apply_to_system(system, pos.sigma))
        lm_sigma = leading_monomial_ideal(basis_sigma)
        sigma_xn_profile = _profile_with_xn(lm_sigma)
    gb_deg_sigma = max_gb_deg(basis_sigma)
    artinian_after_sigma = sigma_xn_profile.krull_dim == 0
    if artinian_after_sigma and sigma_xn_profile.d_reg != d_reg_ell:
        raise InvariantViolation(
            "d_reg(<I^sigma, x_n>) must match d_reg(<I, l>) "
            f"({sigma_xn_profile.d_reg} vs {d_reg_ell})"
        )

    try:
        D_nm = degree_bound_Dnm(n, m, degrees)
    except UndefinedBound:
        D_nm = None
    lz = lazard_bound(n, m, degrees)

    rhs = max(d_reg_ell, gen_d_reg)
    ineq_max_gb = gb_deg_sigma <= rhs
    ineq_D_nm = None if D_nm is None else rhs <= D_nm
    weakly = check_weakly_revlex(lm_sigma)
    equality = (gb_deg_sigma == rhs) if (weakly and artinian_after_sigma) else None

    m_n_minus_1_law = None
    if m == n - 1:
        ext_degrees = degrees + (1,)
        ext_regular = first_defect_degree(ext_profile, ext_degrees) is None
        if ext_regular:
            m_n_minus_1_law = (
                gen_d_reg == d_reg_ell - 1 == sum(d - 1 for d in degrees)
            )

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
        D_nm=D_nm,
        lazard=lz,
        ineq_max_gb=ineq_max_gb,
        ineq_D_nm=ineq_D_nm,
        weakly_revlex=weakly,
        artinian_after_sigma=artinian_after_sigma,
        equality_attained=equality,
        m_n_minus_1_law=m_n_minus_1_law,
        semiregular=semireg,
        engine=_default_route(system)[0],
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
