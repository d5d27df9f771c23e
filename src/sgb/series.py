"""Integer truncated power series and the numeric degree/complexity bounds.

All coefficients are exact Python ints; binomial coefficients grow past 64
bits quickly, so nothing here ever rounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExhausted, InvalidDegree, OmegaOutOfRange, UndefinedBound

# Longest truncated series built: 2^16 coefficients, each a binomial of up to
# a few hundred digits for the variable counts sgb handles.
MAX_SERIES_CAP = 2**16

# ---------------------------------------------------------------------------
# dense integer polynomials (lists of coefficients, index = exponent)
# ---------------------------------------------------------------------------


def poly_trim(c) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return poly_trim(out)


def poly_sub(a, b) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return poly_trim(out)


def poly_eval(a, x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def degree_product(degrees) -> list:
    """Coefficients of prod_j (1 - z^(d_j)); the empty product is 1."""
    out = [1]
    for d in degrees:
        if d < 1:
            raise InvalidDegree(f"generator degree {d} < 1")
        factor = [0] * (d + 1)
        factor[0], factor[d] = 1, -1
        out = poly_mul(out, factor)
    return out


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncSeries:
    """Integer power series known up to (but excluding) degree ``cap``."""

    coeffs: tuple

    @property
    def cap(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]



def divide_by_one_minus_z(numerator, n: int, cap: int) -> list:
    """Coefficients of numerator / (1 - z)^n mod z^cap, by n prefix sums."""
    out = list(numerator[:cap]) + [0] * max(0, cap - len(numerator))
    for _ in range(n):
        out = list(itertools.accumulate(out))
    return out


def froberg_series(n: int, degrees, cap: int) -> TruncSeries:
    """Coefficients of prod_j (1 - z^(d_j)) / (1 - z)^n mod z^cap.

    Each factor (1 - z^(d_j)) is applied mod z^cap, never the whole
    numerator of degree sum(d_j), so the work is about (n + m) * cap."""
    if n < 1 or cap < 1:
        raise InvalidDegree(f"need n >= 1 and cap >= 1, got n={n}, cap={cap}")
    out = divide_by_one_minus_z([1], n, cap)
    for d in degrees:
        if d < 1:
            raise InvalidDegree(f"generator degree {d} < 1")
        out[d:] = [a - b for a, b in zip(out[d:], out)]
    return TruncSeries(tuple(out))


def positive_truncate(s: TruncSeries) -> list:
    """Longest all-positive prefix of ``s``, returned as polynomial coefficients.

    The prefix must end inside the cap: if every known coefficient is positive
    it raises CapExhausted.
    """
    if s.cap == 0 or s.coeffs[0] <= 0:
        raise InvalidDegree("series must start with a positive coefficient")
    for k, c in enumerate(s.coeffs):
        if c <= 0:
            return list(s.coeffs[:k])
    raise CapExhausted(f"all {s.cap} known coefficients are positive")


def truncated_froberg_polynomial(n: int, degrees) -> list:
    """The positive truncation of the full series, read from one series with
    cap L + 1, for L = lazard_bound(n, m, degrees).

    For m >= n the first non-positive coefficient lies at index <= L:

    - the n largest degrees alone give prod_j (1 - z^(d_j)) / (1 - z)^n =
      prod_j (1 + z + ... + z^(d_j - 1)), a polynomial of degree L - 1, so
      its coefficient at index L is 0;
    - multiplying a series a by (1 - z^d) gives b_k = a_k - a_(k-d), and for
      k up to the first non-positive index K of a, a_(k-d) is positive or
      absent, so b_k <= a_k: no coefficient before the first non-positive
      one rises, and b has a non-positive coefficient at or before K.

    Each further degree is such a factor, so L + 1 coefficients suffice.
    For m < n every coefficient is positive, and it raises UndefinedBound.
    A cap above ``MAX_SERIES_CAP`` is refused with CapExhausted before any
    series is built.  The cap is ``lazard_bound``'s value taken before its
    checks, so an invalid degree is still reported by ``froberg_series``.
    """
    m = len(degrees)
    if m < n:
        raise UndefinedBound(f"every coefficient is positive for m={m} < n={n}")
    cap = max(2, sum(sorted(degrees)[m - n:]) - n + 2)
    if cap > MAX_SERIES_CAP:
        raise CapExhausted(
            f"the series would need {cap} coefficients, over the limit of {MAX_SERIES_CAP}"
        )
    return positive_truncate(froberg_series(n, degrees, cap))


def lazard_bound(n: int, m: int, degrees) -> int:
    """Classical Macaulay-type bound: sum of (d_j - 1) + 1 over the min(m, n)
    largest degrees."""
    if m < 1 or len(degrees) != m:
        raise InvalidDegree("need m >= 1 degrees")
    if any(d < 1 for d in degrees):
        raise InvalidDegree("degrees must be >= 1")
    top = sorted(degrees, reverse=True)[: min(m, n)]
    return sum(d - 1 for d in top) + 1


def degree_bound_Dnm(n: int, m: int, degrees) -> int:
    """Solving-degree bound: truncation degree + 1 for m > n, and the full
    degree sum bound sum(d_j - 1) + 1 for m = n and m = n - 1 (for m = n the
    series is the polynomial prod(1 + ... + z^(d_j - 1)), whose coefficients
    are positive up to its degree); undefined below that."""
    if len(degrees) != m:
        raise InvalidDegree(f"expected {m} degrees, got {len(degrees)}")
    if any(d < 1 for d in degrees):
        raise InvalidDegree("degrees must be >= 1")
    if m < n - 1:
        raise UndefinedBound(f"bound undefined for m={m} < n-1={n - 1}")
    if m <= n:
        return sum(d - 1 for d in degrees) + 1
    prefix = truncated_froberg_polynomial(n, degrees)
    return (len(prefix) - 1) + 1


def complexity_estimate(n: int, m: int, D: int, omega: float):
    """Cost estimates for reducing the Macaulay matrix of degree ``D``.

    Returns ``(cost_new, cost_classic)`` where ``cost_new`` is
    m * C(n+D-1, D)^omega and ``cost_classic`` carries the extra factor D.
    Integral omega is evaluated exactly.
    """
    if not 2 <= omega < 3:
        raise OmegaOutOfRange(f"omega {omega} outside [2, 3)")
    if D < 1:
        raise InvalidDegree(f"D must be >= 1, got {D}")
    binom = math.comb(n + D - 1, D)
    if float(omega).is_integer():
        base = m * binom ** int(omega)
        return base, base * D
    try:
        base = m * float(binom) ** omega
    except OverflowError:
        base = math.inf
    return base, base * D


@dataclass(frozen=True)
class BoundReport:
    """Degree and cost bounds for a system shape (n, m, degrees)."""

    n: int
    m: int
    degrees: tuple
    D_nm: int | None  # None when m < n - 1
    lazard: int
    omega: float
    cost_new: float
    cost_classic: float


def bound_report(n: int, m: int, degrees, omega: float = 2.807) -> BoundReport:
    """Assemble the full report; costs are evaluated at D_nm when defined,
    else at the Lazard bound."""
    degrees = tuple(degrees)
    lz = lazard_bound(n, m, degrees)
    try:
        dnm = degree_bound_Dnm(n, m, degrees)
    except UndefinedBound:
        dnm = None
    cost_new, cost_classic = complexity_estimate(n, m, dnm if dnm is not None else lz, omega)
    return BoundReport(n, m, degrees, dnm, lz, omega, cost_new, cost_classic)
