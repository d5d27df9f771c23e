"""Exact Hilbert data for monomial ideals: numerator, Krull dimension,
Hilbert function, and the regularity measures derived from them.

Everything is driven by the numerator N(z) with HS_{R/J} = N(z)/(1-z)^n;
the brute-force standard-monomial count is kept as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Monom, drl_key, mono_divides, monomials_of_degree
from .errors import DimensionMismatch, InvariantViolation, UnitIdeal
from .series import degree_product, divide_by_one_minus_z, poly_eval, poly_trim

# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators, DRL-descending."""

    n: int
    gens: tuple

    def contains(self, m: Monom) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def is_unit(self) -> bool:
        return (0,) * self.n in self.gens

    def __iter__(self):
        return iter(self.gens)


def minimalize(gens, n: int) -> MonomialIdeal:
    """Drop divisibility-redundant generators and canonically order the rest."""
    kept = []
    for m in sorted(set(gens), key=lambda g: (sum(g), drl_key(g))):
        if len(m) != n:
            raise DimensionMismatch(f"generator {m} has {len(m)} exponents, expected {n}")
        if not any(mono_divides(g, m) for g in kept):
            kept.append(m)
    kept.sort(key=drl_key, reverse=True)
    return MonomialIdeal(n, tuple(kept))


# ---------------------------------------------------------------------------
# Hilbert numerator N(z), via pivot recursion on monomial generators
# ---------------------------------------------------------------------------


def _is_pure_power(m: Monom) -> bool:
    return sum(1 for e in m if e) == 1


def _pure_power_numerator(gens) -> list:
    """prod (1 - z^deg(g)) over pure powers; [] once a generator is 1."""
    degrees = [sum(g) for g in gens]
    return degree_product(degrees) if all(degrees) else []


def _shift_add(a, b, s, sign=1):
    """a + sign * z^s * b."""
    out = list(a) + [0] * max(0, s + len(b) - len(a))
    for j, y in enumerate(b):
        out[s + j] += sign * y
    return poly_trim(out)


def _colon_by(gens, m: Monom):
    """Generators of (<gens> : m)."""
    return [tuple(max(e - me, 0) for e, me in zip(g, m)) for g in gens]


def _numerator(gens, n, memo) -> list:
    key = tuple(sorted(gens))
    hit = memo.get(key)
    if hit is not None:
        return hit

    if any(sum(g) == 0 for g in gens):
        memo[key] = []
        return []
    pure = [g for g in gens if _is_pure_power(g)]
    mixed = [g for g in gens if not _is_pure_power(g)]
    if len(mixed) == 0:
        out = _pure_power_numerator(pure)
    elif len(mixed) == 1:
        m = mixed[0]
        colon = _pure_power_numerator(_colon_by(pure, m))
        out = _shift_add(_pure_power_numerator(pure), colon, sum(m), -1)
    else:
        counts = [0] * n
        for g in mixed:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
        piv = max(range(n), key=lambda i: counts[i])
        # N(J) = N(J + <x>) + z * N(J : x) for the pivot variable x
        x = tuple(int(i == piv) for i in range(n))
        plus = [g for g in gens if g[piv] == 0] + [x]
        colon = minimalize(_colon_by(gens, x), n).gens
        out = _shift_add(_numerator(plus, n, memo), _numerator(colon, n, memo), 1)
    memo[key] = out
    return out


def hilbert_numerator(J: MonomialIdeal) -> list:
    """N(z) with HS_{R/J}(z) = N(z)/(1-z)^n as formal series.

    N(0) = 1 for proper J; the unit ideal yields the zero polynomial.
    """
    if not J.gens:
        return [1]
    return _numerator(list(J.gens), J.n, {})


# ---------------------------------------------------------------------------
# Krull dimension and the Hilbert function oracle
# ---------------------------------------------------------------------------


def krull_dim(J: MonomialIdeal) -> int:
    """Krull dimension of R/J: n minus the least number of variables meeting
    the support of every generator."""
    if J.is_unit():
        raise UnitIdeal("quotient by the unit ideal has no dimension")
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in J.gens]
    if not supports:
        return J.n
    for size in range(1, J.n + 1):
        for cover in itertools.combinations(range(J.n), size):
            cset = set(cover)
            if all(s & cset for s in supports):
                return J.n - size
    raise AssertionError("unreachable: full variable set always covers")


def hilbert_function(J: MonomialIdeal, d: int) -> int:
    """Number of degree-d standard monomials (brute-force count)."""
    if d < 0:
        return 0
    return sum(1 for m in monomials_of_degree(J.n, d) if not J.contains(m))


def expand_hilbert_series(numerator, n: int, upto: int) -> list:
    """Hilbert function values HF(0..upto) from the numerator, exactly."""
    return divide_by_one_minus_z(numerator, n, upto + 1)


# ---------------------------------------------------------------------------
# regularity profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertProfile:
    """Exact rational Hilbert data of R/J.

    ``d_reg`` is None when infinite (Krull dimension >= 1), ``gen_d_reg`` is
    None when undefined (Krull dimension >= 2), and ``hp_constant`` is the
    eventual constant value of the Hilbert function when the dimension is 1.
    """

    numerator: tuple
    krull_dim: int
    h_poly: tuple
    hilb: int
    d_reg: int | None
    gen_d_reg: int | None
    hp_constant: int | None

    @property
    def artinian(self) -> bool:
        return self.krull_dim == 0


def _divide_by_one_minus_z(poly):
    """Exact quotient by (1 - z); returns None if the division is inexact."""
    out = []
    run = 0
    for c in poly:
        run += c
        out.append(run)
    if run != 0:
        return None
    out.pop()
    return poly_trim(out)


def regularity_profile(J: MonomialIdeal) -> HilbertProfile:
    """Full exact profile: numerator, dimension, h-polynomial and the three
    regularity measures, with the stabilization degree cross-checked against
    the degree formula."""
    if J.is_unit():
        raise UnitIdeal("profile of the unit ideal is undefined")
    numerator = hilbert_numerator(J)
    r = krull_dim(J)
    h = list(numerator)
    for _ in range(J.n - r):
        nxt = _divide_by_one_minus_z(h)
        if nxt is None:
            raise InvariantViolation("(1-z)^(n-r) must divide the numerator exactly")
        h = nxt
    if poly_eval(h, 1) == 0:
        raise InvariantViolation("h-polynomial must not vanish at 1")
    deg_h = len(h) - 1
    hilb = deg_h - r + 1

    d_reg = None
    gen_d_reg = None
    hp_constant = None
    if r == 0:
        # HF(d) = h_d; first zero value and stabilization coincide
        stab = deg_h + 1
        d_reg = gen_d_reg = stab
    elif r == 1:
        # HF(d) is the partial sum of h; stabilization is past the last
        # partial sum that still differs from h(1)
        total = poly_eval(h, 1)
        partial, run = [], 0
        for c in h:
            run += c
            partial.append(run)
        stab = 0
        for i in range(len(partial) - 1, -1, -1):
            if partial[i] != total:
                stab = i + 1
                break
        gen_d_reg = stab
        hp_constant = total
    if r <= 1:
        measured = gen_d_reg if r else d_reg
        if measured != hilb:
            raise InvariantViolation(
                f"stabilization degree {measured} disagrees with deg(h)-r+1={hilb}"
            )
    return HilbertProfile(
        numerator=tuple(numerator),
        krull_dim=r,
        h_poly=tuple(h),
        hilb=hilb,
        d_reg=d_reg,
        gen_d_reg=gen_d_reg,
        hp_constant=hp_constant,
    )
