"""Exact Hilbert data for monomial ideals: numerator, Krull dimension,
Hilbert function, and the regularity measures derived from them.

Everything is driven by the numerator N(z) with HS_{R/J} = N(z)/(1-z)^n;
the brute-force standard-monomial count is kept as an independent oracle.

Generators are the engine's packed keys (``core._Packing``), key(m) =
sum_i m_i 2^(32 i) - deg(m) 2^(32 n): a smaller key is a DRL-larger
monomial, a | b iff ((b | G) - a) & G == G for the guard bits G at the top
of each field, and the colon of g by m is lcm(g, m) - m.  Tuples appear only
at the edges: ``minimalize``'s input, ``MonomialIdeal.gens`` and the
``hilbert_function`` oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import Monom, _packing, monomials_of_degree
from .errors import DimensionMismatch, InvalidDegree, InvariantViolation, UnitIdeal
from .series import (
    _check_series_length,
    degree_product,
    divide_by_one_minus_z,
    poly_eval,
    poly_sub,
    poly_trim,
)

# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------


def _pack(n: int, m: Monom) -> int:
    """Key of ``m``, refusing a wrong length, a negative exponent (it would
    borrow from the next field) and a degree of 2^31 or more."""
    if len(m) != n:
        raise DimensionMismatch(f"generator {m} has {len(m)} exponents, expected {n}")
    if min(m, default=0) < 0:
        raise InvalidDegree(f"monomial {m} has a negative exponent")
    return _packing(n).pack(m)


def _minimal(keys, guard: int) -> tuple:
    """The keys no other divides, ascending.  In descending order a proper
    divisor, a larger key, comes first, so a key stays iff no kept key does."""
    kept = []
    for k in sorted(set(keys), reverse=True):
        top = k | guard
        for g in kept:
            if (top - g) & guard == guard:
                break
        else:
            kept.append(k)
    kept.reverse()
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators as packed keys, in
    ascending order, which is DRL-descending."""

    n: int
    keys: tuple

    @staticmethod
    def generated_by(n: int, keys) -> "MonomialIdeal":
        """The ideal of the packed monomials ``keys``, minimalized."""
        return MonomialIdeal(n, _minimal(keys, _packing(n).guard))

    @functools.cached_property
    def gens(self) -> tuple:
        """The minimal generators as exponent tuples, DRL-descending."""
        unpack = _packing(self.n).unpack
        return tuple(unpack(k) for k in self.keys)

    def contains(self, m: Monom) -> bool:
        guard = _packing(self.n).guard
        top = _pack(self.n, m) | guard
        return any((top - g) & guard == guard for g in self.keys)

    def is_unit(self) -> bool:
        return 0 in self.keys[-1:]  # the key of 1 is the largest key

    def __iter__(self):
        return iter(self.gens)


def minimalize(gens, n: int) -> MonomialIdeal:
    """Drop divisibility-redundant generators and canonically order the rest;
    each generator is checked and packed once."""
    return MonomialIdeal.generated_by(n, [_pack(n, m) for m in gens])


# ---------------------------------------------------------------------------
# Hilbert numerator N(z), via pivot recursion on packed generators
# ---------------------------------------------------------------------------


def _numerator(keys: tuple, pack, memo) -> list:
    """N(z) of the ideal of ``keys``, an ascending tuple; [] for the unit
    ideal, whose one generator 1 reads as a pure power of degree 0."""
    hit = memo.get(keys)
    if hit is not None:
        return hit
    top, guard, ones = pack.bits * pack.n, pack.guard, pack.ones
    pure, mixed, counts = [], [], 0
    for g in keys:
        support = ((g | guard) - ones) & guard  # pack.support, inlined
        if support & (support - 1):
            mixed.append(g)
            counts += support >> (pack.bits - 1)  # one per variable, packed
        else:
            pure.append(-(g >> top))  # a pure power: only its degree counts
    if not mixed:
        out = degree_product(pure) if all(pure) else []
    elif len(mixed) == 1:
        # N(J) = N(pure) - z^deg(m) N(pure : m) for the one mixed generator m
        m = mixed[0]
        colon = [-((pack.lcm(g, m) - m) >> top) for g in keys if g != m]
        colon = degree_product(colon) if all(colon) else []
        shift = -(m >> top)
        _check_series_length(shift + len(colon))
        out = poly_sub(degree_product(pure), [0] * shift + colon)
    else:
        # N(J) = N(J + <x>) + z N(J : x) for the variable x in the most
        # mixed generators, the first of those
        field = (1 << pack.bits) - 1
        tally = [(counts >> s) & field for s in pack.shifts]
        piv = tally.index(max(tally))
        s = pack.shifts[piv]
        x = pack.variable(piv)
        plus = tuple(sorted([g for g in keys if not (g >> s) & field] + [x]))
        colon = _minimal([g - x if (g >> s) & field else g for g in keys], guard)
        colon = _numerator(colon, pack, memo)
        out = poly_sub(_numerator(plus, pack, memo), [0] + [-c for c in colon])
    memo[keys] = out
    return out


def hilbert_numerator(J: MonomialIdeal) -> list:
    """N(z) with HS_{R/J}(z) = N(z)/(1-z)^n as formal series.

    N(0) = 1 for proper J; the unit ideal yields the zero polynomial.
    """
    return _numerator(J.keys, _packing(J.n), {})


# ---------------------------------------------------------------------------
# Krull dimension and the Hilbert function oracle
# ---------------------------------------------------------------------------


def krull_dim(J: MonomialIdeal) -> int:
    """Krull dimension of R/J: the size of the largest free set, a set of
    variables that contains the support of no generator.  Its complement is
    the least cover, a set that meets every support, so the search grows both
    one size at a time and stops at the first size with a cover (dimension
    n - size) or with no free set one larger (dimension size), in O(n^2) set
    tests for a dimension <= 1 or >= n - 1.  Sets are read as guard bits."""
    if J.is_unit():
        raise UnitIdeal("quotient by the unit ideal has no dimension")
    pack = _packing(J.n)
    supports = set(map(pack.support, J.keys))
    variables = [1 << (s + pack.bits - 1) for s in pack.shifts]
    touching = [[s for s in supports if s & v] for v in variables]
    free = [(0, 0)]  # the free sets of the current size, each with the index above its top
    for size in range(J.n + 1):
        for cover in map(sum, itertools.combinations(variables, size)):
            if all(s & cover for s in supports):
                return J.n - size
        # a subset of a free set is free, so each free set of size + 1 is one
        # of size plus a variable v above its top, and only supports that
        # contain v can lie inside it
        free = [
            (f | v, i + 1) for f, lo in free for i, v in enumerate(variables[lo:], lo)
            if all(s & ~(f | v) for s in touching[i])
        ]
        if not free:
            return size
    raise AssertionError("unreachable: full variable set always covers")


def hilbert_function(J: MonomialIdeal, d: int) -> int:
    """Number of degree-d standard monomials (brute-force count)."""
    if d < 0:
        return 0
    return sum(1 for m in monomials_of_degree(J.n, d) if not J.contains(m))


def expand_hilbert_series(numerator, n: int, upto: int) -> list:
    """Hilbert function values HF(0..upto) from the numerator, exactly; more
    than ``MAX_SERIES_CAP`` values raise CapExhausted before any is built."""
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
        # the prefix sums of h are h / (1 - z); the last one is h(1)
        *h, rest = itertools.accumulate(h)
        if rest:
            raise InvariantViolation("(1-z)^(n-r) must divide the numerator exactly")
        h = poly_trim(h)
    if poly_eval(h, 1) == 0:
        raise InvariantViolation("h-polynomial must not vanish at 1")
    hilb = len(h) - r

    d_reg = gen_d_reg = hp_constant = None
    if r == 0:
        # HF(d) = h_d; first zero value and stabilization coincide
        d_reg = gen_d_reg = len(h)
    elif r == 1:
        # HF(d) is the partial sum of h; stabilization is past the last
        # partial sum that still differs from h(1)
        hp_constant = poly_eval(h, 1)
        partial = enumerate(itertools.accumulate(h), 1)
        gen_d_reg = max((i for i, s in partial if s != hp_constant), default=0)
    if r <= 1 and gen_d_reg != hilb:
        raise InvariantViolation(
            f"stabilization degree {gen_d_reg} disagrees with deg(h)-r+1={hilb}"
        )
    return HilbertProfile(tuple(numerator), r, tuple(h), hilb, d_reg, gen_d_reg, hp_constant)
