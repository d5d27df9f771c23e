"""Exact arithmetic kernel: prime fields, monomials in graded reverse
lexicographic order, multivariate polynomials, and linear coordinate changes.

Monomials are plain tuples of non-negative exponents ``(e_1, ..., e_n)`` for
the variables ``x_1 > ... > x_n``; the private :class:`_Packing` turns them
into single ints, one unsigned 32-bit field per exponent in one ``struct``
layout, the engine's only monomial form between its inputs and its results.
Field elements are plain ints in ``[0, p)``; a :class:`PrimeField` supplies
the arithmetic.  The public values (fields, polynomials, systems and linear
changes) are immutable after construction, compare and hash by value, and
are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field as _dc_field

from .errors import (
    BadModulus,
    DegreeTooLarge,
    DimensionMismatch,
    InvalidDegree,
    MatrixTooLarge,
    ZeroInverse,
    ZeroPolynomial,
)

Monom = tuple  # tuple[int, ...], one exponent per variable

# Most monomials one degree in at most 8 variables may have before any is
# listed (they are the columns of M_d): 245,157 of them (n = 8, d = 16) take
# 1.6 s and 82 MB to list on a 2-core Xeon.  A monomial costs O(n), so above
# 8 variables ``_lists`` bounds the exponents, n N_d, by 8 MAX_MONOMIALS.
MAX_MONOMIALS = 2**18

# ---------------------------------------------------------------------------
# prime field
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin witnesses below 3.2e9


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime 2 <= p < 2**31; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not _is_prime(p):
            raise BadModulus(f"modulus {p!r} is not a prime in [2, 2^31)")
        self.p = p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# monomials and the DRL order
# ---------------------------------------------------------------------------


def mono_mul(a: Monom, b: Monom) -> Monom:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monom, b: Monom) -> bool:
    """True if monomial ``a`` divides ``b``."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monom, b: Monom) -> Monom:
    """Quotient ``a / b``; caller must ensure ``b`` divides ``a``."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monom, b: Monom) -> Monom:
    return tuple(max(x, y) for x, y in zip(a, b))


def drl_key(m: Monom):
    """Sort key realizing graded reverse lex with x_1 > ... > x_n.

    Larger key means larger monomial: total degree decides first; ties are
    broken so that of two monomials the one whose last nonzero entry of the
    exponent difference is negative wins.
    """
    return (sum(m), tuple(-e for e in reversed(m)))


def drl_compare(a: Monom, b: Monom) -> int:
    """Return 1, 0 or -1 as ``a`` is greater, equal or less than ``b`` in DRL."""
    if len(a) != len(b):
        raise DimensionMismatch(f"monomials in {len(a)} and {len(b)} variables")
    ka, kb = drl_key(a), drl_key(b)
    if ka > kb:
        return 1
    if ka < kb:
        return -1
    return 0


def _lists(n: int, count: int) -> bool:
    """Whether ``count`` monomials in ``n`` variables may be listed: at most
    8 ``MAX_MONOMIALS`` exponent cells, counting at least 8 per monomial."""
    return max(n, 8) * count <= 8 * MAX_MONOMIALS


# each (n, d) cache below keeps the 256 pairs used last, far above the few
# dozen a batch of one shape walks, so a long process does not keep them all
@functools.lru_cache(maxsize=256)
def monomials_of_degree(n: int, d: int) -> tuple:
    """All degree-``d`` monomials in ``n`` variables, DRL-descending.

    The first element is x_1^d and the last is x_n^d.  Raises MatrixTooLarge
    when ``_lists`` refuses them, before any is listed.
    """
    if n < 1 or d < 0:
        raise DimensionMismatch(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    count = math.comb(n - 1 + d, d)
    if not _lists(n, count):
        raise MatrixTooLarge(
            f"{count} monomials of degree {d} in {n} variables, over the limit of "
            f"{8 * MAX_MONOMIALS // max(n, 8)}"
        )
    if n == 1:  # combinations() would first copy range(d) into a tuple
        return ((d,),)
    # stars and bars: e_i is the gap before bar i among n - 1 bars in
    # n - 1 + d slots, so each monomial costs O(n) whatever its degree
    monoms = []
    for bars in itertools.combinations(range(n - 1 + d), n - 1):
        m, prev = [], -1
        for b in bars:
            m.append(b - prev - 1)
            prev = b
        m.append(n - 2 + d - prev)
        monoms.append(tuple(m))
    monoms.sort(key=drl_key, reverse=True)
    return tuple(monoms)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable multivariate polynomial over a prime field.

    ``coeffs`` maps exponent tuples to nonzero ints in ``[1, p)``.  The zero
    polynomial has an empty map.  ``terms()`` iterates in strictly descending
    DRL order.
    """

    __slots__ = ("field", "n", "coeffs", "_terms")

    def __init__(self, fld: PrimeField, n: int, coeffs: dict):
        clean = {}
        for m, c in coeffs.items():
            if len(m) != n:
                raise DimensionMismatch(
                    f"monomial {m} has {len(m)} exponents, expected {n}"
                )
            c %= fld.p
            if c:
                clean[m] = c
        # one pass over all exponents in C: a min per monomial doubled the cost
        if min(itertools.chain.from_iterable(coeffs), default=0) < 0:
            bad = next(m for m in coeffs if min(m) < 0)
            raise InvalidDegree(f"monomial {bad} has a negative exponent")
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _of_clean(cls, fld: PrimeField, n: int, coeffs: dict, terms=None) -> "Polynomial":
        """A polynomial from a dict built clean, taken as it is: ``n``
        non-negative exponents per monomial and coefficients in [1, p).  For
        dicts the program makes from valid polynomials; input goes through
        the checking constructor.  ``terms``, if given, are the items of
        ``coeffs`` in descending DRL order, kept for ``terms()``."""
        f = object.__new__(cls)
        object.__setattr__(f, "field", fld)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "coeffs", coeffs)
        object.__setattr__(f, "_terms", terms)
        return f

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # construction helpers ---------------------------------------------------

    @staticmethod
    def zero(fld: PrimeField, n: int) -> "Polynomial":
        return Polynomial(fld, n, {})

    @staticmethod
    def constant(fld: PrimeField, n: int, c: int) -> "Polynomial":
        return Polynomial(fld, n, {(0,) * n: c})

    @staticmethod
    def variable(fld: PrimeField, n: int, i: int) -> "Polynomial":
        m = [0] * n
        m[i] = 1
        return Polynomial(fld, n, {tuple(m): 1})

    @staticmethod
    def linear_form(fld: PrimeField, coeffs) -> "Polynomial":
        """Linear form a_1 x_1 + ... + a_n x_n from a coefficient vector."""
        n = len(coeffs)
        terms = {}
        for i, a in enumerate(coeffs):
            m = [0] * n
            m[i] = 1
            terms[tuple(m)] = a
        return Polynomial(fld, n, terms)

    # basic queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Terms ``(monomial, coefficient)`` in strictly descending DRL order."""
        if self._terms is None:
            pairs = tuple(
                sorted(self.coeffs.items(), key=lambda t: drl_key(t[0]), reverse=True)
            )
            object.__setattr__(self, "_terms", pairs)
        return self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def leading_monomial(self) -> Monom:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return self.terms()[0][0]

    def leading_coeff(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.terms()[0][1]

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.coeffs}
        return len(degs) <= 1

    def is_linear_form(self) -> bool:
        return bool(self.coeffs) and all(sum(m) == 1 for m in self.coeffs)

    # arithmetic ---------------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.field != other.field or self.n != other.n:
            raise DimensionMismatch("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.coeffs)
        p = self.field.p
        for m, c in other.coeffs.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial._of_clean(self.field, self.n, out)

    def __neg__(self) -> "Polynomial":
        p = self.field.p
        return Polynomial._of_clean(self.field, self.n, {m: p - c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        p = self.field.p
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                m = mono_mul(ma, mb)
                v = (out.get(m, 0) + ca * cb) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial._of_clean(self.field, self.n, out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return Polynomial.zero(self.field, self.n)
        p = self.field.p  # c and every v are units, so v * c is one too
        return Polynomial._of_clean(
            self.field, self.n, {m: v * c % p for m, v in self.coeffs.items()}
        )

    def term_mul(self, m: Monom, c: int = 1) -> "Polynomial":
        """Multiply by the term ``c * x^m``."""
        if len(m) != self.n:
            raise DimensionMismatch(f"monomial {m} has {len(m)} exponents, expected {self.n}")
        if min(m, default=0) < 0:
            raise InvalidDegree(f"monomial {m} has a negative exponent")
        c %= self.field.p
        if c == 0:
            return Polynomial.zero(self.field, self.n)
        p = self.field.p
        return Polynomial._of_clean(
            self.field, self.n, {mono_mul(mm, m): v * c % p for mm, v in self.coeffs.items()}
        )

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(self.field.inv(self.leading_coeff()))

    def evaluate(self, point) -> int:
        """Evaluate at a point given as a coefficient vector over F_p."""
        if len(point) != self.n:
            raise DimensionMismatch("point length does not match variable count")
        p = self.field.p
        total = 0
        for m, c in self.coeffs.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * pow(x, e, p) % p
            total = (total + v) % p
        return total

    # comparisons / presentation ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"Polynomial({self.field.p}, {poly_to_string(self)!r})"

    def __str__(self):
        return poly_to_string(self)


def default_var_names(n: int) -> list:
    return [f"x{i + 1}" for i in range(n)]


def monom_to_string(m: Monom, names) -> str:
    """Factors of ``m`` joined by "*" (``x^e`` for e > 1); "1" for the unit."""
    return _monom_str(m, names)


def _monom_str(m: Monom, names) -> str:
    # private, so that tracing the public functions spans no single term
    factors = []
    for i, e in enumerate(m):
        if e == 1:
            factors.append(names[i])
        elif e > 1:
            factors.append(f"{names[i]}^{e}")
    return "*".join(factors) if factors else "1"


def poly_to_string(f: Polynomial, names=None) -> str:
    """Canonical string form: DRL-descending terms joined by " + ".

    Coefficients print as residues in [1, p); a unit coefficient is omitted
    unless the monomial is 1.  Factors are joined with explicit "*".
    """
    if f.is_zero():
        return "0"
    names = names or default_var_names(f.n)
    parts = []
    for m, c in f.terms():
        if not any(m):
            parts.append(str(c))
        elif c == 1:
            parts.append(_monom_str(m, names))
        else:
            parts.append(f"{c}*" + _monom_str(m, names))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

# Bits per exponent field of a packed monomial.  The top bit of each field is
# a guard, so a packed monomial's degree (and so each exponent) must stay
# below 2^(_PACK_BITS - 1).
_PACK_BITS = 32


class _Packing:
    """Monomials in ``n`` variables packed into one int each,
    ``key(m) = sum_i m_i 2^(32 i) - deg(m) 2^(32 n)``.

    A smaller key is a DRL-larger monomial: the degree term decides first,
    then the exponent of x_n, then that of x_(n-1), and so on.  A product is a
    sum of keys.  With G the guard bits of the exponent fields, ``a | b`` iff
    ``((b | G) - a) & G == G``: each field of ``b | G`` is b_i + 2^31, and
    subtracting a_i clears its guard exactly when a_i > b_i, with no borrow
    between fields.  Packed polynomials are dicts {key: coefficient} whose
    keys ascend, so the leading term comes first.  The exponent fields are
    the little-endian unsigned 32-bit integers of one ``struct``, so a
    monomial packs and unpacks in one conversion.
    """

    __slots__ = ("n", "bits", "shifts", "unit", "mask", "guard", "ones", "limit", "fields")

    def __init__(self, n: int):
        w = _PACK_BITS
        self.n = n
        self.bits = w
        self.shifts = tuple(w * i for i in range(n))
        self.unit = 1 << (w * n)  # key of degree one, exponents aside
        self.mask = self.unit - 1
        self.guard = sum(1 << (s + w - 1) for s in self.shifts)
        self.ones = sum(1 << s for s in self.shifts)
        self.limit = 1 << (w - 1)
        self.fields = struct.Struct(f"<{n}I")

    def degree(self, k: int) -> int:
        return -(k >> (self.bits * self.n))

    def check(self, d: int) -> None:
        """Refuse a degree that does not fit the fields."""
        if d >= self.limit:
            raise DegreeTooLarge(
                f"a monomial of degree {d}; packed monomials hold degrees below {self.limit}"
            )

    def pack(self, m: Monom) -> int:
        d = sum(m)
        self.check(d)
        return int.from_bytes(self.fields.pack(*m), "little") - d * self.unit

    def variable(self, i: int) -> int:
        """Key of x_(i+1)."""
        return (1 << self.shifts[i]) - self.unit

    def unpack(self, k: int) -> Monom:
        return self.fields.unpack((k & self.mask).to_bytes(self.fields.size, "little"))

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def support(self, k: int) -> int:
        """The guard bits of the nonzero exponent fields of ``k``: a field
        e_i + 2^31 - 1 keeps its guard iff e_i >= 1."""
        return ((k | self.guard) - self.ones) & self.guard

    def lcm(self, a: int, b: int) -> int:
        """lcm of two packed monomials: ``b`` times the fieldwise excess
        max(a_i - b_i, 0).  Its degree is exact whatever its size, as the
        excess has degree at most deg(a)."""
        diff = ((a | self.guard) - b) & self.mask  # fields a_i - b_i + 2^31
        ahead = diff & self.guard  # guards of the fields where a_i >= b_i
        excess = diff & (ahead - (ahead >> (self.bits - 1)))
        return b + excess - excess % ((1 << self.bits) - 1) * self.unit

    def terms(self, f: Polynomial) -> dict:
        """The packed terms of ``f``, keys ascending: DRL-descending, as
        ``f.terms()``, without sorting by ``drl_key``."""
        return dict(sorted(zip(map(self.pack, f.coeffs), f.coeffs.values())))

    def polynomial(self, terms: dict, fld: PrimeField) -> Polynomial:
        """The polynomial of packed ``terms``, whose keys ascend and whose
        coefficients lie in [1, p); its ``terms()`` keep that order."""
        items = tuple(zip(map(self.unpack, terms), terms.values()))
        return Polynomial._of_clean(fld, self.n, dict(items), items)


@functools.lru_cache(maxsize=None)
def _packing(n: int) -> _Packing:
    """The shared packing of ``n`` variables."""
    return _Packing(n)


@functools.lru_cache(maxsize=256)
def _packed_monomials(n: int, d: int) -> tuple:
    """Keys of ``monomials_of_degree(n, d)``, ascending."""
    return tuple(map(_packing(n).pack, monomials_of_degree(n, d)))


# ---------------------------------------------------------------------------
# polynomial systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolySystem:
    """An ordered sequence of polynomials in a common ring."""

    field: PrimeField
    n: int
    polys: tuple
    homogeneous: bool = _dc_field(init=False)
    degrees: tuple = _dc_field(init=False)

    def __post_init__(self):
        polys = tuple(self.polys)
        for f in polys:
            if f.field != self.field or f.n != self.n:
                raise DimensionMismatch("system members live in different rings")
        object.__setattr__(self, "polys", polys)
        object.__setattr__(
            self, "homogeneous", all(f.is_homogeneous() for f in polys)
        )
        object.__setattr__(self, "degrees", tuple(f.degree() for f in polys))

    @property
    def m(self) -> int:
        return len(self.polys)

    def extended(self, *extra) -> "PolySystem":
        return PolySystem(self.field, self.n, self.polys + tuple(extra))


# ---------------------------------------------------------------------------
# linear coordinate changes
# ---------------------------------------------------------------------------


def _mat_inv(mat, p):
    """Inverse of a square matrix mod p, or None if singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], -1, p)
        aug[row] = [v * inv % p for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(v - c * w) % p for v, w in zip(aug[r], aug[row])]
        row += 1
    return tuple(tuple(r[n:]) for r in aug)


@dataclass(frozen=True)
class LinearChange:
    """Invertible change of variables given by an n x n matrix P over F_p.

    Acting on a polynomial substitutes x_i by the i-th column of P, i.e.
    ``f -> f(x . P)`` in row-vector convention.  The matrix is stored
    reduced mod p as a tuple of rows.  Two changes are equal, and hash
    alike, when their fields and matrices are; ``note`` is a label and
    takes no part in either.
    """

    field: PrimeField
    matrix: tuple
    note: str = _dc_field(default="", compare=False)

    def __post_init__(self):
        p = self.field.p
        mat = tuple(tuple(v % p for v in row) for row in self.matrix)
        if any(len(row) != len(mat) for row in mat):
            raise DimensionMismatch("matrix is not square")
        if _mat_inv(mat, p) is None:
            raise ZeroInverse("coordinate-change matrix is singular")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return len(self.matrix)

    @staticmethod
    def identity(fld: PrimeField, n: int, note: str = "identity") -> "LinearChange":
        return LinearChange(
            fld, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), note
        )

    def inverse(self) -> "LinearChange":
        return LinearChange(
            self.field, _mat_inv(self.matrix, self.field.p), f"inverse of ({self.note})"
        )

    def is_identity(self) -> bool:
        return all(
            self.matrix[i][j] == int(i == j) for i in range(self.n) for j in range(self.n)
        )


def apply_linear_change(f: Polynomial, t: LinearChange) -> Polynomial:
    """Image of ``f`` under the substitution x_i -> i-th column of t.matrix.

    Works on packed monomials (``_Packing``), where a product of monomials
    is a sum of keys.  Each power of a substituted variable is built once,
    from the one before, and the image of each term of ``f``, the product of
    its powers, is added into one dict, reduced mod p once at the end.  A sigma from
    ``analysis.build_sigma`` has at most two nonzeros per column, so the
    image of a term of a quadric has at most four terms.  A degree of 2^31 or
    more raises DegreeTooLarge.
    """
    if f.n != t.n or f.field != t.field:
        raise DimensionMismatch("polynomial and change act on different rings")
    fld, n, p = f.field, f.n, f.field.p
    pack = _packing(n)
    pack.check(f.degree())
    columns = [
        [(pack.variable(j), row[i]) for j, row in enumerate(t.matrix) if row[i]]
        for i in range(n)
    ]
    powers = [[[(0, 1)]] for _ in range(n)]  # powers[i][e]: column i to the e, packed

    def power(i, e):
        table = powers[i]
        while len(table) <= e:
            step = {}
            for k, c in table[-1]:
                for kx, cx in columns[i]:
                    step[k + kx] = (step.get(k + kx, 0) + c * cx) % p
            table.append([(k, c) for k, c in step.items() if c])
        return table[e]

    out = {}
    for m, c in f.coeffs.items():
        term = [(0, c)]
        for i, e in enumerate(m):
            if e:
                term = [(k + kp, v * cp % p) for k, v in term for kp, cp in power(i, e)]
        for k, v in term:
            out[k] = out.get(k, 0) + v
    image = {k: v % p for k, v in sorted(out.items()) if v % p}
    return pack.polynomial(image, fld)


def apply_to_system(system: PolySystem, t: LinearChange) -> PolySystem:
    return PolySystem(system.field, system.n, tuple(apply_linear_change(f, t) for f in system.polys))


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------


def homogenize(f: Polynomial) -> Polynomial:
    """Homogenize by one extra variable appended as the last (smallest) one."""
    if f.is_zero():
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    d = f.degree()
    out = {m + (d - sum(m),): c for m, c in f.coeffs.items()}
    return Polynomial(f.field, f.n + 1, out)


def top_part(f: Polynomial) -> Polynomial:
    """The sum of the maximal-degree terms of ``f`` (same ring)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no top part")
    d = f.degree()
    return Polynomial(f.field, f.n, {m: c for m, c in f.coeffs.items() if sum(m) == d})


def dehomogenize(f: Polynomial, value: int = 1) -> Polynomial:
    """Substitute ``value`` for the last variable, dropping it from the ring."""
    if f.n < 1:
        raise DimensionMismatch("no variable to eliminate")
    fld = f.field
    out = {}
    for m, c in f.coeffs.items():
        scale = pow(value % fld.p, m[-1], fld.p) if m[-1] else 1
        v = (out.get(m[:-1], 0) + c * scale) % fld.p
        if v:
            out[m[:-1]] = v
        else:
            out.pop(m[:-1], None)
    return Polynomial(fld, f.n - 1, out)


def homogenize_system(system: PolySystem) -> PolySystem:
    return PolySystem(
        system.field, system.n + 1, tuple(homogenize(f) for f in system.polys)
    )
