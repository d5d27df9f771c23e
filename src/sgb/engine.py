"""Macaulay matrices, exact RREF over F_p (naive and block variants), and
complete reduced Groebner bases two ways: degree-by-degree elimination
(``gb_up_to``), and the Buchberger oracle.  The elimination has four
exits: the first degree its leading monomials cover; given the numerator of
HS(R/I), the first degree whose leading monomials have that Hilbert series
(the Hilbert exit, ``_DegreeLoop._generates``); or else the cap or a limit
of the walk (``_DegreeLoop.walk``), where Buchberger's loop finishes it.

Matrices are dense int64 numpy arrays with entries in [0, p) on input and
output.  Elimination swaps each column's pivot row, its first nonzero row
below the pivot rows so far, up under them, and subtracts one outer product
of the column and the pivot row, from the rows it hits when they are fewer
than half, else from the whole block.  It delays the reduction mod p: pivot
columns and pivot rows are reduced before use, so every update subtracts a
product of two residues, at most (p - 1)^2 < 2^62 for p < 2^31, and the
block is swept mod p only when the next update could pass 2^63 - 1.

``gb_up_to`` never builds M_d.  It keeps the RREF of the degree-(d - 1) part
of the ideal as its leading monomials and their tails over the standard
monomials, and eliminates degree d from those rows times each variable
(Faugere's F4 reuse) and the degree-d generators, split as in
Faugere-Lachartre: the first row leading at each product x_k * u is a pivot,
those pivots form a unit upper triangular block A over the columns P, and
only the Schur complement D = C_N - C_P A^-1 B of the other rows goes to
``rref_naive``.  Every product of residues is reduced mod p before it is
added, and a matrix product whose sums could pass 2^63 - 1 is split.

Inside the engine every monomial is a packed int (``core._Packing``),
key(m) = sum_i m_i 2^(32 i) - deg(m) 2^(32 n), from the generators, packed
by sorting their terms on the int keys, to the returned basis.  The degree
loop addresses a degree-d monomial by its index among the ascending keys of
degree d (``core._packed_monomials``); ``_products`` maps x_k times each
degree-(d - 1) index to its degree-d index, so the loop's bookkeeping is
numpy gathers, made once per degree for every variable together, and keys
appear only at its edges: the generators it reads, its leads (the Q keys)
and the rows it hands over.  The basis stays
packed until it is read: its leading keys go on to ``hilbert.MonomialIdeal``
and ``max_gb_deg``, and its elements become ``Polynomial``s only when first
read, with their terms in the stored order.  Tuples appear only at the
edges (``Polynomial``, and the columns and labels of ``MacaulayMatrix``).  A
smaller key is a DRL-larger monomial, so a packed polynomial is a dict whose
keys ascend from its leading term and the term heap holds plain ints; a
product is a sum of keys, so a shifted row or tail is its keys plus one
shift.  Divisibility uses the guard bit at the top of each 32-bit field:
a | b iff ((b | G) - a) & G == G.  A degree of 2^31 or more raises
DegreeTooLarge rather than wrap.

The degree loop (``_DegreeLoop``) keeps echelons, builds basis rows from
them only for ``_DegreeLoop.basis``, stays with its caller, not on the basis,
and can go on past its cap.  A loop that stopped by the cover or the Hilbert
exit holds every minimal generator of in(I) as a leading monomial new at a
degree it walked, so with no basis it gives in(I) (``_DegreeLoop.leads``),
and whether that is weakly reverse-lex (``_DegreeLoop.weakly_revlex``).  Its
echelons of I_d give multiplication by each variable on R/I, degree by
degree, and from those it answers the Hilbert function of <I, l> for a
linear form l, with one rank mod p (``_DegreeLoop.extension_hf``).

Buchberger's loop (``_complete``, which ``buchberger`` and ``gb_up_to``
share) reduces against one append-only set of monic reducers that caches,
per monomial, the first reducer in list order whose leading monomial
divides it (a miss records how many reducers were checked; only later ones
are tried again), so remainders are those of plain division, whatever the
cache holds.  Handed the rows of a loop stopped at degree e, it drops each
pair of lcm degree <= e as the pruning makes it.  It minimalizes and
interreduces on packed leading keys and returns the sorted basis packed.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .core import (
    PolySystem,
    _lists,
    _packed_monomials,
    _packing,
    monomials_of_degree,
)
from .errors import (
    BudgetExhausted,
    DegreeTooSmall,
    EmptyBasis,
    InvalidDegree,
    InvariantViolation,
    MatrixTooLarge,
    NotHomogeneous,
    ZeroPolynomial,
)
from .hilbert import MonomialIdeal, _minimal, expand_hilbert_series, hilbert_numerator
from .series import poly_trim

# Largest Macaulay matrix the engine builds (2^27 int64 cells are 1 GiB), and
# the most cells a degree loop's arrays may have in all, by the bound it takes
# before each degree; the loop stops before passing it, as at a cap.
MAX_MACAULAY_CELLS = 2**27
# Most degrees a degree loop walks: each costs an elimination however small
# its blocks are (in one variable every degree has one monomial).
MAX_LOOP_DEGREES = 2**10
# Most S-pair reductions one Buchberger loop makes, on every route: a count,
# not a time, so a seeded run stops at the same pair on every machine.
MAX_S_PAIRS = 200_000
# Most terms one Buchberger loop's reductions pop, and again its interreduction's.
MAX_REDUCTION_STEPS = 1_000_000

# ---------------------------------------------------------------------------
# Macaulay matrices
# ---------------------------------------------------------------------------


@dataclass
class MacaulayMatrix:
    """Degree-d coefficient matrix of all monomial multiples of the system.

    Row ``(m, j)`` holds the coefficients of ``m * f_j``; columns are the
    degree-d monomials in DRL-descending order.
    """

    degree: int
    field: object
    columns: tuple
    row_labels: tuple  # (multiplier monomial, generator index)
    matrix: np.ndarray

    def dump(self) -> str:
        """Debug format: header "d rows cols p", then one row per line."""
        head = f"{self.degree} {self.matrix.shape[0]} {self.matrix.shape[1]} {self.field.p}"
        lines = [head]
        for row in self.matrix:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def _macaulay_cells(system: PolySystem, d: int) -> int:
    """rows * cols of M_d, counted without building it."""
    n = system.n
    rows = sum(math.comb(n - 1 + d - dj, d - dj) for dj in system.degrees if dj <= d)
    return rows * math.comb(n - 1 + d, d)


def _check_system(system: PolySystem, eliminate: bool) -> None:
    """Refuse, in this order, an empty system (EmptyBasis), with ``eliminate``
    an inhomogeneous one (NotHomogeneous), a zero generator (ZeroPolynomial,
    of degree -1) and with ``eliminate`` a degree below 1 (InvalidDegree)."""
    if not system.polys:
        raise EmptyBasis("cannot compute a basis for an empty system")
    if eliminate and not system.homogeneous:
        raise NotHomogeneous("Macaulay elimination needs a homogeneous system")
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    if eliminate and min(system.degrees) < 1:
        raise InvalidDegree("generators must have degree >= 1")


def build_macaulay(system: PolySystem, d: int) -> MacaulayMatrix:
    """Assemble M_d for a homogeneous system; one row per pair (degree
    d - d_j multiplier t, generator j) with d_j <= d, in generator order.

    Columns are indexed by packed monomial (``core._Packing``) and each
    generator is packed once, so row (t, j) is the keys of f_j plus the one
    int key(t).  A degree of 2^31 or more raises DegreeTooLarge.
    """
    _check_system(system, eliminate=True)
    degrees = system.degrees
    if d < min(degrees):
        raise DegreeTooSmall(f"degree {d} below the least generator degree {min(degrees)}")
    cells = _macaulay_cells(system, d)
    if cells > MAX_MACAULAY_CELLS:
        raise MatrixTooLarge(f"M_{d} has {cells} cells, over the limit of {MAX_MACAULAY_CELLS}")

    pack = _packing(system.n)
    columns = monomials_of_degree(system.n, d)
    col_index = {k: i for i, k in enumerate(_packed_monomials(system.n, d))}
    labels = []
    cells = []
    values = []
    for j, f in enumerate(system.polys):
        if degrees[j] > d:
            continue
        terms = pack.terms(f)
        coeffs = list(terms.values())
        for mult in monomials_of_degree(system.n, d - degrees[j]):
            base = len(labels) * len(columns)
            shift = pack.pack(mult)
            cells.extend([base + col_index[k + shift] for k in terms])
            values.extend(coeffs)
            labels.append((mult, j))
    matrix = np.zeros((len(labels), len(columns)), dtype=np.int64)
    matrix.flat[cells] = values
    return MacaulayMatrix(d, system.field, columns, tuple(labels), matrix)


# ---------------------------------------------------------------------------
# RREF over F_p
# ---------------------------------------------------------------------------

_INT64_MAX = 2**63 - 1


@dataclass
class RrefResult:
    matrix: np.ndarray  # same shape as the input, zero rows last
    pivots: tuple  # strictly increasing pivot column indices
    rank: int


def _rref_inplace(a: np.ndarray, p: int):
    """Gauss-Jordan elimination of an int64 matrix with entries in [0, p),
    leaving the canonical RREF in ``a``; returns the pivot columns.  A
    column's pivot row is its first nonzero row at or below ``top``, the
    number of pivots so far, swapped up to ``top``; the outer product of the
    column mod p and the pivot row is subtracted from the rows it hits when
    they are fewer than half, else from the whole block."""
    rows, cols = a.shape
    step = (p - 1) ** 2  # largest product of a multiplier and a residue
    bound = p - 1  # every entry of a[:, c:] satisfies |entry| <= bound
    pivots = []
    for c in range(cols):
        top = len(pivots)
        if top == rows:
            break
        col = a[:, c] % p
        nz = col[top:].nonzero()[0]
        if nz.size == 0:
            continue
        r = top + int(nz[0])
        row = a[r, c:] % p * pow(int(col[r]), -1, p) % p
        if r != top:  # columns before c are 0 mod p in both rows
            a[r, c:] = a[top, c:]
            col[r] = col[top]
        a[top, c:] = row
        col[top] = 0
        hit = col.nonzero()[0]
        if hit.size:
            if bound > _INT64_MAX - step:
                a[:, c:] %= p
                bound = p - 1
            at = hit if 2 * hit.size < rows else slice(None)  # gather, or broadcast
            a[at, c:] -= col[at, None] * row
            bound += step
        pivots.append(c)
    # rows below the pivot rows are 0 mod p: each column was cleared there
    a[: len(pivots)] %= p
    a[len(pivots):] = 0
    return pivots


def rref_naive(a: np.ndarray, p: int) -> RrefResult:
    """Canonical reduced row echelon form by Gauss-Jordan elimination with
    row swaps over F_p, for primes p < 2^31.

    Updates are left unreduced until the next one could pass 2^63 - 1; the
    pivot column and the pivot row are reduced before they are used, so the
    pivots are those of the exact elimination.
    """
    work = np.asarray(a, dtype=np.int64) % p
    pivots = _rref_inplace(work, p)
    return RrefResult(work, tuple(pivots), len(pivots))


def rref_block(a: np.ndarray, p: int) -> RrefResult:
    """RREF via repeated elimination of 2l-row batches (l = column count).

    Each pass reduces the first 2l rows of the pool, which leaves its nonzero
    rows on top, and puts those back in front; at most ceil(k/l) passes.
    The result is bitwise identical to :func:`rref_naive`.
    """
    pool = np.asarray(a, dtype=np.int64) % p
    k, ell = pool.shape
    if ell == 0 or k <= 2 * ell:
        return rref_naive(pool, p)
    while pool.shape[0] > 2 * ell:
        batch = pool[: 2 * ell].copy()
        rank = len(_rref_inplace(batch, p))
        pool = np.vstack([batch[:rank], pool[2 * ell:]])
    final = rref_naive(pool, p)
    out = np.zeros((k, ell), dtype=np.int64)
    out[: final.rank] = final.matrix[: final.rank]
    return RrefResult(out, final.pivots, final.rank)


# ---------------------------------------------------------------------------
# Groebner bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """Complete reduced basis: monic elements sorted by (degree, descending
    DRL leading monomial), held packed.  ``packed`` are the elements as
    packed polynomials of ``pack`` over ``field``, each with its leading key
    first.  ``keys`` are those leading keys, ascending, and ``elements`` the
    elements as Polynomials, with their terms in the stored order; each is
    derived when first read.  Two bases are equal when their elements are."""

    packed: tuple
    pack: object = _dc_field(repr=False)
    field: object = _dc_field(repr=False)

    @functools.cached_property
    def keys(self) -> tuple:
        return tuple(sorted(next(iter(g)) for g in self.packed))

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(self.pack.polynomial(g, self.field) for g in self.packed)

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial() for g in self.elements)

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.packed)


def _leading_keys(basis: GroebnerBasis, what: str) -> tuple:
    """The packed leading keys of a nonempty basis, one per element."""
    if not basis.packed:
        raise EmptyBasis(f"empty basis has no {what}")
    return basis.keys


def max_gb_deg(basis: GroebnerBasis) -> int:
    """Maximal total degree in the basis, read from the least leading key:
    DRL is graded, so deg LM(g) = deg g, and the least key has the largest
    degree."""
    return basis.pack.degree(_leading_keys(basis, "maximal degree")[0])


class _Reducers:
    """Append-only packed monic reducers of one run: leading keys, and tails
    as ``(key, coefficient)`` lists.  Every polynomial the engine adds is
    monic already: ``_complete`` takes ``_monic`` generators and RREF rows and
    adds ``_monic`` remainders, and ``_reduced_basis`` adds kept elements of
    those.  ``divisor`` maps a key to the index of its first dividing
    reducer, or to ``~k`` for a miss after checking ``k`` reducers.
    ``steps`` is how many more terms reductions against them may pop."""

    __slots__ = ("pack", "lms", "tails", "divisor", "steps")

    def __init__(self, pack):
        self.pack = pack
        self.lms = []
        self.tails = []
        self.divisor = {}
        self.steps = MAX_REDUCTION_STEPS

    def add(self, terms: dict) -> None:
        """Append a monic packed polynomial (keys ascending)."""
        items = iter(terms.items())
        self.lms.append(next(items)[0])
        self.tails.append(list(items))

    def find(self, m: int) -> int:
        """Index of the first reducer whose leading monomial divides the
        packed monomial ``m``, or -1."""
        hit = self.divisor.get(m, -1)
        if hit >= 0:
            return hit
        guard = self.pack.guard
        top = m | guard
        lms = self.lms
        for i in range(~hit, len(lms)):
            if (top - lms[i]) & guard == guard:  # _Packing.divides, inlined
                self.divisor[m] = i
                return i
        self.divisor[m] = ~len(lms)
        return -1


def _reduce(terms: dict, reducers: _Reducers, p: int) -> dict:
    """Remainder of the packed polynomial ``terms`` on division by the monic
    ``reducers``, packed, leading term first.

    Keys leave a heap smallest first, so terms go in descending DRL order,
    and each is reduced by the first reducer in list order whose leading
    monomial divides it.  A shifted tail is its keys plus one shift.  Work
    values are reduced mod p only when their term is popped; a term enters
    the heap once, as every term added is below the popped one.  Each pop
    spends one of ``reducers.steps``.
    """
    lms, tails = reducers.lms, reducers.tails
    divisor, find = reducers.divisor, reducers.find
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(terms)
    wget = work.get
    heap = list(work)
    heapq.heapify(heap)
    remainder = {}
    left = reducers.steps
    while heap:
        if not left:
            raise BudgetExhausted(f"over {MAX_REDUCTION_STEPS} reduction steps")
        left -= 1
        m = heappop(heap)
        c = work.pop(m) % p
        if not c:
            continue
        i = divisor.get(m, -1)
        if i < 0:
            i = find(m)
            if i < 0:
                remainder[m] = c
                continue
        scale = p - c
        shift = m - lms[i]
        for k, gc in tails[i]:
            k += shift
            old = wget(k)
            if old is None:
                work[k] = scale * gc
                heappush(heap, k)
            else:
                work[k] = old + scale * gc
    reducers.steps = left
    return remainder


def _monic(terms: dict, p: int) -> dict:
    inv = pow(next(iter(terms.values())), -1, p)
    return {k: c * inv % p for k, c in terms.items()}


def _spoly(reducers: _Reducers, i: int, j: int, lcm: int) -> dict:
    """S-polynomial of the monic reducers i and j, packed; ``lcm`` is the
    packed lcm of their leading monomials."""
    lms, tails = reducers.lms, reducers.tails
    shift = lcm - lms[i]
    out = {k + shift: c for k, c in tails[i]}
    shift = lcm - lms[j]
    for k, c in tails[j]:
        k += shift
        out[k] = out.get(k, 0) - c
    return out


def _update_pairs(pack, lmG, pairs, lcms, t):
    """Gebauer-Moeller pruning when generator index t is appended; ``lcms``
    maps every pair ever created to the packed lcm of its leading monomials
    and gains the new pairs."""
    lmf = lmG[t]
    lcm, divides = pack.lcm, pack.divides
    with_new = [lcm(lm, lmf) for lm in lmG[:t]]
    kept = set()
    for i, j in pairs:
        lcm_ij = lcms[i, j]
        if (
            not divides(lmf, lcm_ij)
            or lcm_ij == with_new[i]
            or lcm_ij == with_new[j]
        ):
            kept.add((i, j))
    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(with_new[i], []).append(i)
    for m in reversed(_minimal(by_lcm, pack.guard)):  # ascending DRL
        # product criterion: coprime leading monomials reduce to zero
        if any(m == lmG[i] + lmf for i in by_lcm[m]):
            continue
        pair = (min(by_lcm[m]), t)
        kept.add(pair)
        lcms[pair] = m
    return kept


def _reduced_basis(G, pack, fld, above: int) -> GroebnerBasis:
    """The reduced basis from the Groebner basis ``G`` of monic packed
    polynomials, listed in the order the loop grew it.

    Elements are taken in descending order of leading key, that is ascending
    DRL; a proper divisor has a larger key, and the sort is stable.  So an
    element is kept iff no kept leading monomial divides its own, which keeps
    the first grown of each minimal leading monomial.  A term met while
    reducing a kept g lies below LM(g), so only the elements kept before it
    can divide it: g is reduced by those, its leading term stays, and its tail
    becomes its unique normal form.  Elements of degree <= ``above`` are
    Macaulay RREF rows (see ``_complete``) and are reduced already.  The
    result is sorted by (degree, key) and stays packed.
    """
    done = _Reducers(pack)
    kept = []
    for g in sorted(G, key=lambda g: next(iter(g)), reverse=True):
        lm = next(iter(g))
        if done.find(lm) >= 0:
            continue
        if pack.degree(lm) > above:
            g = _reduce(g, done, fld.p)
        done.add(g)
        kept.append((pack.degree(lm), lm, g))
    kept.sort(key=lambda e: e[:2])
    return GroebnerBasis(tuple(g for _, _, g in kept), pack, fld)


def _complete(G, pack, fld, above: int) -> GroebnerBasis:
    """The reduced basis of the ideal of ``G``, a list of monic packed
    polynomials, by Buchberger's loop: normal pair selection, Gebauer-Moeller
    pair pruning, and one :class:`_Reducers` that grows with the basis.

    The elements of ``G`` of degree <= ``above`` (none for -1) must be the
    reduced Groebner basis up to that degree, so every initial pair whose lcm
    has degree <= ``above`` reduces to zero and is dropped as it is made (the
    pruning judges a pair by its two leading monomials and the new one), and
    they are not reduced again: the loop adds elements of higher degree only,
    which divide none of their terms.  A loop that would reduce more than
    ``MAX_S_PAIRS`` S-pairs, or pop more than ``MAX_REDUCTION_STEPS`` terms,
    raises BudgetExhausted.  Every term met in a reduction lies below the pair's
    lcm, so with the input terms packed (DegreeTooLarge beyond the width),
    checking each selected lcm keeps every exponent inside its field.
    """
    p = fld.p
    G = list(G)
    reducers = _Reducers(pack)
    pairs = set()
    lcms = {}  # pair -> packed lcm, filled when the pair is created
    for t, g in enumerate(G):
        reducers.add(g)
        pairs = {pair for pair in _update_pairs(pack, reducers.lms, pairs, lcms, t)
                 if pack.degree(lcms[pair]) > above}

    processed = 0
    while pairs:
        if processed >= MAX_S_PAIRS:
            raise BudgetExhausted(
                f"basis incomplete after {processed} S-pair reductions"
            )
        processed += 1
        i, j = max(pairs, key=lcms.__getitem__)  # DRL-least lcm, ties in set order
        pairs.discard((i, j))
        lcm = lcms[i, j]
        pack.check(pack.degree(lcm))
        r = _reduce(_spoly(reducers, i, j, lcm), reducers, p)
        if r:
            G.append(_monic(r, p))
            reducers.add(G[-1])
            pairs = _update_pairs(pack, reducers.lms, pairs, lcms, len(G) - 1)
    return _reduced_basis(G, pack, fld, above)


def buchberger(system: PolySystem) -> GroebnerBasis:
    """Complete reduced DRL Groebner basis (normal pair selection,
    Gebauer-Moeller pair pruning); raises BudgetExhausted after
    ``MAX_S_PAIRS`` S-pair reductions or ``MAX_REDUCTION_STEPS`` popped
    terms.  The input is packed once; a term of degree 2^31 or more raises
    DegreeTooLarge.
    """
    _check_system(system, eliminate=False)
    fld, pack = system.field, _packing(system.n)
    return _complete([_monic(pack.terms(f), fld.p) for f in system.polys], pack, fld, -1)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p for int64 arrays with entries in [0, p), p < 2^31.

    A sum of k products is exact while k (p - 1)^2 < 2^63.  Past that, ``b``
    is split into 16-bit halves, so each product is below 2^47, and the
    inner dimension into chunks whose sums stay below 2^63; every partial
    product is reduced mod p before it is added.
    """
    k = a.shape[1]
    if k * (p - 1) ** 2 <= _INT64_MAX:
        return a @ b % p
    step = _INT64_MAX // ((p - 1) * 0xFFFF)
    high, low = b >> 16, b & 0xFFFF
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, step):
        part = a[:, s:s + step]
        out += (part @ high[s:s + step] % p << 16) % p
        out += part @ low[s:s + step] % p
        out %= p
    return out


@dataclass(frozen=True)
class _Echelon:
    """The canonical RREF of the degree-d part of an ideal, I_d, kept as its
    leading monomials and their tails.  A monomial is its index among the
    ascending degree-d keys (``core._packed_monomials``), so under DRL the
    x_n-free ones come first.  ``leads`` are the indices of LM(I)_d, P_d
    then Q_d, ``standard`` the other indices, ascending, and row i of
    ``tails`` the coefficients, on ``standard``, of the RREF row led by
    ``leads[i]``.  ``new`` is Q_d, the leads new at d, ascending, and
    ``via[i]`` the variable of the pivot row of ``leads[i]``, n in Q_d."""

    degree: int
    leads: np.ndarray
    standard: np.ndarray
    tails: np.ndarray
    new: np.ndarray = _dc_field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    via: np.ndarray = _dc_field(default_factory=lambda: np.zeros(0, dtype=np.intp))


@functools.lru_cache(maxsize=256)  # as core._packed_monomials
def _products(n: int, d: int) -> np.ndarray:
    """Entry (k, i) is the index of x_k times the i-th degree-(d - 1)
    monomial among the degree-d ones, each in ascending key order."""
    x = _packing(n).variable
    index = {t: i for i, t in enumerate(_packed_monomials(n, d))}
    below = _packed_monomials(n, d - 1)
    table = np.array([[index[u + x(k)] for u in below] for k in range(n)], dtype=np.intp)
    table.flags.writeable = False
    return table


def _eliminate_degree(prev: _Echelon, owner: np.ndarray, gens: list, n: int, p: int):
    """The echelon of I_d from that of I_{d-1}.  ``owner[t]`` is, for t in
    P = {x_k * u : u a leading monomial of I_{d-1}}, the least k giving it,
    the variable of its pivot row, and n for t not in P; ``gens`` are the
    packed degree-d generators.

    I_d is spanned by the rows x_k * (u + tail) and the degree-d generators.
    The pivot row of each product t in P is the first one leading there;
    their block [A | B] on the columns (P, N = the other monomials) has A
    unit upper triangular, and is solved bottom-up to X = A^-1 B: t + X_t is
    the row of I_d led by t with no other P term.  Rows are solved in
    rounds, each taking every row whose tail meets only rows solved
    before.  The other rows [C_P | C_N], repeated products and generators,
    give D = C_N - C_P X, whose RREF holds the new leading monomials Q.  A
    product x_k * s of a standard monomial s lands in P or in N, so C_P X is
    a gather of X's rows, never a P-wide matrix.  The RREF is 0 on the other
    Q columns, so the echelon's tails are taken on the standard ones only.

    The places of x_k times every standard monomial and every lead of degree
    d - 1 are gathered from ``_products`` once, for all k together.  The
    pivot rows are taken k-major, with the P places each one waits on, so a
    round is one mask over the rows of every variable; a block of rows
    x_k * (u + tail) gets its N part by one scatter and its C_P X by one
    matrix product per variable.

    The chain criterion leaves out a repeated product x_k r_u, for r_w the
    RREF row led by w, when u's pivot row has a variable c < k.  Then u = x_c v,
    r_u = x_c r_v - sum a_w r_w over leads w < u, r_{x_k v} = x_k r_v - sum
    b_w r_w over w < x_k v, and x_k r_u is x_c r_{x_k v} plus rows x_j r_w with
    x_j w < x_k u; by induction on (x_k u, k) D's span, so its RREF, stays.
    """
    d = prev.degree + 1
    tails, in_p = prev.tails, owner < n
    plist = np.flatnonzero(in_p)  # ascending keys: DRL-largest first
    standard = np.flatnonzero(~in_p)
    where = np.where(in_p, np.cumsum(in_p), np.cumsum(~in_p)) - 1  # the place in P or in N
    width, none = len(standard), len(plist)  # none: a sentinel P place, always solved, X row 0
    table, edges = _products(n, d), np.arange(n + 1)
    ks = edges[:n, None]
    # entry (k, i): the place of x_k times the i-th standard monomial of degree
    # d - 1 in P, else none, and in N, else width
    t = table[:, prev.standard]
    hit, at = in_p[t], where[t]
    to_p, to_n = np.where(hit, at, none), np.where(hit, width, at)
    meets = hit.any(axis=1).tolist()
    # entry (k, i): the place in P of x_k times the i-th lead, and whether
    # that row is its pivot row
    t = table[:, prev.leads]
    lead_at, pivot = where[t], owner[t] == ks
    kr, ir = pivot.nonzero()  # the pivot rows, k-major
    kq, iq = (~pivot & (prev.via >= ks)).nonzero()  # the repeated rows: the chain criterion
    solved = np.zeros((none + 1, width), dtype=np.int64)  # X, and row none
    done = np.zeros(none + 1, dtype=bool)
    done[none] = True

    def products(kr, ir):
        """The rows x_k * (u + tail) of the leads ``ir`` times the variables
        ``kr``, k-major, on N, less C_P X over the P columns of x_k * tail."""
        chosen = tails[ir]
        out = np.zeros((len(ir), width + 1), dtype=np.int64)  # column width takes P
        out[np.arange(len(ir))[:, None], to_n[kr]] = chosen
        out = out[:, :width]
        bounds = np.searchsorted(kr, edges).tolist()
        for k in range(n):
            lo, hi = bounds[k], bounds[k + 1]
            if lo < hi and meets[k]:
                out[lo:hi] -= _matmul_mod(chosen[lo:hi], solved[to_p[k]], p)
        return out % p

    # row r waits on the P places of x_k * tail it meets, none elsewhere
    waits = np.where(tails[ir] != 0, to_p[kr], none)
    pivot_at, pending = lead_at[kr, ir], np.arange(len(kr))
    while len(pending):
        ready = done[waits[pending]].all(axis=1)
        now = pending[ready]
        if not len(now):
            raise InvariantViolation(f"the pivot block of degree {d} is not triangular")
        pending = pending[~ready]
        solved[pivot_at[now]] = products(kr[now], ir[now])
        done[pivot_at[now]] = True

    blocks = [(products(kq, iq) - solved[lead_at[kq, iq]]) % p]
    solved = solved[:none]
    keys = _packed_monomials(n, d)
    on = np.zeros((len(gens), len(owner)), dtype=np.int64)  # the generator rows
    for g, terms in enumerate(gens):
        on[g, [bisect.bisect_left(keys, t) for t in terms]] = list(terms.values())
    blocks.append((on[:, standard] - _matmul_mod(on[:, plist], solved, p)) % p)
    res = rref_naive(np.vstack(blocks), p)

    q_cols = list(res.pivots)
    # a mask, not np.setdiff1d: its np.unique imports numpy.ma, 1.4 MB resident
    keep = np.ones(width, dtype=bool)
    keep[q_cols] = False
    kept = res.matrix[: res.rank, keep]  # the RREF is 0 on the other Q columns
    solved = (solved[:, keep] - _matmul_mod(solved[:, q_cols], kept, p)) % p
    q = standard[q_cols]
    return _Echelon(
        d,
        np.concatenate([plist, q]),
        standard[keep],
        np.vstack([solved, kept]),
        q,
        np.concatenate([owner[plist], np.full(len(q), n, dtype=np.intp)]),
    )


class _DegreeLoop:
    """The degree-by-degree elimination of a homogeneous system, kept so that
    it can go on: the echelon of I_d for each degree walked, from lo for lo
    the least generator degree, ``covered``, the first degree whose
    monomials are all leading ones, and ``generated``, the degree where the
    Hilbert exit found that the leads walked generate in(I) (each None until
    met).  I_d = 0 below lo, so every
    monomial of such a degree is standard; from ``covered`` on, none is.  It
    refuses what ``_check_system`` refuses and lists no monomial before it
    walks.  ``cells`` sums the bounds of the degrees walked (``_next_cells``)."""

    def __init__(self, system: PolySystem):
        _check_system(system, eliminate=True)
        self.pack = _packing(system.n)
        self.field = system.field
        self.gens = {}
        for f in system.polys:
            self.gens.setdefault(f.degree(), []).append(self.pack.terms(f))
        self.lo = min(system.degrees)
        self.echelons = []  # of the degrees lo..top
        self.covered = None
        self.generated = None
        self.cells = 0
        self._owner = None  # of the degree after the last echelon, once made
        self._maps = {}  # degree d -> multiplication by each x_k into degree d

    @property
    def top(self) -> int:
        """The last degree eliminated, lo - 1 before the walk."""
        return self.lo - 1 + len(self.echelons)

    def covers_next(self) -> bool:
        """Whether every monomial of degree top + 1 is a multiple x_k * u of
        a leading monomial u of degree top, so that every one above is too.
        It first makes P_{top+1}, those multiples, as the array ``_owner``
        over the indices of degree top + 1: the least k giving each, n for a
        monomial not in P."""
        if self.covered is None and self._owner is None:
            n, d = self.pack.n, self.top + 1
            hits = np.zeros((n + 1, math.comb(n - 1 + d, d)), dtype=bool)
            hits[n] = True  # argmax takes the first hit: the least k, else n
            hits[np.arange(n)[:, None], _products(n, d)[:, self.echelon(self.top).leads]] = True
            self._owner = hits.argmax(axis=0)
            if not np.any(self._owner == n):
                self.covered = d
        return self.covered is not None

    @property
    def complete(self) -> bool:
        """Whether the leads of the degrees walked generate in(I): the loop
        met its cover or the Hilbert exit."""
        return self.covered is not None or self.generated is not None

    def walk(self, hi: int, numerator=None) -> None:
        """Eliminate every degree up to ``hi``, keeping the echelon of each,
        and stop early at the cover or at a Hilbert exit already met.  Given
        ``numerator``, that of HS(R/I), it asks the Hilbert exit
        (``_generates``) of each degree from the top already walked on, and
        records the first that passes as ``generated``.  It also stops, as at
        a cap, before a degree past ``_lists_next``, or whose bound would take
        ``cells`` past ``MAX_MACAULAY_CELLS``; a later walk stops there too."""
        hf = None if numerator is None else expand_hilbert_series(
            numerator, self.pack.n, max(hi, self.top) + 1)
        ask = bool(self.echelons)  # a degree walked before without the numerator
        while self._lists_next():
            if hf is not None and ask and not self.complete and self._generates(hf, numerator):
                self.generated = self.top
                return
            if self.generated is not None or self.covers_next() or self.top >= hi:
                return
            cells = self.cells + self._next_cells()
            if cells > MAX_MACAULAY_CELLS:
                return
            prev, gens = self.echelon(self.top), self.gens.get(self.top + 1, [])
            echelon = _eliminate_degree(prev, self._owner, gens, self.pack.n, self.field.p)
            self._owner = None
            self.echelons.append(echelon)
            self.cells = cells
            ask = len(echelon.new) > 0

    def _lists_next(self) -> bool:
        """Whether degree top + 1 may be listed, before anything of it is:
        ``MAX_LOOP_DEGREES`` not yet walked, and ``core._lists`` admitting
        its monomials (so those of the degree below, which ``echelon`` lists
        before lo, too).  That bounds the table of P that ``covers_next``
        makes, (n + 1) N_d cells, by 9 MAX_MONOMIALS."""
        n, d = self.pack.n, self.top + 1
        return len(self.echelons) < MAX_LOOP_DEGREES and _lists(n, math.comb(n - 1 + d, d))

    def _next_cells(self) -> int:
        """A bound on the cells of each array that eliminating degree d =
        top + 1 makes or keeps, from P_d (``covers_next``): every row is a
        product x_k * u of a degree-(d - 1) monomial or a degree-d
        generator, R = n N_{d-1} + g_d of them at most, over the W columns
        outside P_d, and a product's tail lies on the S standard monomials
        of degree d - 1.  So R (W + S) bounds X, D and the copy its RREF
        makes, the rows of products and their tails, the kept tails and the
        multiplication maps into degree d (``extension_hf``), and g_d |P_d|
        the P columns of the generator rows."""
        n, prev = self.pack.n, self.echelon(self.top)
        gens = len(self.gens.get(self.top + 1, ()))
        in_p = int(np.count_nonzero(self._owner < n))
        rows = n * (len(prev.leads) + len(prev.standard)) + gens
        return rows * (len(self._owner) - in_p + len(prev.standard)) + gens * in_p

    def _generates(self, hf: list, numerator) -> bool:
        """The Hilbert exit (Traverso, "Hilbert functions and the Buchberger
        algorithm", J. Symbolic Comput. 22, 1996): whether J, the ideal of
        the leads walked up to d = top, is in(I), for ``hf`` the values of
        HF_{R/I} up to d + 1 or further and ``numerator`` that of HS(R/I).

        Every lead is the leading monomial of an element of I, so J is in
        in(I), and a monomial ideal inside another with the same Hilbert
        series equals it: in each degree it is a subspace of the same
        dimension.  So HS(R/J) = HS(R/I) means J = in(I): the rows
        collected, each monic with its tail on standard monomials, are the
        reduced basis, and no degree above d and no S-pair is needed.  J
        changes only where Q_d is not empty, so only such degrees are asked.

        A pre-test comes first: the degree-(d + 1) part of J is P_{d+1}, the
        products x_k * u of the leads of degree d, which the next degree
        needs anyway, so HF_{R/J}(d + 1) = C(n + d, d + 1) - |P_{d+1}| must
        be HF_{R/I}(d + 1).  Only then is the numerator of J computed from
        its minimal generators, the Q keys of every degree walked."""
        if self.covers_next():  # builds P_{d+1}; the cover ends the walk as well
            return False
        d, n = self.top, self.pack.n
        if np.count_nonzero(self._owner == n) != hf[d + 1]:
            return False
        return poly_trim(hilbert_numerator(self.leads())) == poly_trim(numerator)

    def leads(self) -> MonomialIdeal:
        """J, the ideal of the leads walked, inside in(I), equal to it up to
        the top degree, and in(I) itself once the loop is ``complete``; its
        minimal generators are the Q_d of the degrees walked."""
        n = self.pack.n
        keys = sorted(_packed_monomials(n, e.degree)[q] for e in self.echelons for q in e.new)
        return MonomialIdeal(n, tuple(keys))

    def basis(self, cap: int) -> GroebnerBasis:
        """The complete reduced basis: the walk up to ``cap`` or one of its
        stops, then, unless the loop is ``complete``, Buchberger's loop on the
        pairs whose lcm lies above the top degree walked.  The rows, the basis
        elements led by the Q_d walked, are built here, each a 1 at q and then
        its tail, keys above q's.  The loop can go on past ``cap`` afterwards."""
        self.walk(cap)
        rows = []
        for e in self.echelons:
            keys = _packed_monomials(self.pack.n, e.degree)
            names = [keys[t] for t in e.standard.tolist()]
            for q, tail in zip(e.new.tolist(), e.tails[len(e.leads) - len(e.new):]):
                terms = {names[j]: int(tail[j]) for j in tail.nonzero()[0].tolist()}
                rows.append({keys[q]: 1, **terms})
        # with the next degree covered, or the leads generating in(I), the rows
        # are the reduced basis, in (degree, key) order; else every leading
        # monomial of degree <= top in the ideal is divisible by a collected
        # one, so with the generators above top they are a Groebner basis up
        # to top
        if self.complete:
            return GroebnerBasis(tuple(rows), self.pack, self.field)
        above = [g for d, gens in self.gens.items() if d > self.top for g in gens]
        rows += [_monic(g, self.field.p) for g in above]
        return _complete(rows, self.pack, self.field, above=self.top)

    def echelon(self, d: int) -> _Echelon:
        """The echelon of I_d, for d <= top or from the cover on."""
        if d < self.lo or self.covered is not None and d >= self.covered:
            # below lo I_d = 0, every monomial standard; from the cover on none is
            size = math.comb(self.pack.n - 1 + d, d) if d < self.lo else 0
            return _Echelon(d, np.arange(0), np.arange(size), np.zeros((0, size), dtype=np.int64))
        return self.echelons[d - self.lo]

    def hf(self, d: int, xn_free: bool = False) -> int:
        """HF_{R/I}(d), or with ``xn_free`` HF_{R/<I, x_n>}(d), for d <= top
        or from the cover on.  The echelon of I_d is the RREF of I_d, so
        HF_{R/I}(d) = |standard_d|.  in(I + <x_n>) = in(I) + <x_n>
        (Bayer-Stillman 1987, Lemma 2.2): HF_{R/<I, x_n>}(d) counts the
        standard monomials with x_n exponent 0.  Under DRL those are the
        first indices of their degree, one per monomial of degree d in
        x_1..x_(n-1): C(n - 2 + d, d) for n >= 2, and 1 at d = 0 for n = 1."""
        standard, n = self.echelon(d).standard, self.pack.n
        if not xn_free:
            return len(standard)
        free = math.comb(n - 2 + d, d) if n > 1 else int(d == 0)
        return int(np.searchsorted(standard, free))

    def weakly_revlex(self) -> bool:
        """Whether in(I) is weakly reverse-lex, for a complete loop (walked to
        its cover or to the Hilbert exit): the minimal generators of in(I)
        are the Q_d of the degrees walked, so it is iff in each the largest
        index in Q_d, if any, is below the least standard index, if any."""
        return all((e.new[-1:] < e.standard[:1]).all() for e in self.echelons)

    def extension_hf(self, coeffs, d: int) -> int:
        """HF_{R/<I, l>}(d) = HF_{R/I}(d) - rank(l : (R/I)_{d-1} -> (R/I)_d)
        for l = sum_k coeffs[k] x_k and 1 <= d <= top, or from the cover on;
        the rank is taken by ``rref_naive``.

        Multiplication by x_k is built once per degree, on the standard
        monomials: entry (k, i, j) is the coefficient of the j-th standard
        monomial of degree d in x_k times the i-th one of degree d - 1.  A
        monomial of degree d is itself modulo I when standard; otherwise it
        leads a row u + tail of the RREF of I_d, so modulo I it is -tail (the
        multiplication matrices of Faugere-Gianni-Lazard-Mora 1993, taken
        degree by degree), and map k gathers the products x_k * s from those.
        """
        n, p = self.pack.n, self.field.p
        maps = self._maps.get(d)
        if maps is None:
            prev, cur = self.echelon(d - 1), self.echelon(d)
            maps = np.zeros((n, len(prev.standard), 0), dtype=np.int64)  # (R/I)_d = 0
            if len(cur.standard):
                leads, width = cur.tails.shape
                modulo = np.zeros((leads + width, width), dtype=np.int64)
                modulo[cur.standard] = np.eye(width, dtype=np.int64)
                modulo[cur.leads] = -cur.tails % p
                maps = modulo[_products(n, d)[:, prev.standard]]
            self._maps[d] = maps
        _, rows, cols = maps.shape
        if not rows or not cols:
            return cols
        image = sum(c * x % p for c, x in zip(coeffs, maps) if c)  # l is not zero
        return cols - rref_naive(image, p).rank


def gb_up_to(system: PolySystem, cap: int) -> GroebnerBasis:
    """Complete reduced Groebner basis of a homogeneous system: degree-by-
    degree elimination up to degree ``cap``, then Buchberger's loop on the
    pairs whose lcm lies above the last degree eliminated.  The loop stops at
    the first d where every degree-d monomial is a multiple x_k * u of a
    leading monomial u of degree d - 1, with no pairs, as then every monomial
    above is one too.
    The cap moves only the degree where elimination hands over; the basis is
    the same for every cap accepted.

    Degree d is eliminated from the echelon of degree d - 1
    (``_eliminate_degree``) rather than from M_d: the rows of the RREF of
    M_{d-1}, times each variable, and the degree-d generators span I_d.
    Each degree keeps only its echelon; the rows led by monomials new at a
    degree become packed polynomials, the pivot, a 1, first, when the loop
    hands them over (``_DegreeLoop.basis``).  The loop is dropped on return;
    a caller that reads its echelons builds one and asks it for the basis.
    A refused system raises before a cap below the top degree
    (DegreeTooSmall) or over ``MAX_LOOP_DEGREES`` degrees (MatrixTooLarge);
    a walk stopped by a limit hands over below the cap (``_DegreeLoop.walk``).
    """
    loop = _DegreeLoop(system)
    if cap < max(system.degrees):
        raise DegreeTooSmall(f"cap {cap} below the largest generator degree {max(system.degrees)}")
    if cap - loop.lo >= MAX_LOOP_DEGREES:
        raise MatrixTooLarge(f"{cap - loop.lo + 1} degrees, over the limit of {MAX_LOOP_DEGREES}")
    return loop.basis(cap)


def leading_monomial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Minimal generators of <LM(G)> as a MonomialIdeal: the packed leading
    keys of the reduced basis, which no other divides."""
    return MonomialIdeal(basis.pack.n, _leading_keys(basis, "leading-monomial ideal"))
