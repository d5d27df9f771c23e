"""Macaulay matrices, exact RREF over F_p (naive and block variants), and
complete reduced Groebner bases two ways: degree-by-degree elimination up to
the first degree its leading monomials cover, or else up to a cap and
finished by Buchberger's loop (``gb_up_to``), and the Buchberger oracle.

Matrices are dense int64 numpy arrays with entries in [0, p) on input and
output.  Elimination leaves rows in place and takes as each column's pivot
row the first free row in input order, so the pivots supplied by the first k
rows are those of the RREF of those rows; rows are gathered into RREF order
at the end.  It delays the reduction mod p: pivot columns and pivot rows are
reduced before use, so every update subtracts a product of two residues, at
most (p - 1)^2 < 2^62 for p < 2^31, and the trailing block is swept mod p
only when the next update could pass 2^63 - 1.

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
key(m) = sum_i m_i 2^(32 i) - deg(m) 2^(32 n), from the generators and the
columns of each degree to the returned basis, whose leading keys go on to
``hilbert.MonomialIdeal``; tuples appear only at the edges (``Polynomial``,
and the columns and labels of ``MacaulayMatrix``).  A smaller key is a
DRL-larger monomial, so a packed polynomial is a dict whose keys ascend from its
leading term and the term heap holds plain ints; a product is a sum of keys,
so a shifted row or tail is its keys plus one shift.  Divisibility uses the
guard bit at the top of each 32-bit field: a | b iff ((b | G) - a) & G ==
G.  A degree of 2^31 or more raises DegreeTooLarge rather than wrap.

The degree loop (``_DegreeLoop``) stays on the basis ``gb_up_to`` returns and
can go on past its cap.  Its echelons of I_d give multiplication by each
variable on R/I, degree by degree, and from those it answers the Hilbert
function of <I, l> for a linear form l, with one rank mod p
(``_DegreeLoop.extension_hf``).

Buchberger's loop (``_complete``, which ``buchberger`` and ``gb_up_to``
share) reduces against one append-only reducer set that caches, per
monomial, the first reducer in list order whose leading monomial divides it
(a miss records how many reducers were checked; only later ones are tried
again), so remainders are those of plain division, whatever the cache
holds.  It minimalizes and interreduces on packed leading keys and unpacks
once, when the sorted basis is returned.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as _dc_field, replace as _replace

import numpy as np

from .core import (
    PolySystem,
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
from .hilbert import MonomialIdeal, _minimal

# Largest Macaulay matrix the engine builds (2^27 int64 cells are 1 GiB), and
# the most cells a gb_up_to degree loop's blocks may have in all.
MAX_MACAULAY_CELLS = 2**27
# Most degrees a gb_up_to loop walks: each costs an elimination however small
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


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_MACAULAY_CELLS:
        raise MatrixTooLarge(
            f"{what} needs at least {cells} matrix cells, over the limit "
            f"of {MAX_MACAULAY_CELLS}"
        )


def _degree_cells(system: PolySystem, d: int) -> int:
    """Most cells gb_up_to's degree-d blocks have together: every product
    x_k * u of a degree-(d - 1) monomial and every degree-d generator is a
    row of X or of D, over at most all the degree-d monomials."""
    n = system.n
    products = n * math.comb(n - 2 + d, d - 1) if d >= 1 else 0
    rows = products + sum(dj == d for dj in system.degrees)
    return rows * math.comb(n - 1 + d, d)


def _check_degree_loop(system: PolySystem, lo: int, cap: int) -> None:
    """Refuse gb_up_to's loop over the degrees lo..cap if it has too many
    degrees or its blocks have too many cells in all.  The loop keeps every
    echelon it makes, and the multiplication maps built from them: the
    tails of degree d and the maps into degree d each have at most the cells
    ``_degree_cells`` counts for d, as do its X and D (with a copy for the
    RREF), which live only while d is eliminated.  So the summed count
    bounds what the loop keeps, up to a factor of four."""
    what = f"the degree loop {lo}..{cap}"
    if cap - lo + 1 > MAX_LOOP_DEGREES:
        raise MatrixTooLarge(
            f"{what} has {cap - lo + 1} degrees, over the limit of {MAX_LOOP_DEGREES}"
        )
    total = 0
    for d in range(cap, lo - 1, -1):  # largest first, to stop early
        total += _degree_cells(system, d)
        _check_cells(total, what)


def build_macaulay(system: PolySystem, d: int) -> MacaulayMatrix:
    """Assemble M_d for a homogeneous system; one row per pair (degree
    d - d_j multiplier t, generator j) with d_j <= d, in generator order.

    Columns are indexed by packed monomial (``core._Packing``) and each
    generator is packed once, so row (t, j) is the keys of f_j plus the one
    int key(t).  A degree of 2^31 or more raises DegreeTooLarge.
    """
    if not system.homogeneous:
        raise NotHomogeneous("Macaulay matrices need a homogeneous system")
    degrees = system.degrees
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    if any(dj < 1 for dj in degrees):
        raise InvalidDegree("generators must have degree >= 1")
    if d < min(degrees):
        raise DegreeTooSmall(f"degree {d} below the least generator degree {min(degrees)}")
    _check_cells(_macaulay_cells(system, d), f"M_{d}")

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
    """Gauss-Jordan elimination of an int64 matrix with entries in [0, p).
    Rows stay in place: a column's pivot row is the first free row, in input
    order, that is nonzero there.  The pivot rows are gathered in pivot order
    at the end, leaving the canonical RREF in ``a``; returns the pivot
    columns."""
    rows, cols = a.shape
    step = (p - 1) ** 2  # largest product of a multiplier and a residue
    bound = p - 1  # every entry of a[:, c:] satisfies |entry| <= bound
    free = np.ones(rows, dtype=bool)
    pivots, pivot_rows = [], []
    for c in range(cols):
        if len(pivots) == rows:
            break
        a[:, c] %= p
        nz = np.flatnonzero(free & (a[:, c] != 0))
        if nz.size == 0:
            continue
        r = int(nz[0])
        free[r] = False
        a[r, c:] %= p
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            if bound > _INT64_MAX - step:
                a[:, c:] %= p
                bound = p - 1
            a[hit, c:] -= np.outer(a[hit, c], a[r, c:])
            bound += step
        pivots.append(c)
        pivot_rows.append(r)
    # every free row is zero by now: each column either has no nonzero free
    # entry or was cleared by its pivot
    kept = a[pivot_rows]
    kept %= p
    a[: len(kept)] = kept
    a[len(kept):] = 0
    return pivots


def rref_naive(a: np.ndarray, p: int) -> RrefResult:
    """Canonical reduced row echelon form by Gauss-Jordan elimination over
    F_p, for primes p < 2^31.

    Updates are left unreduced until the next one could pass 2^63 - 1; the
    pivot column and the pivot row are reduced before they are used, so the
    pivots are those of the exact elimination.
    """
    work = np.asarray(a, dtype=np.int64) % p
    pivots = _rref_inplace(work, p)
    return RrefResult(work, tuple(pivots), len(pivots))


def rref_block(a: np.ndarray, p: int) -> RrefResult:
    """RREF via repeated elimination of 2l-row batches (l = column count).

    Each pass reduces the first 2l rows of the pool and puts the surviving
    nonzero rows back in front; at most ceil(k/l) passes.
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


@dataclass(frozen=True)
class GroebnerBasis:
    """Complete reduced basis: monic elements sorted by (degree, descending
    DRL leading monomial); ``keys`` are their packed leading keys, ascending.
    A basis from ``gb_up_to`` also carries its degree loop as ``echelons``
    (a ``_DegreeLoop``), whose echelons of I_d give R/I degree by degree."""

    elements: tuple
    keys: tuple = _dc_field(default=(), compare=False, repr=False)
    echelons: _DegreeLoop | None = _dc_field(default=None, compare=False, repr=False)

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial() for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def max_gb_deg(basis: GroebnerBasis) -> int:
    """Maximal total degree in the basis."""
    if not basis.elements:
        raise EmptyBasis("empty basis has no maximal degree")
    return max(g.degree() for g in basis.elements)


class _Reducers:
    """Append-only packed reducers of one run: leading keys, inverses of the
    leading coefficients, and tails as ``(key, coefficient)`` lists.
    ``divisor`` maps a key to the index of its first dividing reducer, or to
    ``~k`` for a miss after checking ``k`` reducers.  ``steps`` is how many
    more terms reductions against them may pop."""

    __slots__ = ("pack", "lms", "lc_invs", "tails", "divisor", "steps")

    def __init__(self, pack):
        self.pack = pack
        self.lms = []
        self.lc_invs = []
        self.tails = []
        self.divisor = {}
        self.steps = MAX_REDUCTION_STEPS

    def add(self, terms: dict, lc_inv: int = 1) -> None:
        """Append a packed polynomial (keys ascending) with the inverse of its
        leading coefficient."""
        items = iter(terms.items())
        self.lms.append(next(items)[0])
        self.lc_invs.append(lc_inv)
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
    """Remainder of the packed polynomial ``terms`` on division by
    ``reducers``, packed, leading term first.

    Keys leave a heap smallest first, so terms go in descending DRL order,
    and each is reduced by the first reducer in list order whose leading
    monomial divides it.  A shifted tail is its keys plus one shift.  Work
    values are reduced mod p only when their term is popped; a term enters
    the heap once, as every term added is below the popped one.  Each pop
    spends one of ``reducers.steps``.
    """
    lms, lc_invs, tails = reducers.lms, reducers.lc_invs, reducers.tails
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
        scale = -c * lc_invs[i] % p
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


def _reduced_basis(G, pack, fld, above: int | None = None) -> GroebnerBasis:
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
    result is sorted by (degree, key) and unpacked once.
    """
    done = _Reducers(pack)
    kept = []
    for g in sorted(G, key=lambda g: next(iter(g)), reverse=True):
        lm = next(iter(g))
        if done.find(lm) >= 0:
            continue
        if above is None or pack.degree(lm) > above:
            g = _reduce(g, done, fld.p)
        done.add(g)
        kept.append((pack.degree(lm), lm, g))
    kept.sort(key=lambda e: e[:2])
    elements = tuple(pack.polynomial(g, fld) for _, _, g in kept)
    return GroebnerBasis(elements, tuple(reversed(done.lms)))


def _complete(G, pack, fld, above: float | None = None) -> GroebnerBasis:
    """The reduced basis of the ideal of ``G``, a list of monic packed
    polynomials, by Buchberger's loop: normal pair selection, Gebauer-Moeller
    pair pruning, and one :class:`_Reducers` that grows with the basis.

    When ``above`` is given, ``G`` must be the reduced Groebner basis up to
    that degree, so every initial pair whose lcm has degree <= ``above``
    reduces to zero and is dropped, and ``G`` is not reduced again: the loop
    adds elements of higher degree only, which divide none of their terms.
    With ``above`` infinite ``G`` is the reduced basis, and no pair is made.  A
    loop that would reduce more than ``MAX_S_PAIRS`` S-pairs, or pop more
    than ``MAX_REDUCTION_STEPS`` terms, raises BudgetExhausted.  Every term
    met in a reduction lies below the pair's lcm, so with the input terms
    packed (DegreeTooLarge beyond the width), checking each selected lcm
    keeps every exponent inside its field.
    """
    if above == math.inf:  # G is the reduced basis itself
        return _reduced_basis(G, pack, fld, above)
    p = fld.p
    G = list(G)
    reducers = _Reducers(pack)
    pairs = set()
    lcms = {}  # pair -> packed lcm, filled when the pair is created
    for t, g in enumerate(G):
        reducers.add(g)
        pairs = _update_pairs(pack, reducers.lms, pairs, lcms, t)
    if above is not None:
        pairs = {pair for pair in pairs if pack.degree(lcms[pair]) > above}

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
    if not system.polys:
        raise EmptyBasis("cannot compute a basis for an empty system")
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    fld, pack = system.field, _packing(system.n)
    return _complete([_monic(pack.terms(f), fld.p) for f in system.polys], pack, fld)


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
    leading monomials and their tails.  ``leads`` are the packed keys of
    LM(I)_d in any order, ``standard`` the other degree-d keys, ascending,
    and row i of ``tails`` the coefficients, on ``standard``, of the RREF row
    led by ``leads[i]``."""

    degree: int
    leads: tuple
    standard: tuple
    tails: np.ndarray


def _pivot_products(prev: _Echelon, pack) -> dict:
    """P = {x_k * u : u a leading monomial of I_{d-1}}, the degree-d part of
    <LM(I)_{<d}>, each product mapped to the least k giving it: the variable
    of its pivot row, the first of the rows x_k * (u + tail) leading there."""
    pivots = {}
    for k in reversed(range(pack.n)):  # the least k is written last
        x = pack.variable(k)
        pivots.update({u + x: k for u in prev.leads})
    return pivots


def _eliminate_degree(prev: _Echelon, pivots: dict, gens: list, pack, p: int):
    """The echelon of I_d from that of I_{d-1}, and the RREF rows whose
    leading monomials are new at degree d, as packed polynomials.

    I_d is spanned by the rows x_k * (u + tail) and the degree-d generators.
    The pivot row of each product t in P is the first one leading there;
    their block [A | B] on the columns (P, N = the other monomials) has A
    unit upper triangular, and is solved bottom-up to X = A^-1 B: t + X_t is
    the row of I_d led by t with no other P term.  Rows are solved in
    rounds, each taking every row whose tail meets only rows solved
    before.  The other rows [C_P | C_N], repeated products and generators,
    give D = C_N - C_P X, whose RREF holds the new leading monomials Q.  A
    product x_k * s of a standard monomial s lands in P or in N, so C_P X is
    a gather of X's rows, never a P-wide matrix.
    """
    d = prev.degree + 1
    n, tails = pack.n, prev.tails
    plist = sorted(pivots)  # ascending keys: DRL-largest first
    pidx = {t: i for i, t in enumerate(plist)}
    standard = [t for t in _packed_monomials(n, d) if t not in pivots]
    col = {t: j for j, t in enumerate(standard)}
    width = len(standard)
    owner = np.array([pivots[t] for t in plist], dtype=np.intp)
    lands, owned, repeated = [], [], []
    for k in range(n):
        x = pack.variable(k)
        # where x_k times each standard monomial of degree d - 1 lands
        into_p, to_p, into_n, to_n = [], [], [], []
        for j, s in enumerate(prev.standard):
            t = s + x
            if t in pidx:
                into_p.append(j)
                to_p.append(pidx[t])
            else:
                into_n.append(j)
                to_n.append(col[t])
        lands.append(tuple(np.array(v, dtype=np.intp) for v in (into_p, to_p, into_n, to_n)))
        at = np.array([pidx[u + x] for u in prev.leads], dtype=np.intp)
        pivot = owner[at] == k
        owned.append((np.flatnonzero(pivot), at[pivot]))
        repeated.append((np.flatnonzero(~pivot), at[~pivot]))
    solved = np.zeros((len(plist), width), dtype=np.int64)  # X

    def products(rows, k):
        """The rows x_k * (u + tail) of ``prev``'s ``rows`` on N, less C_P X
        over the P columns of x_k * tail."""
        into_p, to_p, into_n, to_n = lands[k]
        out = np.zeros((len(rows), width), dtype=np.int64)
        chosen = tails[rows]
        out[:, to_n] = chosen[:, into_n]
        return (out - _matmul_mod(chosen[:, into_p], solved[to_p], p)) % p

    pending = [np.arange(len(rows)) for rows, _ in owned]
    done = np.zeros(len(plist), dtype=bool)
    while any(len(left) for left in pending):
        ready = []
        for k, left in enumerate(pending):
            into_p, to_p = lands[k][:2]
            waits = (tails[owned[k][0][left]][:, into_p] != 0) & ~done[to_p]
            blocked = waits.any(axis=1)
            ready.append(left[~blocked])
            pending[k] = left[blocked]
        if not any(len(now) for now in ready):
            raise InvariantViolation(f"the pivot block of degree {d} is not triangular")
        for k, now in enumerate(ready):
            if len(now):
                rows, at = owned[k][0][now], owned[k][1][now]
                solved[at] = products(rows, k)
                done[at] = True

    blocks = []
    for k, (rows, lead) in enumerate(repeated):
        if len(rows):
            blocks.append((products(rows, k) - solved[lead]) % p)
    if gens:
        on_p = np.zeros((len(gens), len(plist)), dtype=np.int64)
        on_n = np.zeros((len(gens), width), dtype=np.int64)
        for g, terms in enumerate(gens):
            for t, c in terms.items():
                if t in pidx:
                    on_p[g, pidx[t]] = c
                else:
                    on_n[g, col[t]] = c
        blocks.append((on_n - _matmul_mod(on_p, solved, p)) % p)
    res = rref_naive(np.vstack(blocks) if blocks else np.zeros((0, width), np.int64), p)

    new = res.matrix[: res.rank]
    q_cols = list(res.pivots)
    # a mask, not np.setdiff1d: its np.unique imports numpy.ma, 1.4 MB resident
    keep = np.ones(width, dtype=bool)
    keep[q_cols] = False
    solved = (solved - _matmul_mod(solved[:, q_cols], new, p)) % p
    rows = [
        {standard[j]: int(row[j]) for j in np.flatnonzero(row).tolist()} for row in new
    ]
    echelon = _Echelon(
        d,
        tuple(plist) + tuple(standard[c] for c in q_cols),
        tuple(standard[j] for j in np.flatnonzero(keep).tolist()),
        np.vstack([solved[:, keep], new[:, keep]]),
    )
    return echelon, rows


class _DegreeLoop:
    """The degree-by-degree elimination of a homogeneous system, kept so that
    it can go on: the echelon of I_d for each degree walked, from lo - 1 for
    lo the least generator degree, and ``covered``, the first degree whose
    monomials are all leading ones (None until one is met).  I_d = 0 below
    lo, so every monomial of such a degree is standard; from ``covered`` on,
    none is."""

    def __init__(self, system: PolySystem):
        n = system.n
        self.pack = _packing(n)
        self.p = system.field.p
        self.gens = {}
        for f in system.polys:
            self.gens.setdefault(f.degree(), []).append(self.pack.terms(f))
        self.lo = min(system.degrees)
        self.echelons = [_zero_echelon(n, self.lo - 1)]
        self.covered = None
        self._pivots = None  # of the degree after the last echelon, once made
        self._maps = {}  # degree d -> multiplication by each x_k into degree d

    @property
    def top(self) -> int:
        """The last degree eliminated."""
        return self.echelons[-1].degree

    def covers_next(self) -> bool:
        """Whether every monomial of degree top + 1 is a multiple x_k * u of
        a leading monomial u of degree top, so that every one above is too."""
        if self.covered is None and self._pivots is None:
            d = self.top + 1
            self._pivots = _pivot_products(self.echelons[-1], self.pack)
            if len(self._pivots) == math.comb(self.pack.n - 1 + d, d):
                self.covered = d
        return self.covered is not None

    def walk(self, hi: int) -> list:
        """Eliminate every degree up to ``hi``, or up to the cover; returns
        the RREF rows whose leading monomials are new in those degrees, as
        packed polynomials."""
        rows = []
        while not self.covers_next() and self.top < hi:
            gens = self.gens.get(self.top + 1, [])
            echelon, new = _eliminate_degree(self.echelons[-1], self._pivots, gens, self.pack, self.p)
            self._pivots = None
            self.echelons.append(echelon)
            rows.extend(new)
        return rows

    def echelon(self, d: int) -> _Echelon:
        """The echelon of I_d, for d <= top or from the cover on."""
        if self.covered is not None and d >= self.covered:
            return _Echelon(d, (), (), np.zeros((0, 0), dtype=np.int64))
        if d < self.lo:
            return _zero_echelon(self.pack.n, d)
        return self.echelons[d - self.lo + 1]

    def extension_hf(self, coeffs, d: int) -> int:
        """HF_{R/<I, l>}(d) = HF_{R/I}(d) - rank(l : (R/I)_{d-1} -> (R/I)_d)
        for l = sum_k coeffs[k] x_k and 1 <= d <= top, or from the cover on;
        the rank is taken by ``rref_naive``.

        Multiplication by x_k is built once per degree, on the standard
        monomials: entry (k, i, j) is the coefficient of the j-th standard
        monomial of degree d in x_k times the i-th one of degree d - 1.  A
        product x_k * s is itself when standard; otherwise it leads a row u +
        tail of the RREF of I_d, so modulo I it is -tail (the multiplication
        matrices of Faugere-Gianni-Lazard-Mora 1993, taken degree by degree).
        """
        pack, p = self.pack, self.p
        maps = self._maps.get(d)
        if maps is None:
            prev, cur = self.echelon(d - 1), self.echelon(d)
            maps = np.zeros((pack.n, len(prev.standard), len(cur.standard)), dtype=np.int64)
            col = {t: j for j, t in enumerate(cur.standard)}
            row = {t: i for i, t in enumerate(cur.leads)}
            minus = -cur.tails % p
            for k in range(pack.n if cur.standard else 0):  # else (R/I)_d = 0
                x = pack.variable(k)
                for i, s in enumerate(prev.standard):
                    t = s + x
                    j = col.get(t)
                    if j is None:
                        maps[k, i] = minus[row[t]]
                    else:
                        maps[k, i, j] = 1
            self._maps[d] = maps
        _, rows, cols = maps.shape
        if not rows or not cols:
            return cols
        image = np.zeros((rows, cols), dtype=np.int64)
        for c, x in zip(coeffs, maps):
            if c:
                image += c * x % p
        return cols - rref_naive(image, p).rank


def _zero_echelon(n: int, d: int) -> _Echelon:
    """The echelon of the zero space of degree d: every monomial standard."""
    standard = _packed_monomials(n, d)
    return _Echelon(d, (), standard, np.zeros((0, len(standard)), dtype=np.int64))


def gb_up_to(system: PolySystem, cap: int) -> GroebnerBasis:
    """Complete reduced Groebner basis of a homogeneous system: degree-by-
    degree elimination up to degree ``cap``, then Buchberger's loop on the
    pairs whose lcm lies above ``cap``.  The loop stops at the first d where
    every degree-d monomial is a multiple x_k * u of a leading monomial u of
    degree d - 1, with no pairs, as then every monomial above is one too.
    The cap moves only the degree where elimination hands over; the basis is
    the same for every cap accepted.

    Degree d is eliminated from the echelon of degree d - 1
    (``_eliminate_degree``) rather than from M_d: the rows of the RREF of
    M_{d-1}, times each variable, and the degree-d generators span I_d.
    The RREF rows led by monomials new at degree d are kept as packed
    polynomials; their keys ascend, so the pivot, a 1, comes first.  The
    basis carries the loop (``GroebnerBasis.echelons``), which can go on
    past the cap.
    """
    if not system.homogeneous:
        raise NotHomogeneous("Macaulay elimination needs a homogeneous system")
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    degrees = system.degrees
    if any(dj < 1 for dj in degrees):
        raise InvalidDegree("generators must have degree >= 1")
    if cap < max(degrees):
        raise DegreeTooSmall(f"cap {cap} below the largest generator degree {max(degrees)}")
    _check_degree_loop(system, min(degrees), cap)

    loop = _DegreeLoop(system)
    collected = loop.walk(cap)
    # with the next degree covered the rows are the reduced basis; else every
    # leading monomial of degree <= cap in the ideal is divisible by a
    # collected one, so the rows are a Groebner basis up to degree cap
    above = math.inf if loop.covered is not None else cap
    basis = _complete(collected, loop.pack, system.field, above=above)
    return _replace(basis, echelons=loop)


def leading_monomial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Minimal generators of <LM(G)> as a MonomialIdeal: the packed leading
    keys of the reduced basis, which no other divides."""
    if not basis.elements:
        raise EmptyBasis("empty basis has no leading-monomial ideal")
    if len(basis.keys) != len(basis.elements):
        raise InvariantViolation("a basis must carry the leading key of each element")
    return MonomialIdeal(basis.elements[0].n, basis.keys)
