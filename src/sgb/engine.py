"""Macaulay matrices, exact RREF over F_p (naive and block variants), and
complete reduced Groebner bases two ways: Macaulay elimination up to the first
degree its leading monomials cover, or else up to a cap and finished by
Buchberger's loop (``gb_up_to``), and the Buchberger oracle.

Matrices are dense int64 numpy arrays with entries in [0, p) on input and
output.  Elimination leaves rows in place and takes as each column's pivot
row the first free row in input order, so the pivots supplied by the first k
rows are those of the RREF of those rows; rows are gathered into RREF order
at the end.  It delays the reduction mod p: pivot columns and pivot rows are
reduced before use, so every update subtracts a product of two residues, at
most (p - 1)^2 < 2^62 for p < 2^31, and the trailing block is swept mod p
only when the next update could pass 2^63 - 1.

``gb_up_to`` prunes M_d by the F5 criterion: t * f_j is skipped when t is a
leading monomial of <f_1..f_{j-1}>, read off as a pivot of the lower-degree
elimination supplied by a row of a generator below j.

Inside the engine every monomial is a packed int (``core._Packing``),
key(m) = sum_i m_i 2^(32 i) - deg(m) 2^(32 n), from the Macaulay rows to the
returned basis, whose leading keys go on to ``hilbert.MonomialIdeal``;
tuples appear only at the edges (``Polynomial``, and the labels and owners
of ``MacaulayMatrix``/``build_macaulay``).  A smaller key is a DRL-larger
monomial, so a packed polynomial is a dict whose keys ascend from its
leading term and the term heap holds plain ints; a product is a sum of keys,
so a shifted row or tail is its keys plus one shift.  Divisibility uses the
guard bit at the top of each 32-bit field: a | b iff ((b | G) - a) & G ==
G.  A degree of 2^31 or more raises DegreeTooLarge rather than wrap.

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
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .core import (
    PolySystem,
    _Packing,
    _packed_monomials,
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
from .hilbert import MonomialIdeal

# Largest Macaulay matrix the engine builds (2^27 int64 cells are 1 GiB), and
# the most cells a gb_up_to degree loop builds in all.
MAX_MACAULAY_CELLS = 2**27
# Most degrees a gb_up_to loop walks: each costs a build and an RREF however
# small its matrix is (in one variable every matrix has one column).
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
            f"{what} needs at least {cells} Macaulay matrix cells, over the limit "
            f"of {MAX_MACAULAY_CELLS}"
        )


def _check_degree_loop(system: PolySystem, lo: int, cap: int) -> None:
    """Refuse the loop over M_lo..M_cap if it has too many degrees or builds
    too many cells in all.  Only one degree is alive at a time (M_d, its
    RREF copy and the gathered pivot rows, none larger than M_cap), so the
    total also bounds the memory, up to a factor of three."""
    what = f"the degree loop M_{lo}..M_{cap}"
    if cap - lo + 1 > MAX_LOOP_DEGREES:
        raise MatrixTooLarge(
            f"{what} has {cap - lo + 1} degrees, over the limit of {MAX_LOOP_DEGREES}"
        )
    total = 0
    for d in range(cap, lo - 1, -1):  # largest first, to stop early
        total += _macaulay_cells(system, d)
        _check_cells(total, what)


def build_macaulay(system: PolySystem, d: int, owners=None) -> MacaulayMatrix:
    """Assemble M_d for a homogeneous system; one row per pair (degree
    d - d_j multiplier t, generator j) with d_j <= d, in generator order.

    ``owners`` maps a degree e < d to {pivot monomial of M_e: generator of its
    pivot row}; t lies in LM(<f_1..f_{j-1}>) iff its owner is below j, and
    then row (t, j) is skipped (the F5 criterion).  The rows kept from
    generators up to j still span <f_1..f_j>_d, so the RREF is unchanged and
    a regular sequence gives no zero row.

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

    pack = _Packing(system.n)
    columns = monomials_of_degree(system.n, d)
    col_index = {pack.pack(m): i for i, m in enumerate(columns)}
    labels = []
    cells = []
    values = []
    for j, f in enumerate(system.polys):
        if degrees[j] > d:
            continue
        owned = owners.get(d - degrees[j], {}) if owners else {}
        terms = pack.terms(f)
        coeffs = list(terms.values())
        for mult in monomials_of_degree(system.n, d - degrees[j]):
            if owned.get(mult, j) < j:
                continue
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
    # input row of each pivot: the first row independent of the rows before
    # it whose remainder modulo them leads there
    pivot_rows: tuple


def _rref_inplace(a: np.ndarray, p: int):
    """Gauss-Jordan elimination of an int64 matrix with entries in [0, p).
    Rows stay in place: a column's pivot row is the first free row, in input
    order, that is nonzero there.  The pivot rows are gathered in pivot order
    at the end, leaving the canonical RREF in ``a``; returns the pivot columns
    and the input row of each."""
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
    return pivots, pivot_rows


def rref_naive(a: np.ndarray, p: int) -> RrefResult:
    """Canonical reduced row echelon form by Gauss-Jordan elimination over
    F_p, for primes p < 2^31.

    Updates are left unreduced until the next one could pass 2^63 - 1; the
    pivot column and the pivot row are reduced before they are used, so the
    pivots are those of the exact elimination.
    """
    work = np.asarray(a, dtype=np.int64) % p
    pivots, pivot_rows = _rref_inplace(work, p)
    return RrefResult(work, tuple(pivots), len(pivots), tuple(pivot_rows))


def rref_block(a: np.ndarray, p: int) -> RrefResult:
    """RREF via repeated elimination of 2l-row batches (l = column count).

    Each pass reduces the first 2l rows of the pool and puts the surviving
    nonzero rows back in front, each labelled with the input row of its
    pivot; at most ceil(k/l) passes.
    The result is bitwise identical to :func:`rref_naive`.
    """
    work = np.asarray(a, dtype=np.int64) % p
    k, ell = work.shape
    if ell == 0 or k <= 2 * ell:
        return rref_naive(work, p)
    pool, labels = work, np.arange(k)
    while pool.shape[0] > 2 * ell:
        batch = pool[: 2 * ell].copy()
        _, batch_rows = _rref_inplace(batch, p)
        pool = np.vstack([batch[: len(batch_rows)], pool[2 * ell:]])
        labels = np.concatenate([labels[batch_rows], labels[2 * ell:]])
    final = rref_naive(pool, p)
    out = np.zeros((k, ell), dtype=np.int64)
    out[: final.rank] = final.matrix[: final.rank]
    pivot_rows = tuple(labels[list(final.pivot_rows)].tolist())
    return RrefResult(out, final.pivots, final.rank, pivot_rows)


# ---------------------------------------------------------------------------
# Groebner bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """Complete reduced basis: monic elements sorted by (degree, descending
    DRL leading monomial); ``keys`` are their packed leading keys, ascending."""

    elements: tuple
    keys: tuple = _dc_field(default=(), compare=False, repr=False)

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
    minimal = []
    for m in sorted(by_lcm, reverse=True):  # ascending DRL
        if not any(divides(seen, m) for seen in minimal):
            minimal.append(m)
    for m in minimal:
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
    fld, pack = system.field, _Packing(system.n)
    return _complete([_monic(pack.terms(f), fld.p) for f in system.polys], pack, fld)


def gb_up_to(system: PolySystem, cap: int) -> GroebnerBasis:
    """Complete reduced Groebner basis of a homogeneous system: degree-by-
    degree Macaulay RREFs up to degree ``cap``, then Buchberger's loop on the
    pairs whose lcm lies above ``cap``.  The loop stops before M_d, with no
    pairs, at the first d where every degree-d monomial is divisible by a
    collected leading monomial, as then every monomial above is too.  The cap
    moves only the degree where elimination hands over; the basis is the same
    for every cap accepted.

    Each M_d is built without the rows the F5 criterion skips; its owners
    (pivot monomial -> generator of the pivot row) serve the higher degrees.
    Each RREF row whose leading monomial no earlier row's divides is kept as
    a packed polynomial: the columns are DRL-descending, so their keys ascend
    and the pivot, a 1, comes first.
    """
    if not system.homogeneous:
        raise NotHomogeneous("Macaulay elimination needs a homogeneous system")
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    degrees = system.degrees
    if cap < max(degrees):
        raise DegreeTooSmall(f"cap {cap} below the largest generator degree {max(degrees)}")
    _check_degree_loop(system, min(degrees), cap)

    fld, n = system.field, system.n
    pack = _Packing(n)
    divides = pack.divides
    collected = []
    collected_lms = []
    powers = 0  # guard bits of the variables with a pure power in collected_lms
    owners = {}
    for d in range(min(degrees), cap + 1):
        # if every degree-d monomial is a leading one, so is every one above
        if powers == pack.guard and all(
            any(divides(g, t) for g in collected_lms)
            for t in reversed(_packed_monomials(n, d))  # DRL-least first
        ):
            return _complete(collected, pack, fld, above=math.inf)
        mac = build_macaulay(system, d, owners)
        res = rref_naive(mac.matrix, fld.p)
        pivot_rows = zip(res.pivots, res.pivot_rows)
        owners[d] = {mac.columns[c]: mac.row_labels[i][1] for c, i in pivot_rows}
        keys = [pack.pack(m) for m in mac.columns]
        for row_idx, piv in enumerate(res.pivots):
            lm = keys[piv]
            if any(divides(g, lm) for g in collected_lms):
                continue
            row = res.matrix[row_idx]
            collected.append({keys[i]: int(row[i]) for i in np.flatnonzero(row).tolist()})
            collected_lms.append(lm)
            support = pack.support(lm)
            if not support & (support - 1):
                powers |= support
    # every leading monomial of degree <= cap in the ideal is divisible by a
    # collected one, so the rows are a Groebner basis up to degree cap
    return _complete(collected, pack, fld, above=cap)


def leading_monomial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Minimal generators of <LM(G)> as a MonomialIdeal: the packed leading
    keys of the reduced basis, which no other divides."""
    if not basis.elements:
        raise EmptyBasis("empty basis has no leading-monomial ideal")
    if len(basis.keys) != len(basis.elements):
        raise InvariantViolation("a basis must carry the leading key of each element")
    return MonomialIdeal(basis.elements[0].n, basis.keys)
