"""Macaulay matrices, exact RREF over F_p (naive and block variants), and
complete reduced Groebner bases two ways: Macaulay elimination up to a degree
finished by Buchberger's loop (``gb_up_to``), and the Buchberger oracle.

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

A Buchberger run reduces against one append-only reducer set that caches,
per monomial, the first reducer in list order whose leading monomial divides
it (a miss records how many reducers were checked; only later ones are tried
again), and each reducer tail times each shift.  Remainders are therefore
those of plain division, whatever the caches hold.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PolySystem,
    Polynomial,
    drl_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)
from .errors import (
    BudgetExhausted,
    DegreeTooSmall,
    EmptyBasis,
    InvalidDegree,
    MatrixTooLarge,
    NotHomogeneous,
    ZeroPolynomial,
)
from .hilbert import minimalize

# Largest Macaulay matrix the engine builds (2^27 int64 cells are 1 GiB), and
# the most cells a gb_up_to degree loop builds in all.
MAX_MACAULAY_CELLS = 2**27
# Most degrees a gb_up_to loop walks: each costs a build and an RREF however
# small its matrix is (in one variable every matrix has one column).
MAX_LOOP_DEGREES = 2**10
# Most S-pair reductions one Buchberger loop makes, on every route: a count,
# not a time, so a seeded run stops at the same pair on every machine.
MAX_S_PAIRS = 200_000

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

    columns = monomials_of_degree(system.n, d)
    col_index = {m: i for i, m in enumerate(columns)}
    labels = []
    cells = []
    values = []
    for j, f in enumerate(system.polys):
        if degrees[j] > d:
            continue
        owned = owners.get(d - degrees[j], {}) if owners else {}
        terms = f.coeffs.items()
        for mult in monomials_of_degree(system.n, d - degrees[j]):
            if owned.get(mult, j) < j:
                continue
            base = len(labels) * len(columns)
            for m, c in terms:
                cells.append(base + col_index[mono_mul(mult, m)])
                values.append(c)
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
    DRL leading monomial)."""

    elements: tuple

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial() for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _sorted_basis(elements) -> tuple:
    return tuple(
        sorted(
            elements,
            key=lambda g: (g.degree(), tuple(-v for v in drl_key(g.leading_monomial())[1])),
        )
    )


def max_gb_deg(basis: GroebnerBasis) -> int:
    """Maximal total degree in the basis."""
    if not basis.elements:
        raise EmptyBasis("empty basis has no maximal degree")
    return max(g.degree() for g in basis.elements)


class _Reducers:
    """Append-only reducers with cached monomial work.  ``divisor`` maps a
    monomial to the index of its first dividing reducer, or to ``~k`` for a
    miss after checking ``k`` reducers; ``shifted`` maps ``(index, shift)``
    to that tail times ``x^shift`` as ``(heap entry, coefficient)`` pairs;
    ``entries`` holds one heap entry per monomial, shared by all tails."""

    __slots__ = ("lms", "lc_invs", "tails", "divisor", "shifted", "entries")

    def __init__(self, polys=()):
        self.lms = []
        self.lc_invs = []
        self.tails = []
        self.divisor = {}
        self.shifted = {}
        self.entries = {}
        for g in polys:
            self.append(g)

    def append(self, g: Polynomial) -> None:
        self.lms.append(g.leading_monomial())
        self.lc_invs.append(g.field.inv(g.leading_coeff()))
        self.tails.append(g.terms()[1:])

    def find(self, m):
        """Index of the first reducer whose leading monomial divides ``m``,
        or None."""
        hit = self.divisor.get(m, -1)
        if hit >= 0:
            return hit
        lms = self.lms
        for i in range(~hit, len(lms)):
            if all(a <= b for a, b in zip(lms[i], m)):
                self.divisor[m] = i
                return i
        self.divisor[m] = ~len(lms)
        return None

    def shifted_tail(self, i: int, shift):
        """Tail of reducer ``i`` times ``x^shift``, each term as
        ``((-deg, reversed monomial, monomial), coefficient)``."""
        key = (i, shift)
        tail = self.shifted.get(key)
        if tail is None:
            tail = []
            for gm, gc in self.tails[i]:
                m = tuple(a + b for a, b in zip(gm, shift))
                entry = self.entries.get(m)
                if entry is None:
                    entry = self.entries[m] = (-sum(m), m[::-1], m)
                tail.append((entry, gc))
            self.shifted[key] = tail
        return tail


def normal_form(f: Polynomial, reducers) -> Polynomial:
    """Remainder of ``f`` on division by ``reducers`` (full tail reduction).

    ``reducers`` is a sequence of polynomials or a run's :class:`_Reducers`,
    whose caches are reused.  Terms leave a heap in descending DRL order, and
    each is reduced by the first reducer in list order whose leading monomial
    divides it.  Reducers are append-only, so a cached index stays the first
    divisor and a cached miss after k reducers is completed by testing the
    later ones; the remainder does not depend on the caches.
    """
    if not isinstance(reducers, _Reducers):
        reducers = _Reducers(reducers)
    fld = f.field
    p = fld.p
    lms, lc_invs = reducers.lms, reducers.lc_invs
    # work values are reduced mod p only when their term is popped; a term
    # enters the heap once, as every term added is below the popped one
    work = dict(f.coeffs)
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[2]
        c = work.pop(m) % p
        if not c:
            continue
        i = reducers.find(m)
        if i is None:
            remainder[m] = c
            continue
        scale = c * lc_invs[i] % p
        shift = tuple(a - b for a, b in zip(m, lms[i]))
        for entry, gc in reducers.shifted_tail(i, shift):
            key = entry[2]
            old = work.get(key)
            if old is None:
                work[key] = -scale * gc
                heapq.heappush(heap, entry)
            else:
                work[key] = old - scale * gc
    return Polynomial(fld, f.n, remainder)


def _interreduce(elements, reduced: int = 0) -> list:
    """The reduced basis from a minimal Groebner basis ``elements``.

    A term met while reducing g lies below LM(g), so only elements with a
    smaller leading monomial can divide it, and the tail of g reduces to its
    unique normal form modulo the ideal.  So each element, in ascending DRL
    order of leading monomial, is reduced by the ones already reduced.  The
    first ``reduced`` elements in that order are taken as already reduced.
    """
    if len(elements) == 1:  # a lone element has nothing to be reduced by
        return [elements[0].monic()]
    done = _Reducers()
    out = []
    for k, g in enumerate(sorted(elements, key=lambda g: drl_key(g.leading_monomial()))):
        r = g if k < reduced else normal_form(g, done).monic()
        done.append(r)
        out.append(r)
    return out


def _minimalize_basis(elements) -> list:
    """The first element for each minimal leading monomial."""
    by_lm = {}
    for g in elements:
        by_lm.setdefault(g.leading_monomial(), g)
    return [by_lm[lm] for lm in minimalize(by_lm, elements[0].n)]


def _spoly(reducers: _Reducers, i: int, j: int, lcm, fld, n: int) -> Polynomial:
    """S-polynomial of reducers i and j, where ``lcm`` is the lcm of their
    leading monomials, built from their cached shifted tails."""
    lms, lc_invs = reducers.lms, reducers.lc_invs
    out = {}
    for entry, c in reducers.shifted_tail(i, mono_div(lcm, lms[i])):
        out[entry[2]] = c * lc_invs[i]
    for entry, c in reducers.shifted_tail(j, mono_div(lcm, lms[j])):
        m = entry[2]
        out[m] = out.get(m, 0) - c * lc_invs[j]
    return Polynomial(fld, n, out)


def _update_pairs(lmG, pairs, lcms, t):
    """Gebauer-Moeller pruning when generator index t is appended; ``lcms``
    maps every pair ever created to ``(drl_key(lcm), lcm)`` and gains the new
    pairs."""
    lmf = lmG[t]
    with_new = [mono_lcm(lm, lmf) for lm in lmG[:t]]
    kept = set()
    for i, j in pairs:
        lcm_ij = lcms[i, j][1]
        if (
            not mono_divides(lmf, lcm_ij)
            or lcm_ij == with_new[i]
            or lcm_ij == with_new[j]
        ):
            kept.add((i, j))
    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(with_new[i], []).append(i)
    minimal = []
    for lcm in sorted(by_lcm, key=drl_key):
        if not any(mono_divides(seen, lcm) for seen in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        # product criterion: coprime leading monomials reduce to zero
        if any(lcm == mono_mul(lmG[i], lmf) for i in by_lcm[lcm]):
            continue
        pair = (min(by_lcm[lcm]), t)
        kept.add(pair)
        lcms[pair] = (drl_key(lcm), lcm)
    return kept


def _complete(polys, above: int | None = None) -> GroebnerBasis:
    """The reduced basis of the ideal of ``polys`` by Buchberger's loop from
    ``polys``: normal pair selection, Gebauer-Moeller pair pruning, and one
    :class:`_Reducers` that grows with the basis.

    When ``above`` is given, ``polys`` must be the monic reduced Groebner
    basis up to that degree, so every initial pair whose lcm has degree <=
    ``above`` reduces to zero and is dropped, and ``polys`` are not reduced
    again: the loop adds elements of higher degree only, which divide none of
    their terms.  A loop that would reduce more than ``MAX_S_PAIRS`` S-pairs
    raises BudgetExhausted.
    """
    fld, n = polys[0].field, polys[0].n
    G = []
    reducers = _Reducers()
    pairs = set()
    lcms = {}  # pair -> (drl_key(lcm), lcm), filled when the pair is created
    for f in polys:
        G.append(f.monic())
        reducers.append(G[-1])
        pairs = _update_pairs(reducers.lms, pairs, lcms, len(G) - 1)
    if above is not None:
        pairs = {pair for pair in pairs if lcms[pair][0][0] > above}

    processed = 0
    while pairs:
        if processed >= MAX_S_PAIRS:
            raise BudgetExhausted(
                f"basis incomplete after {processed} S-pair reductions"
            )
        processed += 1
        i, j = min(pairs, key=lcms.__getitem__)
        pairs.discard((i, j))
        spoly = _spoly(reducers, i, j, lcms[i, j][1], fld, n)
        r = normal_form(spoly, reducers)
        if not r.is_zero():
            G.append(r.monic())
            reducers.append(G[-1])
            pairs = _update_pairs(reducers.lms, pairs, lcms, len(G) - 1)

    reduced = _interreduce(_minimalize_basis(G), len(polys) if above is not None else 0)
    return GroebnerBasis(_sorted_basis(reduced))


def buchberger(system: PolySystem) -> GroebnerBasis:
    """Complete reduced DRL Groebner basis (normal pair selection,
    Gebauer-Moeller pair pruning); raises BudgetExhausted after
    ``MAX_S_PAIRS`` S-pair reductions.
    """
    if not system.polys:
        raise EmptyBasis("cannot compute a basis for an empty system")
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    return _complete(system.polys)


def gb_up_to(system: PolySystem, cap: int) -> GroebnerBasis:
    """Complete reduced Groebner basis of a homogeneous system: degree-by-
    degree Macaulay RREFs up to degree ``cap``, then Buchberger's loop on the
    pairs whose lcm lies above ``cap``.  The cap moves only the degree where
    elimination hands over; the basis is the same for every cap accepted.

    Each M_d is built without the rows the F5 criterion skips; its owners
    (pivot monomial -> generator of the pivot row) serve the higher degrees.
    """
    if not system.homogeneous:
        raise NotHomogeneous("Macaulay elimination needs a homogeneous system")
    if any(f.is_zero() for f in system.polys):
        raise ZeroPolynomial("system contains the zero polynomial")
    degrees = system.degrees
    if cap < max(degrees):
        raise DegreeTooSmall(f"cap {cap} below the largest generator degree {max(degrees)}")
    _check_degree_loop(system, min(degrees), cap)

    fld = system.field
    collected = []
    collected_lms = []
    owners = {}
    for d in range(min(degrees), cap + 1):
        mac = build_macaulay(system, d, owners)
        res = rref_naive(mac.matrix, fld.p)
        pivot_rows = zip(res.pivots, res.pivot_rows)
        owners[d] = {mac.columns[c]: mac.row_labels[i][1] for c, i in pivot_rows}
        for row_idx, piv in enumerate(res.pivots):
            lm = mac.columns[piv]
            if any(mono_divides(g, lm) for g in collected_lms):
                continue
            row = res.matrix[row_idx]
            coeffs = {mac.columns[i]: int(row[i]) for i in np.flatnonzero(row).tolist()}
            collected.append(Polynomial(fld, system.n, coeffs))
            collected_lms.append(lm)
    # every leading monomial of degree <= cap in the ideal is divisible by a
    # collected one, so the rows are a Groebner basis up to degree cap
    return _complete(collected, above=cap)


def leading_monomial_ideal(basis: GroebnerBasis):
    """Minimal generators of <LM(G)> as a MonomialIdeal."""
    if not basis.elements:
        raise EmptyBasis("empty basis has no leading-monomial ideal")
    n = basis.elements[0].n
    return minimalize(basis.leading_monomials(), n)
