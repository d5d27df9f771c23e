"""Macaulay matrices, exact RREF over F_p, how the engine eliminates each
degree from the rows of the degree below, and Groebner bases two ways:
degree-by-degree linear algebra against the Buchberger oracle.

Run:  python3 demos/04_macaulay_engine.py
"""

import numpy as np

from sgb import (
    PolySystem,
    Polynomial,
    PrimeField,
    buchberger,
    build_macaulay,
    gb_up_to,
    max_gb_deg,
    mono_mul,
    monomials_of_degree,
    rref_block,
    rref_naive,
)

F7 = PrimeField(7)
system = PolySystem(
    F7,
    2,
    (
        Polynomial(F7, 2, {(2, 0): 1, (0, 2): 1}),  # x1^2 + x2^2
        Polynomial(F7, 2, {(1, 1): 1}),             # x1*x2
    ),
)

# The degree-3 Macaulay matrix: rows are monomial multiples of the
# generators, columns the degree-3 monomials in descending order.
mac = build_macaulay(system, 3)
print("degree-3 Macaulay matrix (columns", mac.columns, "):")
print(mac.dump())

# Reducing it reveals the new leading monomial x2^3.
res = rref_naive(mac.matrix, 7)
print("pivot columns:", res.pivots, "-> monomials",
      [mac.columns[c] for c in res.pivots])

# gb_up_to never builds M_3.  The RREF rows of degree 2 times each variable
# (and the degree-3 generators, none here) span the same space (Faugere's
# F4 reuse).  Each product x_k * u of a leading monomial u is a column of P;
# the first row leading there is its pivot row, and those rows form a unit
# upper triangular block.  Only the other rows, reduced by the pivot rows
# (the Schur complement D of the Faugere-Lachartre split), are eliminated,
# on the columns N outside P.
m2 = build_macaulay(system, 2)
r2 = rref_naive(m2.matrix, 7)
columns = {m: i for i, m in enumerate(monomials_of_degree(2, 3))}
products = []  # (variable, row of RREF(M_2), the shifted row)
for k, x in enumerate(((1, 0), (0, 1))):
    for i, row in enumerate(r2.matrix[: r2.rank]):
        shifted = np.zeros(len(columns), dtype=np.int64)
        for c in np.flatnonzero(row):
            shifted[columns[mono_mul(m2.columns[c], x)]] = row[c]
        products.append((k, i, shifted))
reuse = np.array([row for _, _, row in products])
assert np.array_equal(rref_naive(reuse, 7).matrix[: res.rank], res.matrix[: res.rank])
leads = [int(np.flatnonzero(row)[0]) for row in reuse]
pivot_rows = {lead: r for r, lead in reversed(list(enumerate(leads)))}
P = sorted(pivot_rows)
N = [c for c in range(len(columns)) if c not in pivot_rows]
print("\nproducts x_k * row, leading columns", leads, "; P =", P, ", N =", N)
pivot_block = reuse[[pivot_rows[c] for c in P]][:, P + N]  # [A | B]
A = pivot_block[:, : len(P)]
assert np.array_equal(np.diag(A), np.ones(len(P))) and not np.tril(A, -1).any()
X = rref_naive(pivot_block, 7).matrix[:, len(P):]  # [I | A^-1 B]
rest = [r for r in range(len(products)) if r not in pivot_rows.values()]
D = (reuse[rest][:, N] - reuse[rest][:, P] @ X) % 7
# the one repeated product, x2 * (x1^2 + x2^2), reduced by the pivot row
# x1 * (x1*x2) that leads at x1^2*x2, is x2^3: the new leading monomial
print("rows outside the pivots:", rest, "-> D =", D.tolist())
assert D.tolist() == [[1]]

# Degree-by-degree reduction finds the basis up to a cap, and Buchberger's
# loop on the pairs above the cap finishes it; the result equals the
# Buchberger oracle exactly.
oracle = buchberger(system)
engine = gb_up_to(system, max_gb_deg(oracle))
print("\nBuchberger oracle: ", [str(g) for g in oracle])
print("Macaulay extraction:", [str(g) for g in engine])
assert [str(g) for g in oracle] == [str(g) for g in engine]
# A cap of 2, below the true maximal degree 3, gives the same basis: the
# elimination stops at x1^2 + x2^2 and x1*x2, and the loop adds x2^3.
assert [str(g) for g in gb_up_to(system, 2)] == [str(g) for g in oracle]

# Tall matrices can be reduced in 2l-row batches (l = column count) with the
# same bit-exact result; this is the elimination scheme behind the
# O(k * l^(omega-1)) RREF cost.
rng = np.random.default_rng(0)
tall = rng.integers(0, 7, size=(60, 5))
assert np.array_equal(rref_naive(tall, 7).matrix, rref_block(tall, 7).matrix)
print("\nblock RREF of a 60 x 5 matrix matches the naive RREF bitwise")
