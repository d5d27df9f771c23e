"""Macaulay matrices, their F5 row pruning, exact RREF over F_p, and Groebner
bases two ways: degree-by-degree linear algebra against the Buchberger oracle.

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

# The F5 criterion prunes rows that would reduce to zero.  In the RREF of
# M_2, x1^2 is the pivot of a row of f1, so x1^2 lies in LM(<f1>) and the
# degree-4 row x1^2 * f2 is in the span of the others: x1^2 * f2 =
# x1*x2 * f1 - x2^2 * f2.  gb_up_to passes build_macaulay these owners
# (pivot monomial -> generator of its pivot row) from every lower degree.
m2 = build_macaulay(system, 2)
res2 = rref_naive(m2.matrix, 7)
owned = zip(res2.pivots, res2.pivot_rows)
owners = {2: {m2.columns[c]: m2.row_labels[i][1] for c, i in owned}}
full, pruned = build_macaulay(system, 4), build_macaulay(system, 4, owners)
for name, m4 in (("full", full), ("pruned", pruned)):
    print(f"\ndegree-4 Macaulay matrix, {name}, rank {rref_naive(m4.matrix, 7).rank}:")
    print("rows", m4.row_labels)
    print(m4.dump(), end="")
assert set(full.row_labels) - set(pruned.row_labels) == {((2, 0), 1)}
assert np.array_equal(
    rref_naive(full.matrix, 7).matrix[:5], rref_naive(pruned.matrix, 7).matrix
)

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
