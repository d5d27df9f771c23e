"""Macaulay matrices, exact RREF over F_p, and Groebner bases two ways:
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
