"""The generic Hilbert series, its positive truncation, and the solving-degree
and cost bounds derived from them.

Run:  python3 demos/02_series_and_degree_bounds.py
"""

from sgb import (
    complexity_estimate,
    degree_bound_Dnm,
    froberg_series,
    lazard_bound,
    positive_truncate,
    truncated_froberg_polynomial,
)

# The series prod(1 - z^(d_j)) / (1 - z)^n predicts the Hilbert function of a
# generic system of m forms of degrees d_j in n variables, for as long as its
# coefficients stay positive.
n, degrees = 2, [2, 2, 2]
series = froberg_series(n, degrees, cap=8)
print(f"series for three quadrics in {n} variables:", series.coeffs)

# Truncating after the last consecutive positive coefficient gives the
# expected Hilbert series of a semi-regular system.
prefix = positive_truncate(series)
print("positive truncation:", prefix, "-> expected HF 1, 2, then 0")

# For m >= n the degree bound is deg(truncation) + 1; for m = n - 1 it is the
# full degree sum; the classical Macaulay/Lazard bound is kept for comparison.
print("\nshape (n, m, degrees)   D bound   Lazard")
for shape in [(2, 2, [2, 2]), (2, 3, [2, 2, 2]), (3, 4, [2, 2, 2, 2]),
              (3, 2, [2, 2]), (4, 8, [2] * 8), (5, 10, [2] * 10)]:
    nn, mm, dd = shape
    print(f"  {str(shape):24} {degree_bound_Dnm(nn, mm, dd):5}   {lazard_bound(nn, mm, dd):5}")

# The bound feeds the cost model: reducing all Macaulay matrices up to degree
# D costs about m * C(n+D-1, D)^omega field operations.
for omega in (2, 2.807):
    cost_new, cost_classic = complexity_estimate(5, 10, degree_bound_Dnm(5, 10, [2] * 10), omega)
    print(f"\nomega = {omega}: cost {cost_new:.3e}  (classical estimate {cost_classic:.3e})")

# For m >= n the truncation degree never exceeds the Lazard bound L, so one
# series of L + 1 coefficients always holds it.
print("\ntruncation for a very overdetermined shape:",
      truncated_froberg_polynomial(3, [2] * 12))
