"""Seeded Monte-Carlo exploration: how often random systems are semi-regular,
how tight the degree bound is, and the theorem acting as a batch oracle.

Run:  python3 demos/06_experiments.py
"""

import io

from sgb import run_experiment, summarize, write_csv

# Generic dense systems: four quadrics in three variables over F_31.
# Trials are seeded per index, so reruns are byte-identical.
records = run_experiment(
    n=3, m=4, degrees=(2, 2, 2, 2), q=31, trials=40, seed=7, construction="generic"
)
print(summarize(records))

# The same shape under the Z-construction (last-corner coefficient forced to
# zero): every trial has a projective zero, hence Krull dimension >= 1, and
# the plain degree of regularity is infinite.
z_records = run_experiment(
    n=3, m=4, degrees=(2, 2, 2, 2), q=31, trials=40, seed=7, construction="Z"
)
print(summarize(z_records))
print("dimensions seen under Z:", sorted({r.r for r in z_records}))

# The theorem as a batch oracle: among rows whose hypotheses were verified
# (dimension <= 1, form found, generalized semi-regular), a single
# inequality violation would be an implementation bug.
verified = [r for r in records + z_records if r.hypotheses_verified]
violations = [r for r in verified if r.ineq_maxGB is False or r.ineq_Dnm is False]
print(f"\n{len(verified)} verified rows, {len(violations)} violations")

# Records serialize to a stable CSV schema (columns fixed, NA for
# undefined/not-applicable, booleans as true/false).
buffer = io.StringIO()
write_csv(records[:3], buffer)
print("\nfirst CSV rows:")
print(buffer.getvalue())
