"""Sampled rank-restricted isometry diagnostics.

The isometry constant delta_r of a measurement operator bounds how far
||A Z||^2 can drift from ||Z||_F^2 over unit-norm matrices of rank <= r.
It cannot be computed exactly, so we report certified lower bounds from
random low-rank samples, and stress-test the induced bound on measured
inner products of orthogonal low-rank pairs.
"""

from admira import (
    EntrySampler,
    GaussianOperator,
    estimate_delta,
    restricted_orthogonality_check,
)

m = n = 10

print("sampled lower bounds on delta_r (gaussian operator, growing p):")
for p in (200, 600, 2000):
    op = GaussianOperator(m, n, p, seed=3)
    line = f"  p = {p:5d}: "
    for r in (1, 2, 3):
        delta_hat = estimate_delta(op, r, 400, seed=17)
        line += f"delta_{r} >= {delta_hat:.3f}  "
    print(line)

full = EntrySampler.random(m, n, m * n, seed=0)
delta_hat = estimate_delta(full, 3, 200, seed=5)
print(f"\nexhaustive sampler is an exact isometry: delta_3 >= {delta_hat:.2e}")

op = GaussianOperator(m, n, 600, seed=3)
rep = restricted_orthogonality_check(op, 2, 300, seed=23)
print(f"\northogonal-pair stress test (r = 2, 300 pairs):")
print(f"  augmented delta_hat      = {rep.delta_hat:.3f}")
print(f"  max |<AX, AY>| ratio     = {rep.max_ratio:.3f} (of delta*||X||*||Y||)")
print(f"  sqrt(2)-bound violations = {rep.violations_sqrt2}")
print(f"  constant-1 violations    = {rep.violations_1} (real field keeps the tighter bound)")
