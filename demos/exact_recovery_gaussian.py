"""Recover a low-rank matrix from dense Gaussian measurements.

A rank-2 matrix of size 20x20 has d_r = r(m + n - r) = 76 essential
unknowns. We measure it with p random Gaussian functionals and watch the
solver's residual and true error fall as p grows past d_r.
"""

from admira import AdmiraConfig, admira_solve, degrees_of_freedom, gen_problem, snr_recon

m = n = 20
r = 2
dr = degrees_of_freedom(n, m, r)
print(f"target: {m}x{n}, rank {r}, degrees of freedom d_r = {dr}\n")

for factor in (5, 10, 20):
    p = factor * dr
    prob = gen_problem(n, m, r, p, kind="gaussian", seed=42)
    res = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=r, max_iter=60),
                       truth=prob.x_true)
    snr = snr_recon(prob.x_true, res.matrix())
    print(f"p = {factor:2d}*d_r = {p:4d}: stop={res.stop_reason:9s} "
          f"iterations={res.iterations:2d}  SNR_recon = {snr:6.1f} dB")
    if factor == 20:
        print("\nper-iteration trace at p = 20*d_r:")
        for k, row in enumerate(res.trace, start=1):
            print(f"  iter {k:2d}: relative residual {row.rel_residual:.3e}"
                  f"   error {row.error_fro:.3e}")
