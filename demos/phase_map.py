"""Text-mode phase map of matrix completion success.

For each (p, r) cell we count recoveries above 70 dB out of a few trials.
The transition from impossible (p below the degree count) to reliable is
sharp; cells left of each row's d_r marker can never succeed.
"""

from admira import degrees_of_freedom, phase_transition
from admira.harness import DEFAULT_SUCCESS_DB

n = 40
p_grid = [60, 150, 300, 450, 700, 1000, 1300, 1600]
r_grid = [1, 2, 3, 4]
trials = 4
successes = phase_transition(n, n, p_grid, r_grid, trials=trials, seed=29)

print(f"successes out of {trials} (SNR >= {DEFAULT_SUCCESS_DB:.0f} dB), n = m = {n}")
print(f"{'':>10}" + "".join(f"{p:>7}" for p in p_grid))
for i, r in enumerate(r_grid):
    cells = "".join(f"{int(c):>7}" for c in successes[i])
    print(f"r={r} d_r={degrees_of_freedom(n, n, r):<4}" + cells)
