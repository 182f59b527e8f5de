"""End-to-end acceptance gates.

Each test evaluates one gate at its pinned tolerance and prints a single
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they happen). Master seeds are frozen, so every gate is exactly
reproducible; per-trial seeds derive from them through the package's
splittable scheme.

Known-red gates: 1 (exact-recovery iteration budget) and 2 (mean-iteration
budget for the scaled comparison). At these small operating points the
measurement operators sit far outside the near-isometry regime that fast
convergence needs, so the iteration budgets cannot be met by this
algorithm family; the same solver converges in a handful of iterations at
larger scale (see the acceptance notes in the README). The gates are kept
at their stated thresholds rather than loosened.
"""

import math

import numpy as np
import pytest

from admira.baselines import SvtConfig, svt_solve
from admira.cli import main as cli_main
from admira.harness import (
    degrees_of_freedom,
    gen_problem,
    phase_transition,
    snr_recon,
)
from admira.linalg import frobenius_norm, svd_truncated
from admira.operators import EntrySampler, GaussianOperator
from admira.ripcheck import restricted_orthogonality_check
from admira.seeding import derive_seed
from admira.solver import CONVERGED, AdmiraConfig, admira_solve

from oracles import reconstruct, singular_values_charpoly

SEED_EXACT = 20101
SEED_TABLE = 20102
SEED_NOISY = 20103
SEED_SPECTRAL = 20105
SEED_OPERATORS = 20106
SEED_ORTHO = 20107
SEED_PHASE = 20108

PHASE_P_GRID = (60, 150, 300, 450, 700, 1000, 1300, 1600)


def gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def exact_recovery_runs():
    runs = []
    for t in range(20):
        prob = gen_problem(20, 20, 2, 380, kind="gaussian",
                           seed=derive_seed(SEED_EXACT, t))
        res = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=2),
                           truth=prob.x_true)
        runs.append((prob, res))
    return runs


def test_gate_01_exact_recovery_gaussian(exact_recovery_runs):
    # 20x20, rank 2, p = 5*d_r = 380, noiseless: >= 19/20 trials must reach
    # relative residual <= 1e-7 and SNR >= 70 dB within 18 iterations
    good = 0
    for prob, res in exact_recovery_runs:
        snr = snr_recon(prob.x_true, res.matrix())
        good += (res.stop_reason == CONVERGED and res.iterations <= 18
                 and res.trace[-1].rel_residual <= 1e-7 and snr >= 70.0)
    gate("1 exact recovery (gaussian, p=5*d_r)", good >= 19, f"{good}/20 trials")


def test_gate_02_scaled_completion_comparison():
    # 200x200, rank 2, p = 0.2*n^2: ADMiRA >= 15/20 at 70 dB with mean
    # iterations <= 40; SVT >= 10/20 with strictly more mean iterations
    admira_ok = svt_ok = 0
    admira_iters = []
    svt_iters = []
    for t in range(20):
        prob = gen_problem(200, 200, 2, 8000, kind="entry",
                           seed=derive_seed(SEED_TABLE, t))
        res = admira_solve(prob.operator, prob.b,
                           AdmiraConfig(rank=2, max_iter=150))
        admira_ok += snr_recon(prob.x_true, res.matrix()) >= 70.0
        admira_iters.append(res.iterations)
        sres = svt_solve(prob.operator, prob.b, SvtConfig(max_iter=500))
        svt_ok += snr_recon(prob.x_true, sres.matrix()) >= 70.0
        svt_iters.append(sres.iterations)
    mean_a = float(np.mean(admira_iters))
    mean_s = float(np.mean(svt_iters))
    ok = (admira_ok >= 15 and mean_a <= 40.0 and svt_ok >= 10 and mean_s > mean_a)
    gate("2 scaled completion comparison", ok,
         f"admira {admira_ok}/20 at 70dB mean_iters={mean_a:.1f} (<=40); "
         f"svt {svt_ok}/20 mean_iters={mean_s:.1f} (> admira)")


def test_gate_03_noisy_stability():
    # criterion-1 setup at SNR_meas = 60 dB: >= 18/20 trials must satisfy
    # ||X - Xhat||_F <= 20 * ||nu||_2
    good = 0
    for t in range(20):
        prob = gen_problem(20, 20, 2, 380, kind="gaussian", snr_meas_db=60.0,
                           seed=derive_seed(SEED_NOISY, t))
        res = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=2))
        err = frobenius_norm(prob.x_true - res.matrix())
        good += err <= 20.0 * np.linalg.norm(prob.nu)
    gate("3 noisy stability (error <= 20*||nu||)", good >= 18, f"{good}/20 trials")


def test_gate_04_convergence_contraction(exact_recovery_runs):
    # geometric-mean error contraction <= 0.9 over the pre-convergence
    # window; error non-increasing after iteration 1 in >= 19/20 trials
    contraction_ok = 0
    monotone_ok = 0
    for prob, res in exact_recovery_runs:
        floor = 1e-6 * frobenius_norm(prob.x_true)
        errors = [row.error_fro for row in res.trace]
        window = []
        for e in errors:
            window.append(e)
            if e <= floor:
                break
        ratios = [window[i + 1] / window[i] for i in range(len(window) - 1)]
        if not ratios or math.exp(np.mean(np.log(ratios))) <= 0.9:
            contraction_ok += 1
        if all(window[i + 1] <= window[i] * (1 + 1e-9) for i in range(len(window) - 1)):
            monotone_ok += 1
    ok = contraction_ok >= 19 and monotone_ok >= 19
    gate("4 convergence contraction", ok,
         f"contraction {contraction_ok}/20, monotone {monotone_ok}/20")


def test_gate_05_spectral_correctness():
    # 500 random matrices up to 6x6 vs the characteristic-polynomial oracle
    # (1e-8 relative); Eckart-Young tail identity on 200 random 8x8 matrices
    rng = np.random.default_rng(SEED_SPECTRAL)
    worst_sigma = 0.0
    for _ in range(500):
        m, n = rng.integers(1, 7, size=2)
        M = rng.standard_normal((m, n))
        _, got, _ = svd_truncated(M, min(m, n))
        want = singular_values_charpoly(M)
        worst_sigma = max(worst_sigma,
                          np.abs(got - want).max() / max(got[0], 1.0))
    worst_tail = 0.0
    for _ in range(200):
        M = rng.standard_normal((8, 8))
        _, sigma, _ = svd_truncated(M, 8)
        for k in (1, 2, 3):
            tail = float(np.sum(sigma[k:] ** 2))
            got = frobenius_norm(M - reconstruct(*svd_truncated(M, k))) ** 2
            worst_tail = max(worst_tail, abs(got - tail) / frobenius_norm(M) ** 2)
    ok = worst_sigma <= 1e-8 and worst_tail <= 1e-9
    gate("5 spectral correctness", ok,
         f"max sigma dev {worst_sigma:.2e} (<=1e-8), tail dev {worst_tail:.2e} (<=1e-9)")


def test_gate_06_operator_correctness():
    # adjoint pairing within 1e-10 relative on 1000 probes per operator
    # kind; expansion path equals dense path within 1e-10 on 100 expansions
    rng = np.random.default_rng(SEED_OPERATORS)
    ops = [GaussianOperator(6, 5, 17, seed=derive_seed(SEED_OPERATORS, "g")),
           EntrySampler.random(6, 5, 17, seed=derive_seed(SEED_OPERATORS, "e"))]
    worst_pair = 0.0
    for op in ops:
        for _ in range(1000):
            X = rng.standard_normal((op.m, op.n))
            y = rng.standard_normal(op.p)
            lhs = op.apply(X) @ y
            rhs = float(np.sum(X * op.adjoint(y)))
            scale = np.linalg.norm(op.apply(X)) * np.linalg.norm(y) + 1e-30
            worst_pair = max(worst_pair, abs(lhs - rhs) / scale)
    worst_exp = 0.0
    from admira.atoms import AtomExpansion, AtomSet, assemble

    for op in ops:
        for _ in range(50):
            t = int(rng.integers(1, 5))
            left = rng.standard_normal((op.m, t))
            left /= np.linalg.norm(left, axis=0)
            right = rng.standard_normal((op.n, t))
            right /= np.linalg.norm(right, axis=0)
            exp = AtomExpansion(AtomSet(left, right), rng.standard_normal(t))
            got = op.apply_expansion(exp)
            want = op.apply(assemble(exp))
            scale = np.linalg.norm(want) + 1e-30
            worst_exp = max(worst_exp, np.abs(got - want).max() / scale)
    ok = worst_pair <= 1e-10 and worst_exp <= 1e-10
    gate("6 operator correctness", ok,
         f"pairing dev {worst_pair:.2e}, expansion dev {worst_exp:.2e} (<=1e-10)")


def test_gate_07_restricted_orthogonality():
    # gaussian 10x10, p=600, r=2, 500 orthogonal pairs: zero violations of
    # the sqrt(2) bound with the augmented delta; constant-1 informational
    op = GaussianOperator(10, 10, 600, seed=derive_seed(SEED_ORTHO, "op"))
    rep = restricted_orthogonality_check(op, 2, 500, seed=SEED_ORTHO)
    ok = rep.violations_sqrt2 == 0
    gate("7 restricted orthogonality", ok,
         f"sqrt2 violations {rep.violations_sqrt2}/500, constant-1 violations "
         f"{rep.violations_1}/500 (informational), max_ratio {rep.max_ratio:.3f}")


def test_gate_08_phase_transition_shape():
    # 40x40 grid, r = 1..6, 8 p values, 10 trials/cell at 70 dB: success
    # counts non-decreasing in p (+-1 slack); p < d_r cells have 0 successes
    r_grid = range(1, 7)
    successes = phase_transition(40, 40, PHASE_P_GRID, r_grid, trials=10, seed=SEED_PHASE)
    monotone = True
    undersampled_clean = True
    for r, counts in zip(r_grid, successes):
        for j in range(len(counts) - 1):
            if counts[j + 1] < counts[j] - 1:
                monotone = False
        dr = degrees_of_freedom(40, 40, r)
        for j, p in enumerate(PHASE_P_GRID):
            if p < dr and counts[j] != 0:
                undersampled_clean = False
    ok = monotone and undersampled_clean
    gate("8 phase transition shape", ok,
         f"monotone={monotone}, undersampled-zero={undersampled_clean}; "
         + " | ".join(f"r={r}:{[int(c) for c in counts]}"
                      for r, counts in zip(r_grid, successes)))


def test_gate_09_degrees_of_freedom_arithmetic():
    p = 200000
    ratios = {r: p / degrees_of_freedom(1000, 1000, r) for r in (2, 5, 10)}
    ok = (abs(ratios[2] - 50.05) <= 0.01 and abs(ratios[5] - 20.05) <= 0.01
          and abs(ratios[10] - 10.05) <= 0.01)
    gate("9 degrees-of-freedom arithmetic", ok,
         ", ".join(f"r={r}: {v:.4f}" for r, v in ratios.items()))


def test_gate_10_cli_determinism(tmp_path):
    # identical CSV numeric content across repeated runs, threads included
    args = ["sweep", "--n", "20", "--m", "20", "--r", "1",
            "--p-over-dr", "4,8", "--trials", "3", "--seed", "20110"]
    out1, out2, out3 = (tmp_path / f"{k}.csv" for k in "abc")
    assert cli_main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--threads", "1", "--out", str(out2)]) == 0
    assert cli_main(args + ["--threads", "3", "--out", str(out3)]) == 0
    ok = out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    gate("10 CLI determinism (repeat + threads)", ok,
         f"bytes equal={ok}, rows={len(out1.read_text().splitlines()) - 1}")
