"""SHA-256 digests of the library's outputs, one ``name sha256`` line each.

Two checkouts give bit-identical outputs when their digests diff clean:

    diff <(PYTHONPATH=/tmp/parent/src python3 tools/digest.py) \\
         <(PYTHONPATH=src python3 tools/digest.py)

The script takes no options. It pins BLAS to one thread before NumPy loads,
imports ``admira`` from ``PYTHONPATH`` and prints that module's path on
stderr, so a run shows which library it digested. Its first line,
``openblas-core <name>``, names the OpenBLAS kernel set the bits hold on,
as the harness's OpenBLAS reader reports it (OpenBLAS picks its kernels by
CPU, and they round differently), so a diff across machines explains
itself. A trace is hashed by its values, not by its record type, so a field
added to ``TraceRow`` changes no line. It covers the solvers on the
benchmark's problems (seeds 1-3), ``svd_truncated`` on both sides of
``GKL_MIN_DIM`` at both tolerances (the 1000x1000 matrix at ``SELECT_TOL``
on its float32 path), at ``SELECT_TOL`` on a 410x400 matrix whose float32
path falls back to float64 and on a 120x127 one scaled by 2^-540, with a
floor on completion proxies, and at SVT's tolerance from a warm start on a
tall and a wide proxy (the tall one also scaled by 2^-100, floor and all),
SVT's shrink of a proxy, SVT on a wide 100x140 entry problem, SVT on a
problem scaled by 2^-60 and 2^+60 (its residual far from the measurements'
scale), ADMiRA and OMP on a Gaussian problem scaled the same way (their
answers mapped back by ``linalg.rescale``), an entry sampler's ``apply`` of
an F-order and a strided matrix and its ``adjoint``, the complete-1000
set-up's samples, measurements and truth, least squares and a
sampler's gathers over several row blocks, and every CSV the CLI writes
from a grid or a diagnostic: ``sweep`` (the determinism gate's), ``phase``
and ``compare`` at 1 and 3 worker threads, ``rip``'s two files, and the
``complete --trace-out`` CSV of ADMiRA and SVT.
"""

import contextlib
import hashlib
import os
import pathlib
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import admira  # noqa: E402
from admira import baselines, cli, harness, linalg  # noqa: E402
from admira.atoms import SELECT_TOL, empty_expansion  # noqa: E402

SEEDS = (1, 2, 3)

# name: (n, p, kind, algorithms with their iteration caps), all rank 2
PROBLEMS = {
    "complete-1000": (1000, 200_000, "entry", {"admira": 60}),
    "complete-200": (200, 8000, "entry", {"admira": 150, "svt": 500}),
    "gaussian-50": (50, 3920, "gaussian", {"admira": None, "omp": 10, "mp": 10}),
}

# CLI grid commands, each run at 1 and 3 worker threads; small sizes keep
# the phase and compare runs to a few seconds
GRIDS = {
    "sweep": ["sweep", "--n", "20", "--m", "20", "--r", "1",
              "--p-over-dr", "4,8", "--trials", "3", "--seed", "20110"],
    "phase": ["phase", "--n", "12", "--m", "12", "--p-grid", "40,70,100,120,144",
              "--r-grid", "1,2", "--trials", "3", "--seed", "20111"],
    "compare": ["compare", "--n", "16", "--m", "16", "--r-list", "1,2", "--p", "150",
                "--trials", "3", "--seed", "20112"],
}

# a generated 20x20 entry problem for ``complete --trace-out``
COMPLETE = ["--n", "20", "--m", "20", "--r", "2", "--max-iter", "40"]

RIP = ["rip", "--n", "8", "--m", "8", "--r", "2", "--p", "120", "--samples", "40",
       "--pairs", "30", "--seed", "20113"]

# matrices of svd_truncated, each on both sides of GKL_MIN_DIM = 100 (and
# square 1000x1000 above SINGLE_MIN_DIM = 400)
MATRICES = {
    "tall": ((60, 40), (300, 120)),
    "wide": ((40, 60), (120, 300)),
    "square": ((50, 50), (200, 200), (1000, 1000)),
    "rank3": ((60, 40), (300, 150)),
    "zero": ((40, 30), (150, 150), (400, 120)),
}


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def emit(name: str, digest: str) -> None:
    print(name, digest, flush=True)


def values(trace) -> list:
    """A trace's values, without the record type that holds them."""
    return [(row.residual_l2, row.rel_residual, row.error_fro) for row in trace]


def solves():
    for label, (n, p, kind, algorithms) in PROBLEMS.items():
        for seed in SEEDS:
            prob = harness.gen_problem(n, n, 2, p, kind=kind, seed=seed)
            for algorithm, max_iter in algorithms.items():
                res = harness.solve(algorithm, prob.operator, prob.b, 2, max_iter=max_iter)
                name = f"{algorithm}/{label}/seed{seed}"
                emit(f"{name}/matrix", sha(res.matrix()))
                atoms = res.expansion.atoms
                emit(f"{name}/factors", sha(atoms.left, atoms.right))
                emit(f"{name}/coeffs", sha(res.expansion.coeffs))
                emit(f"{name}/trace", sha(res.stop_reason, values(res.trace)))


def matrix(kind: str, shape, rng) -> np.ndarray:
    if kind == "zero":
        return np.zeros(shape)
    if kind == "rank3":
        return rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
    return rng.standard_normal(shape)


def truncations():
    """``MATRICES`` at both tolerances; then, at ``SELECT_TOL``, a 410x400
    matrix with singular values 1, 1e-7 and 1e-9, which the float32 path
    hands back to float64, and a 120x127 Gaussian one scaled by 2^-540."""
    rng = np.random.default_rng(20090106)
    for kind, shapes in MATRICES.items():
        for shape in shapes:
            M = matrix(kind, shape, rng)
            for tol_name, tol in (("GKL_TOL", linalg.GKL_TOL), ("SELECT_TOL", SELECT_TOL)):
                for k in (1, 4, 10):
                    f = linalg.svd_truncated(M, k, tol)
                    emit(f"svd_truncated/{kind}/{shape[0]}x{shape[1]}/{tol_name}/k{k}",
                         sha(*f))
    qu, _ = np.linalg.qr(rng.standard_normal((410, 3)))
    qv, _ = np.linalg.qr(rng.standard_normal((400, 3)))
    f = linalg.svd_truncated((qu * [1.0, 1e-7, 1e-9]) @ qv.T, 3, SELECT_TOL)
    emit("svd_truncated/fallback/410x400/SELECT_TOL/k3", sha(*f))
    f = linalg.svd_truncated(np.ldexp(rng.standard_normal((120, 127)), -540), 4, SELECT_TOL)
    emit("svd_truncated/scaled/120x127/2^-540/SELECT_TOL/k4", sha(*f))


def floored():
    """``svd_truncated`` with a floor midway between sigma_2 and sigma_3 of
    the complete-200 and complete-1000 proxies (seed 1); on the complete-200
    one and its top 150 rows (a wide operand), also at ``SVT_TOL`` from the
    sum of a cold call's top two right vectors (the square one scaled by
    2^-100 too, floor and all); and SVT's cold shrink of the complete-200
    proxy scaled to put tau there (SVT's proxies have two triplets above tau
    and the third near 0.8 tau), asking for 2 + 1."""
    for n, p in ((200, 8000), (1000, 200_000)):
        prob = harness.gen_problem(n, n, 2, p, seed=1)
        Y = prob.operator.adjoint(prob.b)
        s = np.linalg.svd(Y, compute_uv=False)
        mid = (s[1] + s[2]) / 2
        f = linalg.svd_truncated(Y, 3, floor=mid)
        emit(f"svd_truncated/proxy/{n}x{n}/floor/k3", sha(*f))
        if n == 200:
            start = linalg.svd_truncated(Y, 2)[2].sum(axis=1)
            for rows in (200, 150):
                f = linalg.svd_truncated(Y[:rows], 3, baselines.SVT_TOL, mid, start)
                emit(f"svd_truncated/proxy/{rows}x{n}/start/k3", sha(*f))
            f = linalg.svd_truncated(np.ldexp(Y, -100), 3, baselines.SVT_TOL, np.ldexp(mid, -100),
                                     start)
            emit(f"svd_truncated/proxy/{n}x{n}/start/2^-100/k3", sha(*f))
            tau = baselines.SVT_TAU_SCALE * n
            exp = baselines._shrink_expansion(Y * (tau / mid), tau, 3, empty_expansion(n, n))
            emit("svt_shrink/complete-200/seed1",
                 sha(exp.atoms.left, exp.atoms.right, exp.coeffs))


def wide_svt():
    """SVT on a wide 100x140 entry problem (p = 0.2 m n), whose Krylov
    kernel runs on the transposed proxy from M @ start."""
    prob = harness.gen_problem(140, 100, 2, 2800, kind="entry", seed=1)
    res = baselines.svt_solve(prob.operator, prob.b)
    emit("svt/wide/100x140", sha(res.matrix(), res.stop_reason, values(res.trace)))


def scaled_svt():
    """20 SVT iterations on a 20x20 rank-1 problem scaled far from unit size."""
    prob = harness.gen_problem(20, 20, 1, 200, kind="entry", seed=1)
    for e in (-60, 60):
        res = baselines.svt_solve(prob.operator, np.ldexp(prob.b, e),
                                  baselines.SvtConfig(max_iter=20))
        emit(f"svt/scaled/2^{e:+d}", sha(res.matrix(), res.stop_reason, values(res.trace)))


def scaled_greedy():
    """ADMiRA and 10 OMP atoms on a 20x20 rank-1 Gaussian problem scaled far
    from unit size (their answers mapped back from it)."""
    prob = harness.gen_problem(20, 20, 1, 200, kind="gaussian", seed=1)
    for algorithm, max_iter in (("admira", None), ("omp", 10)):
        for e in (-60, 60):
            res = harness.solve(algorithm, prob.operator, np.ldexp(prob.b, e), 1, max_iter)
            emit(f"{algorithm}/scaled/2^{e:+d}",
                 sha(res.matrix(), res.expansion.coeffs, res.stop_reason, values(res.trace)))


def sampler():
    """A 37x23 sampler's ``apply`` of an F-order and a strided matrix, and
    its ``adjoint``; then the samples, measurements and truth of the
    complete-1000 set-up (seed 1), so a set-up change that moves one sample
    shows here and not only in the solves built on it."""
    op = admira.EntrySampler.random(37, 23, 300, seed=20114)
    rng = np.random.default_rng(20115)
    X = np.asfortranarray(rng.standard_normal((37, 23)))
    strided = rng.standard_normal((75, 69))[1::2, ::3]
    emit("entry/apply", sha(op.apply(X), op.apply(strided)))
    emit("entry/adjoint", sha(op.adjoint(rng.standard_normal(op.p))))
    prob = harness.gen_problem(1000, 1000, 2, 200_000, seed=1)
    op = prob.operator
    emit("entry/gen_problem/complete-1000/seed1",
         sha(op.rows, op.cols, op.flat, prob.b, prob.x_true))


def blocked():
    """``least_squares_minnorm`` on a 30001x6 design, three row blocks of
    ``linalg.BLOCK_ENTRIES`` entries with a ragged last one, and a sampler's
    ``apply_atoms`` of 6 atoms at p = 11000, whose rows cross one block
    boundary, with and without a work array."""
    rng = np.random.default_rng(20117)
    Phi = rng.standard_normal((30001, 6))
    emit("least_squares_minnorm/30001x6", sha(linalg.least_squares_minnorm(
        Phi, Phi @ rng.standard_normal(6) + rng.standard_normal(30001))))
    op = admira.EntrySampler.random(400, 300, 11000, seed=20118)
    atoms = admira.leading_atoms(rng.standard_normal((400, 300)), 6).atoms
    emit("entry/apply_atoms/p11000", sha(op.apply_atoms(atoms),
                                         op.apply_atoms(atoms, op.scratch(6))))


def run_cli(args, flags):
    """Run ``admira`` on ``args`` with each output flag in ``flags`` naming a
    temporary file; returns the files' bytes in flag order."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, flag[2:]) for flag in flags]
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(args + [x for pair in zip(flags, paths) for x in pair])
        if status != 0:
            raise SystemExit(f"admira {' '.join(args)} failed")
        return [pathlib.Path(path).read_bytes() for path in paths]


def cli_csvs():
    for command, args in GRIDS.items():
        for threads in (1, 3):
            (data,) = run_cli(args + ["--threads", str(threads)], ["--out"])
            emit(f"cli/{command}/threads{threads}", sha(data))
    estimate, pairs = run_cli(RIP, ["--out", "--pairs-out"])
    emit("cli/rip/estimate", sha(estimate))
    emit("cli/rip/pairs", sha(pairs))


def cli_traces():
    """``complete --trace-out`` of ADMiRA and SVT, which numbers the rows."""
    (obs,) = run_cli(["gen", *COMPLETE[:6], "--p", "200", "--seed", "20116"], ["--out"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.txt")
        pathlib.Path(path).write_bytes(obs)
        for algorithm in ("admira", "svt"):
            (trace,) = run_cli(["complete", "--obs", path, *COMPLETE, "--alg", algorithm],
                               ["--trace-out"])
            emit(f"cli/complete/trace/{algorithm}", sha(trace))


def main() -> None:
    print(admira.__file__, file=sys.stderr)
    blas = harness._openblas()
    print("openblas-core", "unknown" if blas is None else blas[2]().decode(), flush=True)
    solves()
    truncations()
    floored()
    wide_svt()
    scaled_svt()
    scaled_greedy()
    sampler()
    blocked()
    cli_csvs()
    cli_traces()


if __name__ == "__main__":
    main()
