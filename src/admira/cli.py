"""Command-line front end for the experiment harness.

Subcommands: gen, solve, complete, sweep, phase, compare, rip. Any flag can
also come from a ``key=value`` config file passed with ``--config``
(flags override the file).
"""

from __future__ import annotations

import argparse
import sys

from . import fileio, harness, ripcheck
from .baselines import UnsupportedOperatorError
from .operators import EntrySampler, GaussianOperator, MemoryBudgetExceeded
from .seeding import derive_seed

__all__ = ["main"]


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v.strip()]


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v.strip()]


class _Options:
    """Registers options, filling defaults from the config file and
    recording every option name in ``known``."""

    def __init__(self, parser, cfg, known):
        self.parser = parser
        self.cfg = cfg
        self.known = known

    def add(self, name, type=str, default=None, required=False, help=None, choices=None):
        key = name.lstrip("-")
        self.known.add(key)
        raw = self.cfg.get(key, self.cfg.get(key.replace("-", "_")))
        if raw is not None:
            # a key may be meant for a sibling subcommand with a different
            # value shape; apply it only where it converts cleanly
            try:
                default = type(raw)
                required = False
            except ValueError:
                pass
        self.parser.add_argument(name, type=type, default=default,
                                 required=required, help=help, choices=choices)


def _run_algorithm(alg, op, b, args, rank):
    if not 1 <= rank <= min(op.m, op.n):
        raise SystemExit(f"admira: --r must be in [1, {min(op.m, op.n)}] for a "
                         f"{op.m}x{op.n} matrix, got {rank}")
    return harness.solve(alg, op, b, rank, args.max_iter, args.tol)


def _emit_solution(result, args):
    if args.out:
        fileio.save_dense_matrix(args.out, result.matrix())
        print(f"wrote solution to {args.out}")
    if args.trace_out:
        fileio.save_trace(args.trace_out, result)
        print(f"wrote trace to {args.trace_out}")
    last = result.trace[-1].rel_residual if result.trace else 0.0
    print(f"{result.algorithm}: stop={result.stop_reason} "
          f"iterations={result.iterations} rel_residual={last:.3e}")


def cmd_gen(args):
    p = args.p
    if p is None:
        if args.p_over_dr is None:
            raise SystemExit("gen requires --p or --p-over-dr")
        p = min(int(round(args.p_over_dr * harness.degrees_of_freedom(args.n, args.m, args.r))),
                args.m * args.n)
    problem = harness.gen_problem(args.n, args.m, args.r, p, kind=args.kind,
                                  snr_meas_db=args.snr_meas, seed=args.seed)
    if args.kind == "entry":
        fileio.save_observed_entries(args.out, problem.operator, problem.b)
    else:
        fileio.save_problem(args.out, problem.operator, problem.b)
    print(f"wrote {args.kind} problem (m={args.m}, n={args.n}, r={args.r}, p={p}) to {args.out}")
    if args.truth_out:
        fileio.save_dense_matrix(args.truth_out, problem.x_true)
        print(f"wrote ground truth to {args.truth_out}")
    return 0


def cmd_solve(args):
    op, b = fileio.load_problem(args.problem)
    result = _run_algorithm(args.alg, op, b, args, args.r)
    _emit_solution(result, args)
    return 0


def cmd_complete(args):
    rows, cols, values = fileio.load_observed_entries(args.obs)
    if rows.size == 0:
        raise SystemExit(f"admira: no observed entries in {args.obs}")
    m = args.m if args.m is not None else int(rows.max()) + 1
    n = args.n if args.n is not None else int(cols.max()) + 1
    op = EntrySampler(m, n, rows, cols)
    result = _run_algorithm(args.alg, op, values, args, args.r)
    _emit_solution(result, args)
    return 0


def cmd_sweep(args):
    rows = harness.run_sweep(args.n, args.m, args.r, args.p_over_dr, args.trials,
                             args.seed, kind=args.kind, algorithm=args.alg,
                             snr_meas_db=args.snr_meas, max_iter=args.max_iter,
                             residual_tol=args.tol, threads=args.threads, out=args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_phase(args):
    grid = harness.phase_transition(args.n, args.m, args.p_grid, args.r_grid,
                                    args.trials, args.seed, threshold_db=args.threshold_db,
                                    max_iter=args.max_iter, residual_tol=args.tol,
                                    threads=args.threads, out=args.out)
    print(f"wrote {len(grid.to_rows())} phase cells to {args.out}")
    return 0


def cmd_compare(args):
    rows = harness.compare_table(args.n, args.m, args.r_list, args.p, args.trials,
                                 args.seed, max_iter=args.max_iter,
                                 residual_tol=args.tol, threads=args.threads, out=args.out)
    print(f"wrote {len(rows)} comparison rows to {args.out}")
    return 0


def cmd_rip(args):
    if args.kind == "gaussian":
        op = GaussianOperator(args.m, args.n, args.p, derive_seed(args.seed, "rip-op"))
    else:
        op = EntrySampler.random(args.m, args.n, args.p, derive_seed(args.seed, "rip-op"))
    estimate = ripcheck.estimate_delta(op, args.r, args.samples, args.seed)
    fileio.save_rip_estimates(args.out, [estimate])
    print(f"delta_hat(r={args.r}) >= {estimate.delta_hat:.6f} "
          f"from {estimate.samples_used} samples; wrote {args.out}")
    if args.pairs_out:
        report = ripcheck.restricted_orthogonality_check(op, max(args.r, 2), args.pairs, args.seed)
        fileio.save_orthogonality_pairs(args.pairs_out, report)
        print(f"orthogonality: max_ratio={report.max_ratio:.4f} "
              f"violations(sqrt2)={report.violations_sqrt2} "
              f"violations(1)={report.violations_1}; wrote {args.pairs_out}")
    return 0


# options shared by several subcommands, registered only where read
_SHARED = {
    "n": dict(type=int, required=True, help="matrix columns"),
    "m": dict(type=int, required=True, help="matrix rows"),
    "r": dict(type=int, required=True, help="target rank"),
    "seed": dict(type=int, default=0, help="master seed"),
    "max-iter": dict(type=int, help="iteration / atom budget override"),
    "tol": dict(type=float, help="relative residual tolerance override"),
    "threads": dict(type=int, default=1, help="worker processes for trials"),
}


def build_parser(cfg, known: set) -> argparse.ArgumentParser:
    """The ``admira`` parser; adds the name of every option that a config
    file may set to ``known``."""
    parser = argparse.ArgumentParser(prog="admira",
                                     description="Low-rank matrix recovery toolkit")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, shared):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value file supplying flag defaults")
        p.set_defaults(func=func)
        o = _Options(p, cfg, known)
        for key in shared.split():
            o.add(f"--{key}", **_SHARED[key])
        return o

    o = command("gen", cmd_gen, "generate a problem and write it to disk", "n m r seed")
    o.add("--p", type=int, help="measurement count")
    o.add("--p-over-dr", type=float, help="measurement count as a multiple of d_r")
    o.add("--kind", choices=["entry", "gaussian"], default="entry")
    o.add("--snr-meas", type=float, help="measurement SNR in dB (omit for noiseless)")
    o.add("--out", required=True, help="output path")
    o.add("--truth-out", help="optional CSV path for the ground-truth matrix")

    o = command("solve", cmd_solve, "solve a Gaussian-operator problem file", "r max-iter tol")
    o.add("--problem", required=True, help="problem file from 'gen --kind gaussian'")
    o.add("--alg", choices=list(harness.ALGORITHMS), default="admira")
    o.add("--out", help="CSV path for the recovered matrix")
    o.add("--trace-out", help="CSV path for the iteration trace")

    o = command("complete", cmd_complete, "complete a matrix from observed-entry triples",
                "r max-iter tol")
    o.add("--obs", required=True, help="observed entries, one 'row col value' per line")
    o.add("--n", type=int, help="matrix columns (default: largest observed column)")
    o.add("--m", type=int, help="matrix rows (default: largest observed row)")
    o.add("--alg", choices=list(harness.ALGORITHMS), default="admira")
    o.add("--out", help="CSV path for the recovered matrix")
    o.add("--trace-out", help="CSV path for the iteration trace")

    o = command("sweep", cmd_sweep, "mean SNR/iterations vs oversampling ratio",
                "n m r seed max-iter tol threads")
    o.add("--p-over-dr", type=_float_list, required=True, help="comma-separated ratios")
    o.add("--trials", type=int, default=20)
    o.add("--kind", choices=["entry", "gaussian"], default="entry")
    o.add("--alg", choices=list(harness.ALGORITHMS), default="admira")
    o.add("--snr-meas", type=float, help="measurement SNR in dB (omit for noiseless)")
    o.add("--out", required=True)

    o = command("phase", cmd_phase, "success counts over a (p, r) grid",
                "n m seed max-iter tol threads")
    o.add("--p-grid", type=_int_list, required=True, help="comma-separated p values")
    o.add("--r-grid", type=_int_list, required=True, help="comma-separated r values")
    o.add("--trials", type=int, default=10)
    o.add("--threshold-db", type=float, default=70.0)
    o.add("--out", required=True)

    o = command("compare", cmd_compare, "algorithm comparison table on shared problems",
                "n m seed max-iter tol threads")
    o.add("--r-list", type=_int_list, required=True, help="comma-separated ranks")
    o.add("--p", type=int, required=True)
    o.add("--trials", type=int, default=20)
    o.add("--out", required=True)

    o = command("rip", cmd_rip, "sampled isometry and orthogonality diagnostics", "n m r seed")
    o.add("--p", type=int, required=True)
    o.add("--kind", choices=["gaussian", "entry"], default="gaussian")
    o.add("--samples", type=int, default=500, help="samples per rank level")
    o.add("--pairs", type=int, default=200, help="orthogonal pairs to test")
    o.add("--out", required=True, help="CSV path for the delta estimate")
    o.add("--pairs-out", help="CSV path for per-pair orthogonality checks")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        cfg = dict(fileio.read_key_values(known.config)) if known.config else {}
        options: set[str] = set()
        parser = build_parser(cfg, options)
        for key in cfg:
            if key.replace("_", "-") not in options:
                raise SystemExit(f"admira: unknown key {key!r} in config file {known.config}")
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryBudgetExceeded, UnsupportedOperatorError) as exc:
        raise SystemExit(f"admira: {' '.join(str(exc).split())}") from None


if __name__ == "__main__":
    raise SystemExit(main())
