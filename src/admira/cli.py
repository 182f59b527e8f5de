"""Command-line front end for the experiment harness.

Subcommands: gen, solve, complete, sweep, phase, compare, rip. Any flag can
also come from a ``key=value`` config file passed with ``--config``
(flags override the file). Each command lays out the CSVs it writes, header
and rows, and hands them to ``fileio.write_csv``; the library returns data.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import fileio, harness, ripcheck
from .baselines import UnsupportedOperatorError
from .operators import OPERATOR_KINDS, EntrySampler
from .seeding import derive_seed

__all__ = ["main"]


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_gen(args):
    if (args.p is None) == (args.p_over_dr is None):
        raise ValueError("gen takes exactly one of --p and --p-over-dr")
    p = args.p if args.p_over_dr is None else harness.measurement_count(
        args.n, args.m, args.r, args.p_over_dr)
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
    if args.command == "solve":
        op, b = fileio.load_problem(args.problem)
    else:
        rows, cols, b = fileio.load_observed_entries(args.obs)
        if rows.size == 0:
            raise ValueError(f"no observed entries in {args.obs}")
        m = args.m if args.m is not None else int(rows.max()) + 1
        n = args.n if args.n is not None else int(cols.max()) + 1
        op = EntrySampler(m, n, rows, cols)
    result = harness.solve(args.alg, op, b, args.r, args.max_iter, args.tol)
    if args.out:
        fileio.save_dense_matrix(args.out, result.matrix())
        print(f"wrote solution to {args.out}")
    if args.trace_out:
        fileio.write_csv(args.trace_out, ["iter", "residual_l2", "rel_residual"],
                         [[k, row.residual_l2, row.rel_residual]
                          for k, row in enumerate(result.trace, start=1)])
        print(f"wrote trace to {args.trace_out}")
    last = result.trace[-1].rel_residual if result.trace else 0.0
    print(f"{args.alg}: stop={result.stop_reason} "
          f"iterations={result.iterations} rel_residual={last:.3e}")
    return 0


def cmd_sweep(args):
    rows = harness.run_sweep(args.n, args.m, args.r, args.p_over_dr, args.trials,
                             args.seed, kind=args.kind, algorithm=args.alg,
                             snr_meas_db=args.snr_meas, max_iter=args.max_iter,
                             residual_tol=args.tol, threads=args.threads)
    fileio.write_csv(args.out, ["p_over_dr", "p", "mean_snr_db", "mean_iterations"], rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_phase(args):
    grid = harness.phase_transition(args.n, args.m, args.p_grid, args.r_grid,
                                    args.trials, args.seed, threshold_db=args.threshold_db,
                                    max_iter=args.max_iter, residual_tol=args.tol,
                                    threads=args.threads)
    fileio.write_csv(args.out, ["p", "r", "successes", "trials"],
                     [[p, r, count, args.trials] for r, counts in zip(args.r_grid, grid)
                      for p, count in zip(args.p_grid, counts)])
    print(f"wrote {grid.size} phase cells to {args.out}")
    return 0


def cmd_compare(args):
    rows = harness.compare_table(args.n, args.m, args.r_list, args.p, args.trials,
                                 args.seed, max_iter=args.max_iter,
                                 residual_tol=args.tol, threads=args.threads)
    fileio.write_csv(args.out, ["r", "p_over_n2", "p_over_dr", "alg", "snr_db", "iters"], rows)
    print(f"wrote {len(rows)} comparison rows to {args.out}")
    return 0


def cmd_rip(args):
    op = OPERATOR_KINDS[args.kind](args.m, args.n, args.p, derive_seed(args.seed, "rip-op"))
    delta_hat = ripcheck.estimate_delta(op, args.r, args.samples, args.seed)
    # both checks run before either file is written, so a bad input writes none
    report = (ripcheck.restricted_orthogonality_check(op, max(args.r, 2), args.pairs, args.seed)
              if args.pairs_out else None)
    samples = args.r * args.samples
    fileio.write_csv(args.out, ["r", "delta_hat", "samples", "seed"],
                     [[args.r, delta_hat, samples, args.seed]])
    print(f"delta_hat(r={args.r}) >= {delta_hat:.6f} from {samples} samples; wrote {args.out}")
    if report:
        fileio.write_csv(args.pairs_out, ["pair_id", "lhs", "rhs_sqrt2", "rhs_1"],
                         [[i, lhs, math.sqrt(2.0) * b, b]
                          for i, (lhs, b) in enumerate(zip(report.lhs, report.bound))])
        print(f"orthogonality: max_ratio={report.max_ratio:.4f} "
              f"violations(sqrt2)={report.violations_sqrt2} "
              f"violations(1)={report.violations_1}; wrote {args.pairs_out}")
    return 0


# a token that starts like a negative number is a value, not a flag (argparse
# alone reads "-1e3", "-inf" and "-2,3" as flags); no admira flag starts so
_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

# options shared by several subcommands, registered only where read
_SHARED = {
    "n": dict(type=int, required=True, help="matrix columns"),
    "m": dict(type=int, required=True, help="matrix rows"),
    "r": dict(type=int, required=True, help="target rank"),
    "seed": dict(type=int, default=0, help="master seed"),
    "max-iter": dict(type=int, help="iteration / atom budget override"),
    "tol": dict(type=float, help="relative residual tolerance override"),
    "threads": dict(type=int, default=1, help="worker processes for trials"),
    "alg": dict(choices=list(harness.ALGORITHMS), default="admira"),
    "kind": dict(choices=list(OPERATOR_KINDS), default="entry"),
    "snr-meas": dict(type=float, help="measurement SNR in dB (omit for noiseless)"),
    "trace-out": dict(help="CSV path for the iteration trace"),
}


def build_parser(cfg) -> argparse.ArgumentParser:
    """The ``admira`` parser. Each config value, still a raw string, becomes
    the default of every option of its name (``_`` read as ``-``), so
    argparse converts it with the option's own type, exactly as it converts
    the flag, and only in the subcommand being run. A key that no subcommand
    has, or a value outside an option's choices, is a ``ValueError``."""
    values = {key.replace("_", "-"): value for key, value in cfg.items()}
    unused = set(values)
    parser = argparse.ArgumentParser(prog="admira",
                                     description="Low-rank matrix recovery toolkit")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, shared):
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NUMBER
        p.add_argument("--config", help="key=value file supplying flag defaults")
        p.set_defaults(func=func)

        def add(flag, **spec):
            action = p.add_argument(flag, **spec)
            if flag[2:] in values:
                action.default, action.required = values[flag[2:]], False
                unused.discard(flag[2:])
                if action.choices and action.default not in action.choices:
                    raise ValueError(f"config {flag} {action.default!r} not in {action.choices}")

        for key in shared.split():
            add(f"--{key}", **_SHARED[key])
        return add

    add = command("gen", cmd_gen, "generate a problem and write it to disk",
                  "n m r seed kind snr-meas")
    add("--p", type=int, help="measurement count")
    add("--p-over-dr", type=float, help="measurement count as a multiple of d_r")
    add("--out", required=True, help="output path")
    add("--truth-out", help="optional CSV path for the ground-truth matrix")

    add = command("solve", cmd_solve, "solve a Gaussian-operator problem file",
                  "r max-iter tol alg trace-out")
    add("--problem", required=True, help="problem file from 'gen --kind gaussian'")
    add("--out", help="CSV path for the recovered matrix")

    add = command("complete", cmd_solve, "complete a matrix from observed-entry triples",
                  "r max-iter tol alg trace-out")
    add("--obs", required=True, help="observed entries, one 'row col value' per line")
    add("--n", type=int, help="matrix columns (default: largest observed column)")
    add("--m", type=int, help="matrix rows (default: largest observed row)")
    add("--out", help="CSV path for the recovered matrix")

    add = command("sweep", cmd_sweep, "mean SNR/iterations vs oversampling ratio",
                  "n m r seed max-iter tol threads kind alg snr-meas")
    add("--p-over-dr", type=_float_list, required=True, help="comma-separated ratios")
    add("--trials", type=int, default=20)
    add("--out", required=True)

    add = command("phase", cmd_phase, "success counts over a (p, r) grid",
                  "n m seed max-iter tol threads")
    add("--p-grid", type=_int_list, required=True, help="comma-separated p values")
    add("--r-grid", type=_int_list, required=True, help="comma-separated r values")
    add("--trials", type=int, default=10)
    add("--threshold-db", type=float, default=harness.DEFAULT_SUCCESS_DB)
    add("--out", required=True)

    add = command("compare", cmd_compare, "algorithm comparison table on shared problems",
                  "n m seed max-iter tol threads")
    add("--r-list", type=_int_list, required=True, help="comma-separated ranks")
    add("--p", type=int, required=True)
    add("--trials", type=int, default=20)
    add("--out", required=True)

    add = command("rip", cmd_rip, "sampled isometry and orthogonality diagnostics", "n m r seed")
    add("--p", type=int, required=True)
    add("--kind", choices=list(OPERATOR_KINDS), default="gaussian")
    add("--samples", type=int, default=500, help="samples per rank level")
    add("--pairs", type=int, default=200, help="orthogonal pairs to test")
    add("--out", required=True, help="CSV path for the delta estimate")
    add("--pairs-out", help="CSV path for per-pair orthogonality checks")

    for key in cfg:
        if key.replace("_", "-") in unused:
            raise ValueError(f"unknown key {key!r} in the config file")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        cfg = dict(fileio.read_key_values(known.config)) if known.config else {}
        args = build_parser(cfg).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError, UnsupportedOperatorError) as exc:
        raise SystemExit(f"admira: {' '.join(str(exc).split())}") from None


if __name__ == "__main__":
    raise SystemExit(main())
