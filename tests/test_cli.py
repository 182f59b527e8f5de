import argparse
import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import admira
from admira.cli import build_parser, main
from admira import fileio
from admira.seeding import derive_seed

from oracles import load_dense_matrix


def read_lines(path):
    return path.read_text().splitlines()


class TestGenComplete:
    def test_entry_roundtrip(self, tmp_path):
        obs = tmp_path / "obs.txt"
        truth = tmp_path / "truth.csv"
        sol = tmp_path / "sol.csv"
        assert main(["gen", "--kind", "entry", "--n", "12", "--m", "12", "--r", "1",
                     "--p", "144", "--seed", "4", "--out", str(obs),
                     "--truth-out", str(truth)]) == 0
        assert main(["complete", "--obs", str(obs), "--r", "1",
                     "--out", str(sol)]) == 0
        X = load_dense_matrix(truth)
        Xh = load_dense_matrix(sol)
        err = np.linalg.norm(X - Xh, "fro") / np.linalg.norm(X, "fro")
        assert err <= 1e-7

    def test_p_over_dr_flag(self, tmp_path):
        obs = tmp_path / "obs.txt"
        assert main(["gen", "--kind", "entry", "--n", "10", "--m", "10", "--r", "1",
                     "--p-over-dr", "2.0", "--seed", "1", "--out", str(obs)]) == 0
        rows, cols, values = fileio.load_observed_entries(obs)
        assert len(values) == 38  # 2.0 * d_1 = 2 * 19
        assert main(["gen", "--kind", "entry", "--n", "10", "--m", "10", "--r", "1",
                     "--p-over-dr", "1e308", "--seed", "1", "--out", str(obs)]) == 0
        rows, cols, values = fileio.load_observed_entries(obs)
        assert len(values) == 100  # capped at m * n

    def test_complete_with_svt(self, tmp_path):
        obs = tmp_path / "obs.txt"
        sol = tmp_path / "sol.csv"
        main(["gen", "--kind", "entry", "--n", "20", "--m", "20", "--r", "1",
              "--p", "400", "--seed", "6", "--out", str(obs)])
        assert main(["complete", "--obs", str(obs), "--r", "1", "--alg", "svt",
                     "--max-iter", "200", "--out", str(sol)]) == 0

    def test_exponent_form_negative_value_after_a_space(self, tmp_path):
        # argparse alone reads "-1e3" as a flag; it is the SNR, as with "="
        args = ["gen", "--n", "4", "--m", "4", "--r", "1", "--p", "8", "--seed", "2"]
        spaced, joined = tmp_path / "spaced.txt", tmp_path / "joined.txt"
        assert main(args + ["--snr-meas", "-1e3", "--out", str(spaced)]) == 0
        assert main(args + ["--snr-meas=-1e3", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()


class TestSolve:
    def test_gaussian_problem_roundtrip(self, tmp_path):
        prob = tmp_path / "prob.txt"
        sol = tmp_path / "sol.csv"
        trace = tmp_path / "trace.csv"
        assert main(["gen", "--kind", "gaussian", "--n", "10", "--m", "10", "--r", "1",
                     "--p", "400", "--seed", "8", "--out", str(prob)]) == 0
        assert main(["solve", "--problem", str(prob), "--r", "1", "--max-iter", "40",
                     "--out", str(sol), "--trace-out", str(trace)]) == 0
        lines = read_lines(trace)
        assert lines[0] == "iter,residual_l2,rel_residual"
        assert float(lines[-1].split(",")[2]) <= 1e-7


class TestDeterminism:
    def test_sweep_identical_across_runs_and_threads(self, tmp_path):
        args = ["sweep", "--n", "16", "--m", "16", "--r", "1",
                "--p-over-dr", "3,6", "--trials", "3", "--seed", "17"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(args + ["--threads", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert read_lines(out1)[0] == "p_over_dr,p,mean_snr_db,mean_iterations"

    def test_phase_identical_across_runs(self, tmp_path):
        args = ["phase", "--n", "10", "--m", "10", "--p-grid", "40,100",
                "--r-grid", "1,2", "--trials", "2", "--seed", "19"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=16\nm=16\nr=1\np-over-dr=3,6\ntrials=3\nseed=17\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--n", "16", "--m", "16", "--r", "1",
                     "--p-over-dr", "3,6", "--trials", "3", "--seed", "17",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # now override one key from the command line
        out3 = tmp_path / "c.csv"
        assert main(["sweep", "--config", str(cfg), "--trials", "2",
                     "--out", str(out3)]) == 0
        assert out3.read_bytes() != out1.read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=16\nm=16\nr=1\nmax_iterr=5\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--p-over-dr", "3",
                  "--out", str(tmp_path / "a.csv")])
        # a string exit code is printed to stderr and exits with status 1
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "'max_iterr'" in message
        assert not (tmp_path / "a.csv").exists()

    def test_keys_of_other_subcommands_accepted(self, tmp_path):
        # one file may configure several subcommands; rip's key is known
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=10\nm=10\nr=1\np_over_dr=3\ntrials=1\nsamples=5\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0

    @pytest.mark.parametrize("line, expect", [
        ("trials=abc", "invalid int value"),
        ("threads=two", "invalid int value"),
        ("max_iter=1e3", "invalid int value"),
        ("kind=fourier", "not in"),
    ], ids=["trials", "threads", "max_iter", "kind"])
    def test_bad_value_stops_the_run(self, tmp_path, line, expect):
        # a config value is converted and checked like the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=6\nm=6\nr=1\np-over-dr=3\n{line}\n")
        out = tmp_path / "a.csv"
        run = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert run.returncode != 0
        assert expect in run.stderr
        assert not out.exists()


def subcommands():
    parser = build_parser({})
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def readme_flag_table():
    """README's command-line table: subcommand -> the flags it lists."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)` \| `(--[^`]*)` \|$", fh.read(), re.MULTILINE)
    return {name: set(flags.split()) for name, flags in rows}


class TestOptionSets:
    def test_each_subcommand_registers_exactly_its_flags(self):
        # every option a subcommand registers is read by its command and
        # listed in README's table
        got = {name: {flag for action in p._actions for flag in action.option_strings}
               for name, p in subcommands().items()}
        assert got == {name: flags | {"-h", "--help", "--config"}
                       for name, flags in readme_flag_table().items()}

    def test_alg_choices_are_the_algorithm_table(self):
        for name in ("solve", "complete", "sweep"):
            alg = next(a for a in subcommands()[name]._actions if "--alg" in a.option_strings)
            assert alg.choices == list(admira.harness.ALGORITHMS)


class TestGridFiles:
    # the grid functions return data; the CLI writes their CSVs
    def test_phase_lines_are_r_major(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert main(["phase", "--n", "8", "--m", "8", "--p-grid", "64", "--r-grid", "1,2",
                     "--trials", "3", "--seed", "31", "--out", str(out)]) == 0
        assert read_lines(out) == ["p,r,successes,trials", "64,1,3,3", "64,2,3,3"]


def test_import_leaves_file_layer_unloaded():
    # only the CLI writes files: the library alone loads neither module; the
    # harness imports its process pool only when it runs one, never for a
    # serial grid
    src = os.path.dirname(os.path.dirname(admira.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, admira\n"
            "def loaded():\n"
            "    return [m for m in ('admira.fileio', 'admira.cli', 'concurrent.futures',\n"
            "                        'multiprocessing') if m in sys.modules]\n"
            "print(loaded())\n"
            "admira.run_sweep(12, 12, 1, [4.0], trials=2, seed=1, threads=1)\n"
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n") == ["[]", "[]", ""]


def test_only_the_cli_lays_out_csvs():
    # a CSV's columns are chosen where it is written, so no library module
    # may call write_csv: the CLI builds every header and row
    callers = set()
    for path in pathlib.Path(admira.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "write_csv":
                    callers.add(path.name)
    assert callers == {"cli.py"}


class TestCompareRip:
    def test_compare_schema(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n", "12", "--m", "12", "--r-list", "1",
                     "--p", "144", "--trials", "2", "--seed", "23",
                     "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == "r,p_over_n2,p_over_dr,alg,snr_db,iters"
        assert [line.split(",")[3] for line in lines[1:]] == ["admira", "svt"]

    def test_rip_outputs(self, tmp_path, capsys):
        out = tmp_path / "rip.csv"
        pairs = tmp_path / "pairs.csv"
        assert main(["rip", "--kind", "gaussian", "--m", "8", "--n", "8",
                     "--p", "300", "--r", "2", "--samples", "50", "--pairs", "20",
                     "--seed", "29", "--out", str(out), "--pairs-out", str(pairs)]) == 0
        op = admira.GaussianOperator(8, 8, 300, derive_seed(29, "rip-op"))
        delta_hat = admira.estimate_delta(op, 2, 50, 29)
        header, row = read_lines(out)
        assert header == "r,delta_hat,samples,seed"
        r, written, samples, seed = row.split(",")
        assert (r, float(written), samples, seed) == ("2", delta_hat, "100", "29")
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary == f"delta_hat(r=2) >= {delta_hat:.6f} from 100 samples; wrote {out}"
        assert read_lines(pairs)[0] == "pair_id,lhs,rhs_sqrt2,rhs_1"
        assert len(read_lines(pairs)) == 21


def run_cli(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(admira.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, "-m", "admira.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestUserErrors:
    @pytest.mark.parametrize("obs_text, rank, expect", [
        ("", "1", "no observed entries"),
        ("1 1 1.0\n1 2 2.0\n2 1 3.0\n2 2 4.0\n", "5",
         "rank must be in [1, 2] for a 2x2 matrix, got 5"),
    ], ids=["empty_file", "rank_above_size"])
    def test_one_line_on_stderr_and_status_1(self, tmp_path, obs_text, rank, expect):
        obs = tmp_path / "obs.txt"
        obs.write_text(obs_text)
        sol = tmp_path / "sol.csv"
        run = run_cli("complete", "--obs", str(obs), "--r", rank, "--out", str(sol))
        assert run.returncode == 1
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and expect in run.stderr
        assert not sol.exists()

    @pytest.mark.parametrize("args, expect", [
        (["gen", "--n", "2", "--m", "2", "--r", "5", "--p", "3"], "r must be in [1, 2]"),
        (["gen", "--n", "4", "--m", "4", "--r", "1", "--p", "16", "--p-over-dr", "0.5"],
         "gen takes exactly one of --p and --p-over-dr"),
        (["gen", "--n", "4", "--m", "4", "--r", "1"],
         "gen takes exactly one of --p and --p-over-dr"),
        (["sweep", "--n", "4", "--m", "4", "--r", "9", "--p-over-dr", "2", "--trials", "1"],
         "r must be in [0, 4]"),
        (["complete", "--obs", "{tmp}/missing.txt", "--r", "1"], "No such file"),
        (["sweep", "--config", "{tmp}/missing.cfg"], "No such file"),
        (["gen", "--kind", "gaussian", "--n", "200", "--m", "200", "--r", "2", "--p", "10000"],
         "dense operator needs"),
        (["sweep", "--n", "10", "--m", "10", "--r", "1", "--p-over-dr", "3", "--trials", "1",
          "--kind", "gaussian", "--alg", "svt"], "requires an entry-sampling operator"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "0"],
         "trials must be at least 1, got 0"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "-2"],
         "trials must be at least 1, got -2"),
        (["phase", "--n", "4", "--m", "4", "--p-grid", "10", "--r-grid", "1", "--trials", "0"],
         "trials must be at least 1, got 0"),
        (["compare", "--n", "4", "--m", "4", "--r-list", "1", "--p", "10", "--trials", "0"],
         "trials must be at least 1, got 0"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "", "--trials", "1"],
         "the sweep grid is empty"),
        (["compare", "--n", "4", "--m", "4", "--r-list", "", "--p", "10", "--trials", "1"],
         "the compare grid is empty"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "1",
          "--threads", "0"], "threads must be at least 1, got 0"),
        (["gen", "--n", "4", "--m", "4", "--r", "1", "--p", "8", "--snr-meas", "nan"],
         "measurement SNR must be a number of dB or inf, got nan"),
        (["rip", "--n", "1", "--m", "5", "--r", "1", "--p", "5", "--pairs-out", "{tmp}/q.csv"],
         "r must be at most min(m, n) = 1, got 2"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "1",
          "--tol", "nan"], "residual tolerance must be positive, got nan"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "1",
          "--alg", "omp", "--tol", "-1"], "residual tolerance must be positive, got -1.0"),
        (["complete", "--obs", "{tmp}/obs.txt", "--r", "1", "--alg", "svt", "--tol", "nan"],
         "residual tolerance must be positive, got nan"),
        (["phase", "--n", "4", "--m", "4", "--p-grid", "10", "--r-grid", "1", "--trials", "1",
          "--threshold-db", "nan"], "the success threshold must be a number of dB, got nan"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "nan", "--trials", "1"],
         "p/d_r must be positive and finite, got nan"),
        (["gen", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "-2"],
         "p/d_r must be positive and finite, got -2.0"),
        (["gen", "--n", "4", "--m", "4", "--r", "1", "--p", "8", "--snr-meas=-1e308"],
         "measurement SNR -1e+308 dB gives non-finite noise"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "1",
          "--snr-meas=-1e308"], "measurement SNR -1e+308 dB gives non-finite noise"),
        (["gen", "--n", "4", "--m", "4", "--r", "1", "--p", "8", "--snr-meas", "-inf"],
         "measurement SNR must be a number of dB or inf, got -inf"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "2", "--trials", "1",
          "--tol", "-1e-3"], "residual tolerance must be positive, got -0.001"),
        (["sweep", "--n", "4", "--m", "4", "--r", "1", "--p-over-dr", "-2,3", "--trials", "1"],
         "p/d_r must be positive and finite, got -2.0"),
        (["complete", "--obs", "{tmp}/tiny.txt", "--r", "1", "--alg", "svt"],
         "measurements too small for the SVT threshold tau = 10"),
        (["complete", "--obs", "{tmp}/huge.txt", "--r", "1", "--alg", "svt"],
         "measurements too large for SVT: their 2-norm is not a finite double"),
        (["complete", "--obs", "{tmp}/huge.txt", "--r", "1"], "past the double range"),
        (["complete", "--obs", "{tmp}/big.txt", "--r", "1"],
         "big.txt:1: an index is past the integer range"),
        (["rip", "--kind", "entry", "--m", "10000000000", "--n", "10000000000", "--r", "1",
          "--p", "5", "--samples", "1"],
         "a 10000000000x10000000000 matrix has more entries than np.intp holds"),
    ], ids=["gen_rank", "gen_p_and_ratio", "gen_no_p", "sweep_rank", "missing_obs",
            "missing_config", "gen_memory_budget",
            "sweep_svt_gaussian", "sweep_zero_trials", "sweep_negative_trials",
            "phase_zero_trials", "compare_zero_trials", "sweep_empty_ratios",
            "compare_empty_ranks", "sweep_zero_threads", "gen_snr_nan", "rip_pairs_rank",
            "sweep_tol_nan", "sweep_omp_tol_negative", "complete_svt_tol_nan",
            "phase_threshold_nan", "sweep_ratio_nan", "gen_ratio_negative",
            "gen_snr_overflow", "sweep_snr_overflow", "gen_snr_minus_inf",
            "sweep_tol_exponent", "sweep_negative_ratio_list", "complete_svt_tiny",
            "complete_svt_huge", "complete_huge", "complete_index_overflow",
            "rip_entry_index_overflow"])
    def test_library_errors_end_in_one_line(self, tmp_path, args, expect):
        (tmp_path / "obs.txt").write_text("1 1 1.0\n1 2 2.0\n2 1 3.0\n")
        (tmp_path / "tiny.txt").write_text("1 1 1e-312\n1 2 2e-312\n2 1 3e-312\n")
        (tmp_path / "huge.txt").write_text("1 1 1e308\n2 2 1e308\n1 2 1e308\n2 1 1e308\n")
        (tmp_path / "big.txt").write_text("99999999999999999999 1 1.0\n")
        out = tmp_path / "out.txt"
        run = run_cli(*[a.format(tmp=tmp_path) for a in args], "--out", str(out))
        assert run.returncode == 1
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("admira: ") and expect in run.stderr
        assert not out.exists()

    def test_allocation_failure_ends_in_one_line(self, tmp_path):
        # a 10^5 x 10^5 truth (80 GB) in a process whose address space is
        # capped at 1 GiB: NumPy's own MemoryError ends in one line too
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(os.path.abspath(admira.__file__)))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        code = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from admira.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))"
        )
        out = tmp_path / "obs.txt"
        run = subprocess.run([sys.executable, "-c", code, "gen", "--n", "100000", "--m", "100000",
                              "--r", "1", "--p", "10", "--out", str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("admira: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("text, expect", [
        ("1 1 1.0\n1.5 2 4.0\n", "obs.txt:2: invalid literal for int() with base 10: '1.5'"),
        ("1 1 1.0\n# comment\n\n2 2 abc\n", "obs.txt:4: could not convert string to float: 'abc'"),
    ], ids=["row_not_int", "value_not_float"])
    def test_bad_number_in_triples_names_file_and_line(self, tmp_path, text, expect):
        obs = tmp_path / "obs.txt"
        obs.write_text(text)
        run = run_cli("complete", "--obs", str(obs), "--r", "1")
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == f"admira: {tmp_path}/{expect}\n"

    @pytest.mark.parametrize("key, value, expect", [
        ("b", "abc", "b: could not convert string to float: 'abc'"),
        ("m", "four", "m: invalid literal for int() with base 10: 'four'"),
    ], ids=["b_not_float", "m_not_int"])
    def test_bad_number_in_problem_names_file_and_key(self, tmp_path, key, value, expect):
        prob = tmp_path / "prob.txt"
        assert main(["gen", "--kind", "gaussian", "--n", "4", "--m", "4", "--r", "1",
                     "--p", "12", "--seed", "2", "--out", str(prob)]) == 0
        lines = prob.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
        lines[at] = f"{key}={value}"
        prob.write_text("\n".join(lines) + "\n")
        run = run_cli("solve", "--problem", str(prob), "--r", "1")
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == f"admira: {prob}: {expect}\n"

    def test_solve_svt_on_gaussian_problem(self, tmp_path):
        prob = tmp_path / "prob.txt"
        assert main(["gen", "--kind", "gaussian", "--n", "6", "--m", "6", "--r", "1",
                     "--p", "40", "--seed", "2", "--out", str(prob)]) == 0
        out = tmp_path / "sol.csv"
        run = run_cli("solve", "--problem", str(prob), "--r", "1", "--alg", "svt",
                      "--out", str(out))
        assert run.returncode == 1
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("admira: ") and "requires an entry-sampling operator" in run.stderr
        assert not out.exists()
