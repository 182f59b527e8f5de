import math
import re

import numpy as np
import pytest

from admira import fileio
from admira.cli import main
from admira.harness import gen_problem, solve
from admira.operators import EntrySampler, GaussianOperator
from admira.ripcheck import estimate_delta, restricted_orthogonality_check
from admira.seeding import derive_seed
from admira.solver import AdmiraConfig, admira_solve

from oracles import load_dense_matrix


class TestFormatting:
    def test_full_precision_roundtrip(self):
        x = 1.0 / 3.0
        assert float(fileio.format_number(x)) == x

    def test_inf_sentinel(self):
        assert fileio.format_number(math.inf) == "inf"

    def test_integers_stay_integers(self):
        assert fileio.format_number(7) == "7"
        assert fileio.format_number(np.int64(7)) == "7"


class TestObservedEntries:
    def test_roundtrip(self, tmp_path, rng):
        op = EntrySampler.random(6, 5, 12, seed=3)
        values = rng.standard_normal(12)
        path = tmp_path / "obs.txt"
        fileio.save_observed_entries(path, op, values)
        rows, cols, got = fileio.load_observed_entries(path)
        np.testing.assert_array_equal(rows, op.rows)
        np.testing.assert_array_equal(cols, op.cols)
        np.testing.assert_array_equal(got, values)

    def test_one_based_indices_on_disk(self, tmp_path):
        op = EntrySampler(2, 2, [0], [1])
        path = tmp_path / "obs.txt"
        fileio.save_observed_entries(path, op, [2.5])
        assert path.read_text().split() == ["1", "2", "2.5"]

    def test_rebuild_sampler_from_file(self, tmp_path, rng):
        prob = gen_problem(8, 8, 2, 30, kind="entry", seed=5)
        path = tmp_path / "obs.txt"
        fileio.save_observed_entries(path, prob.operator, prob.b)
        rows, cols, values = fileio.load_observed_entries(path)
        rebuilt = EntrySampler(8, 8, rows, cols)
        res = admira_solve(rebuilt, values, AdmiraConfig(rank=2, max_iter=30))
        ref = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=2, max_iter=30))
        np.testing.assert_array_equal(res.matrix(), ref.matrix())

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            fileio.load_observed_entries(path)

    @pytest.mark.parametrize("line", ["99999999999999999999 1 1.0", "1 -9223372036854775808 1.0"])
    def test_index_past_the_integer_range(self, tmp_path, line):
        path = tmp_path / "big.txt"
        path.write_text(f"1 1 2.0\n{line}\n")
        want = f"^{re.escape(str(path))}:2: an index is past the integer range$"
        with pytest.raises(ValueError, match=want):
            fileio.load_observed_entries(path)

    def test_value_count_mismatch(self, tmp_path):
        op = EntrySampler.random(3, 3, 4, seed=0)
        with pytest.raises(ValueError):
            fileio.save_observed_entries(tmp_path / "x.txt", op, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_value_writes_no_file(self, tmp_path, bad):
        op = EntrySampler.random(3, 3, 4, seed=0)
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError, match="^measurements contain non-finite entries$"):
            fileio.save_observed_entries(path, op, [1.0, bad, 2.0, 3.0])
        assert not path.exists()


class TestProblemFiles:
    def test_gaussian_roundtrip(self, tmp_path):
        prob = gen_problem(7, 6, 2, 25, kind="gaussian", seed=9)
        path = tmp_path / "prob.txt"
        fileio.save_problem(path, prob.operator, prob.b)
        op, b = fileio.load_problem(path)
        np.testing.assert_array_equal(b, prob.b)
        np.testing.assert_array_equal(op.matrix, prob.operator.matrix)

    def test_sampler_rejected(self, tmp_path):
        op = EntrySampler.random(3, 3, 4, seed=0)
        with pytest.raises(ValueError):
            fileio.save_problem(tmp_path / "p.txt", op, np.zeros(4))

    @pytest.mark.parametrize("seed, b, expect", [
        (None, np.zeros(25), "operator has no stored seed"),
        (9, np.zeros(24), "expected measurement length 25, got 24"),
        (9, np.insert(np.zeros(24), 3, np.nan), "measurements contain non-finite entries"),
    ], ids=["unseeded_operator", "short_b", "nan_b"])
    def test_save_rejected(self, tmp_path, seed, b, expect):
        path = tmp_path / "p.txt"
        with pytest.raises(ValueError, match=expect):
            fileio.save_problem(path, GaussianOperator(7, 6, 25, seed), b)
        assert not path.exists()

    def test_missing_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("kind=gaussian\nm=3\nn=3\n")
        with pytest.raises(ValueError):
            fileio.load_problem(path)

    @pytest.mark.parametrize("key, value, expect", [
        ("seed", "10", "does not match"),
        ("check", "0123456789abcdef", "does not match"),
        ("check", None, "missing check"),
        ("kind", "entry", "unsupported problem kind 'entry'"),
    ], ids=["edited_seed", "edited_check", "missing_check", "entry_kind"])
    def test_operator_check(self, tmp_path, key, value, expect):
        prob = gen_problem(7, 6, 2, 25, kind="gaussian", seed=9)
        path = tmp_path / "prob.txt"
        fileio.save_problem(path, prob.operator, prob.b)
        lines = path.read_text().splitlines()
        assert sum(line.startswith(f"{key}=") for line in lines) == 1
        lines = [line for line in lines if not line.startswith(f"{key}=")]
        if value is not None:
            lines.insert(1, f"{key}={value}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=expect):
            fileio.load_problem(path)

    def test_measurement_count_checked_on_load(self, tmp_path):
        prob = gen_problem(7, 6, 2, 25, kind="gaussian", seed=9)
        path = tmp_path / "prob.txt"
        fileio.save_problem(path, prob.operator, prob.b)
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("b=")
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="expected measurement length 25, got 24"):
            fileio.load_problem(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_measurement_refused_on_load(self, tmp_path, bad):
        prob = gen_problem(7, 6, 2, 25, kind="gaussian", seed=9)
        path = tmp_path / "prob.txt"
        fileio.save_problem(path, prob.operator, prob.b)
        lines = path.read_text().splitlines()
        lines[-2] = f"b={bad}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^measurements contain non-finite entries$"):
            fileio.load_problem(path)


class TestKeyValues:
    def test_pairs_skip_blanks_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\n n = 16 \nalg=svt\nn=8\n")
        assert list(fileio.read_key_values(path)) == [("n", "16"), ("alg", "svt"), ("n", "8")]

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=16\nseed 3\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: expected key=value"):
            list(fileio.read_key_values(path))


class TestTraceExport:
    # the CLI lays out the trace; these read back the file a command writes
    @staticmethod
    def write_trace(tmp_path, algorithm, kind, p, seed):
        problem, trace = tmp_path / "problem.txt", tmp_path / "trace.csv"
        assert main(["gen", "--kind", kind, "--n", "8", "--m", "8", "--r", "1", "--p", str(p),
                     "--seed", str(seed), "--out", str(problem)]) == 0
        source = (["solve", "--problem", str(problem)] if kind == "gaussian" else
                  ["complete", "--obs", str(problem), "--n", "8", "--m", "8"])
        assert main(source + ["--r", "1", "--alg", algorithm, "--max-iter", "30",
                              "--trace-out", str(trace)]) == 0
        return trace

    def test_without_truth_column(self, tmp_path):
        trace = self.write_trace(tmp_path, "admira", "entry", 64, 1)
        assert trace.read_text().splitlines()[0] == "iter,residual_l2,rel_residual"

    @pytest.mark.parametrize("algorithm, kind", [
        ("admira", "entry"), ("omp", "gaussian"), ("svt", "entry")])
    def test_rows_number_and_read_back(self, tmp_path, algorithm, kind):
        # the rows are numbered 1..N, and every value parses back exactly to
        # the trace of the same solve run in-process
        trace = self.write_trace(tmp_path, algorithm, kind, 40, 2)
        prob = gen_problem(8, 8, 1, 40, kind=kind, seed=2)
        res = solve(algorithm, prob.operator, prob.b, 1, max_iter=30)
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        assert res.iterations >= 2
        assert [int(row[0]) for row in rows] == list(range(1, res.iterations + 1))
        assert [[float(x) for x in row[1:]] for row in rows] == [
            [t.residual_l2, t.rel_residual] for t in res.trace]


class TestReportExports:
    # the CSVs of the rip command, read back against the in-process reports
    def test_rip_estimate_csv(self, tmp_path):
        path = tmp_path / "rip.csv"
        assert main(["rip", "--kind", "gaussian", "--m", "6", "--n", "6", "--p", "100",
                     "--r", "2", "--samples", "50", "--seed", "3", "--out", str(path)]) == 0
        op = GaussianOperator(6, 6, 100, derive_seed(3, "rip-op"))
        delta_hat = estimate_delta(op, 2, 50, 3)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,delta_hat,samples,seed"
        fields = lines[1].split(",")
        assert int(fields[0]) == 2
        assert float(fields[1]) == delta_hat

    def test_pairs_csv(self, tmp_path):
        path = tmp_path / "pairs.csv"
        assert main(["rip", "--kind", "gaussian", "--m", "6", "--n", "6", "--p", "150",
                     "--r", "2", "--samples", "10", "--pairs", "10", "--seed", "5",
                     "--out", str(tmp_path / "rip.csv"), "--pairs-out", str(path)]) == 0
        op = GaussianOperator(6, 6, 150, derive_seed(5, "rip-op"))
        rep = restricted_orthogonality_check(op, 2, 10, 5)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_id,lhs,rhs_sqrt2,rhs_1"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == list(range(10))
        assert [row[1] for row in rows] == list(rep.lhs)
        assert [row[3] for row in rows] == list(rep.bound)
        # the sqrt(2) column is computed from the constant-1 bound, bit for bit
        assert all(row[2] == np.sqrt(2.0) * row[3] for row in rows)


class TestDenseMatrixFiles:
    def test_roundtrip(self, tmp_path, rng):
        X = rng.standard_normal((4, 6))
        path = tmp_path / "x.csv"
        fileio.save_dense_matrix(path, X)
        np.testing.assert_array_equal(load_dense_matrix(path), X)
