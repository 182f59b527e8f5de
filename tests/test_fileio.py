import math

import numpy as np
import pytest

from admira import fileio
from admira.harness import gen_problem
from admira.operators import EntrySampler, GaussianOperator
from admira.ripcheck import estimate_delta, restricted_orthogonality_check
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

    def test_value_count_mismatch(self, tmp_path):
        op = EntrySampler.random(3, 3, 4, seed=0)
        with pytest.raises(ValueError):
            fileio.save_observed_entries(tmp_path / "x.txt", op, [1.0])


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

    def test_missing_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("kind=gaussian\nm=3\nn=3\n")
        with pytest.raises(ValueError):
            fileio.load_problem(path)

    @pytest.mark.parametrize("key, value, expect", [
        ("seed", "10", "does not match"),
        ("check", "0123456789abcdef", "does not match"),
        ("check", None, "missing check"),
    ], ids=["edited_seed", "edited_check", "missing_check"])
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
    def test_with_truth_column(self, tmp_path):
        prob = gen_problem(8, 8, 1, 64, kind="entry", seed=1)
        res = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=1), truth=prob.x_true)
        path = tmp_path / "trace.csv"
        fileio.save_trace(path, res)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,residual_l2,rel_residual,error_fro"
        assert len(lines) == res.iterations + 1

    def test_without_truth_column(self, tmp_path):
        prob = gen_problem(8, 8, 1, 64, kind="entry", seed=1)
        res = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=1))
        path = tmp_path / "trace.csv"
        fileio.save_trace(path, res)
        assert path.read_text().splitlines()[0] == "iter,residual_l2,rel_residual"


class TestReportExports:
    def test_rip_estimate_csv(self, tmp_path):
        op = GaussianOperator(6, 6, 100, seed=2)
        est = estimate_delta(op, 2, 50, seed=3)
        path = tmp_path / "rip.csv"
        fileio.save_rip_estimates(path, [est])
        lines = path.read_text().splitlines()
        assert lines[0] == "r,delta_hat,samples,seed"
        fields = lines[1].split(",")
        assert int(fields[0]) == 2
        assert float(fields[1]) == est.delta_hat

    def test_pairs_csv(self, tmp_path):
        op = GaussianOperator(6, 6, 150, seed=4)
        rep = restricted_orthogonality_check(op, 2, 10, seed=5)
        path = tmp_path / "pairs.csv"
        fileio.save_orthogonality_pairs(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_id,lhs,rhs_sqrt2,rhs_1"
        assert len(lines) == 11


class TestDenseMatrixFiles:
    def test_roundtrip(self, tmp_path, rng):
        X = rng.standard_normal((4, 6))
        path = tmp_path / "x.csv"
        fileio.save_dense_matrix(path, X)
        np.testing.assert_array_equal(load_dense_matrix(path), X)
