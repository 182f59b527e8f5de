import concurrent.futures
import functools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from admira import harness
from admira.baselines import UnsupportedOperatorError
from admira.harness import (
    compare_table,
    degrees_of_freedom,
    gen_problem,
    phase_transition,
    run_sweep,
    run_trial,
    snr_recon,
)
from admira.seeding import derive_rng, derive_seed


class TestDegreesOfFreedom:
    def test_reference_values(self):
        assert degrees_of_freedom(1000, 1000, 2) == 3996
        assert degrees_of_freedom(500, 500, 2) == 1996
        assert degrees_of_freedom(7, 5, 0) == 0

    def test_reference_ratios(self):
        # p = 0.20 * 1000^2 against r = 2, 5, 10
        p = 200000
        for r, want in ((2, 50.05), (5, 20.05), (10, 10.05)):
            assert abs(p / degrees_of_freedom(1000, 1000, r) - want) <= 0.01

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            degrees_of_freedom(4, 4, 5)
        with pytest.raises(ValueError):
            degrees_of_freedom(4, 4, -1)

    def test_measurement_count_rounds_and_caps(self):
        assert harness.measurement_count(10, 10, 1, 2.0) == 38
        assert harness.measurement_count(10, 10, 1, 0.51) == 10  # round(9.69)
        assert harness.measurement_count(4, 4, 1, 100.0) == 16
        assert harness.measurement_count(4, 4, 1, 1e308) == 16  # p/d_r * d_r overflows

    @pytest.mark.parametrize("ratio", [0.0, -2.0, float("nan"), float("inf")])
    def test_measurement_count_rejects_bad_ratio(self, ratio):
        with pytest.raises(ValueError, match="p/d_r must be positive and finite"):
            harness.measurement_count(10, 10, 1, ratio)


class TestGenProblem:
    def test_noiseless_by_default(self):
        prob = gen_problem(10, 8, 2, 30, seed=1)
        assert np.all(prob.nu == 0.0)
        np.testing.assert_allclose(prob.b, prob.operator.apply(prob.x_true), atol=1e-12)

    def test_requested_snr_exact(self):
        prob = gen_problem(10, 10, 2, 40, snr_meas_db=60.0, seed=2)
        got = 20.0 * math.log10(np.linalg.norm(prob.b - prob.nu) / np.linalg.norm(prob.nu))
        assert abs(got - 60.0) <= 1e-9

    def test_truth_has_full_target_rank(self):
        for t in range(100):
            prob = gen_problem(8, 8, 2, 20, seed=derive_seed(99, t))
            s = np.linalg.svd(prob.x_true, compute_uv=False)
            assert s[1] > 0.0
            assert np.linalg.matrix_rank(prob.x_true) == 2

    def test_reproducible(self):
        a = gen_problem(9, 9, 2, 30, kind="entry", seed=7)
        b = gen_problem(9, 9, 2, 30, kind="entry", seed=7)
        np.testing.assert_array_equal(a.x_true, b.x_true)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.operator.rows, b.operator.rows)

    def test_gaussian_kind(self):
        prob = gen_problem(6, 6, 1, 50, kind="gaussian", seed=3)
        assert prob.operator.kind == "gaussian"
        assert prob.operator.seed is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_problem(6, 6, 1, 10, kind="fourier", seed=0)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_snr_without_a_noise_level_rejected(self, snr):
        with pytest.raises(ValueError, match="measurement SNR must be a number of dB or inf"):
            gen_problem(6, 6, 1, 10, snr_meas_db=snr, seed=0)

    # -1e308: 10 ** (-snr / 20) overflows; -6160: 10 ** 308 is finite, but the
    # noise it scales reaches 3e308 on this problem (pytest turns a RuntimeWarning
    # into an error, so an overflow in NumPy would fail here too)
    @pytest.mark.parametrize("snr", [-1e308, -6160.0])
    def test_snr_whose_noise_overflows_rejected(self, snr):
        with pytest.raises(ValueError, match="dB gives non-finite noise"):
            gen_problem(12, 12, 2, 100, snr_meas_db=snr, seed=0)

    def test_snr_of_zero_measurements_refused(self, monkeypatch):
        # an operator blind to the truth leaves no signal to scale noise to
        class Blind:
            def __init__(self, m, n, p, seed):
                self.p = p

            def apply(self, X):
                return np.zeros(self.p)

        monkeypatch.setitem(harness.OPERATOR_KINDS, "blind", Blind)
        with pytest.raises(ValueError, match="^cannot set a measurement SNR for zero"):
            gen_problem(6, 6, 1, 10, kind="blind", snr_meas_db=30.0, seed=0)

    def test_infinite_snr_is_noiseless(self):
        infinite = gen_problem(6, 6, 1, 10, snr_meas_db=math.inf, seed=0)
        np.testing.assert_array_equal(infinite.b, gen_problem(6, 6, 1, 10, seed=0).b)


class TestSnrMetrics:
    def test_exact_reconstruction_is_inf(self, rng):
        X = rng.standard_normal((4, 4))
        assert snr_recon(X, X.copy()) == math.inf

    def test_ratio_of_ten_is_twenty_db(self, rng):
        X = rng.standard_normal((5, 5))
        E = rng.standard_normal((5, 5))
        E *= np.linalg.norm(X, "fro") / (10.0 * np.linalg.norm(E, "fro"))
        assert abs(snr_recon(X, X - E) - 20.0) <= 1e-9

    def test_mismatched_shapes_rejected(self, rng):
        # a (1, 6) reconstruction would broadcast against every row of the truth
        with pytest.raises(ValueError, match="shape"):
            snr_recon(rng.standard_normal((6, 6)), rng.standard_normal((1, 6)))

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            snr_recon(np.zeros((3, 3)), np.eye(3))


class TestRunTrial:
    def test_identity_measurements_one_iteration(self):
        prob = gen_problem(8, 8, 2, 64, kind="entry", seed=11)
        # seed 11 gives the exhaustive sampler here because p = m*n
        rep = run_trial(prob, "admira")
        assert rep.iterations == 1
        assert rep.snr_recon_db >= 140.0
        assert rep.stop_reason == "converged"

    def test_deterministic_reports(self):
        prob = gen_problem(10, 10, 2, 60, kind="entry", seed=12)
        a = run_trial(prob, "admira")
        b = run_trial(prob, "admira")
        assert (a.snr_recon_db, a.iterations, a.stop_reason) == (
            b.snr_recon_db, b.iterations, b.stop_reason)

    def test_svt_requires_sampler(self):
        prob = gen_problem(6, 6, 1, 40, kind="gaussian", seed=13)
        with pytest.raises(UnsupportedOperatorError):
            run_trial(prob, "svt")

    def test_unknown_algorithm(self):
        prob = gen_problem(6, 6, 1, 20, seed=14)
        with pytest.raises(ValueError):
            run_trial(prob, "sdp")

    @pytest.mark.parametrize("alg", harness.ALGORITHMS)
    @pytest.mark.parametrize("rank", [0, 7])
    def test_rank_outside_matrix_size(self, alg, rank):
        prob = gen_problem(6, 6, 1, 20, seed=14)
        with pytest.raises(ValueError, match=r"rank must be in \[1, 6\] for a 6x6 matrix"):
            harness.solve(alg, prob.operator, prob.b, rank)

    def test_pursuit_variants_run(self):
        prob = gen_problem(8, 8, 1, 64, seed=15)
        for alg in ("omp", "mp"):
            assert run_trial(prob, alg).iterations >= 1


class TestRunSweep:
    def test_full_sampling_recovers(self):
        dr = degrees_of_freedom(10, 10, 1)
        rows = run_sweep(10, 10, 1, [100 / dr], trials=3, seed=21)
        assert rows[0][1] == 100  # p capped at m*n
        assert rows[0][2] >= 140.0  # exact recovery
        assert rows[0][3] <= 2.0

    def test_snr_improves_with_sampling(self):
        rows = run_sweep(16, 16, 1, [3.0, 8.0], trials=4, seed=22, max_iter=30)
        assert rows[1][2] >= rows[0][2] - 3.0

    def test_threads_do_not_change_numbers(self):
        serial = run_sweep(12, 12, 1, [4.0], trials=4, seed=23)
        threaded = run_sweep(12, 12, 1, [4.0], trials=4, seed=23, threads=3)
        assert serial == threaded

    def test_empty_ratio_list_rejected(self):
        with pytest.raises(ValueError, match="the sweep grid is empty"):
            run_sweep(12, 12, 1, [], trials=1, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            run_sweep(12, 12, 1, [4.0], trials=1, seed=0, threads=threads)


class TestPhaseTransition:
    def test_full_sampling_cell_all_succeed(self):
        successes = phase_transition(8, 8, [64], [1, 2], trials=3, seed=31)
        np.testing.assert_array_equal(successes, [[3], [3]])
        assert successes.dtype.kind == "i"

    def test_undersampled_cell_always_fails(self):
        # p below the degree count cannot support recovery
        dr = degrees_of_freedom(10, 10, 2)
        successes = phase_transition(10, 10, [dr - 5], [2], trials=3, seed=32)
        np.testing.assert_array_equal(successes, [[0]])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            phase_transition(8, 8, [], [1], trials=1, seed=0)

    def test_nan_threshold_rejected_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(harness, "_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="success threshold must be a number of dB"):
            phase_transition(8, 8, [40], [1], trials=1, seed=0, threshold_db=float("nan"))


class TestCompareTable:
    def test_schema_and_ordering(self):
        rows = compare_table(14, 14, [1], 196, trials=2, seed=41)
        assert [r[3] for r in rows] == ["admira", "svt"]
        assert rows[0][1] == 1.0  # p / n^2 for exhaustive sampling

    def test_shared_problems_between_algorithms(self):
        rows = compare_table(12, 12, [1], 100, trials=2, seed=42)
        by_alg = {r[3]: r for r in rows}
        assert by_alg["admira"][2] == by_alg["svt"][2]

    def test_empty_rank_list_rejected(self):
        with pytest.raises(ValueError, match="the compare grid is empty"):
            compare_table(12, 12, [], 100, trials=1, seed=0)


@pytest.fixture
def pools(monkeypatch):
    """The (worker count, mp_context) of every pool the harness makes during
    the test. The harness keeps its pool across calls, so the test starts and
    ends with none: an earlier test's pool would never call the factory."""
    harness._drop_pool()
    made = []

    def pool(max_workers, **kwargs):
        # refuse before starting any process, should a cap be lost
        assert max_workers <= 4
        made.append((max_workers, kwargs.get("mp_context")))
        return ProcessPoolExecutor(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    yield made
    harness._drop_pool()


def _alive(pid):
    return os.path.exists(f"/proc/{pid}")


def _running(pid):
    """``pid`` is a live process: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _children():
    return {child.pid for child in multiprocessing.active_children()}


# the start methods of Linux; forkserver is Python 3.14's default there
METHODS = ["fork", "spawn", "forkserver"]


def _sweep_in_child(conn):
    conn.send(run_sweep(12, 12, 1, [4.0], trials=2, seed=61, threads=2))
    conn.close()


class TestWorkerPool:
    # 100x100 problems select on the Krylov path, where BLAS does the work
    @pytest.mark.parametrize("experiment", [
        lambda threads: run_sweep(100, 100, 2, [6.0], trials=2, seed=51, max_iter=20,
                                  threads=threads),
        lambda threads: phase_transition(100, 100, [2400], [2], trials=2, seed=52, max_iter=20,
                                         threads=threads).tolist(),
        lambda threads: compare_table(100, 100, [2], 2400, trials=2, seed=53, max_iter=20,
                                      threads=threads),
    ], ids=["sweep", "phase", "compare"])
    def test_workers_give_identical_rows(self, experiment):
        assert experiment(2) == experiment(1)

    def test_blas_pinned_during_trials_and_restored(self, monkeypatch):
        blas = harness._openblas()
        if blas is None:
            pytest.skip("NumPy's bundled OpenBLAS not found")
        get, put, _ = blas
        seen = []
        real = harness.run_trial
        monkeypatch.setattr(harness, "run_trial",
                            lambda *args: seen.append(get()) or real(*args))
        before = get()
        try:
            put(2)
            run_sweep(12, 12, 1, [4.0], trials=2, seed=54)
            assert seen == [1, 1]
            assert get() == 2
        finally:
            put(before)

    def test_missing_openblas_pins_nothing(self, monkeypatch, pools):
        with monkeypatch.context() as patch:
            patch.setattr(harness.glob, "glob", lambda pattern: [])
            assert harness._openblas.__wrapped__() is None
        serial = run_sweep(12, 12, 1, [4.0], trials=2, seed=64)
        # the pool starts under the patch, so its workers fork with it
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        assert harness._pin_blas() is None
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=64) == serial
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=64, threads=2) == serial
        assert pools == [(2, None)]

    def test_worker_error_reaches_caller(self, pools):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_sweep(12, 12, 1, [4.0], trials=2, seed=55, algorithm="nope", threads=2)
        serial = run_sweep(12, 12, 1, [4.0], trials=2, seed=55)
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=55, threads=2) == serial
        assert pools == [(2, None)]

    def test_workers_capped_at_task_count(self, pools):
        serial = run_sweep(12, 12, 1, [4.0], trials=2, seed=56)
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=56, threads=64) == serial
        assert pools == [(2, None)]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_spawned_workers_give_identical_rows(self, monkeypatch, pools, method):
        serial = run_sweep(12, 12, 1, [4.0, 6.0], trials=2, seed=57)
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            functools.partial(concurrent.futures.ProcessPoolExecutor,
                                              mp_context=context))
        assert run_sweep(12, 12, 1, [4.0, 6.0], trials=2, seed=57, threads=2) == serial
        assert pools == [(2, context)]

    def test_same_count_reuses_pool(self, pools):
        sweep = run_sweep(12, 12, 1, [4.0], trials=2, seed=58)
        table = compare_table(12, 12, [1], 144, trials=1, seed=58)
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=58, threads=2) == sweep
        assert compare_table(12, 12, [1], 144, trials=1, seed=58, threads=2) == table
        assert pools == [(2, None)]

    def test_other_count_replaces_pool(self, pools):
        serial = run_sweep(12, 12, 1, [4.0], trials=3, seed=59)
        assert run_sweep(12, 12, 1, [4.0], trials=3, seed=59, threads=2) == serial
        old = _children()
        assert run_sweep(12, 12, 1, [4.0], trials=3, seed=59, threads=3) == serial
        assert pools == [(2, None), (3, None)]
        assert len(old) == 2 and not any(map(_alive, old))

    def test_killed_worker_replaced(self, pools):
        serial = run_sweep(12, 12, 1, [4.0], trials=2, seed=60)
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=60, threads=2) == serial
        victim = min(_children())
        os.kill(victim, signal.SIGKILL)
        # the pool reaps its workers once it has marked itself broken
        deadline = time.monotonic() + 30
        while _alive(victim) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(victim)
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=60, threads=2) == serial
        assert pools == [(2, None), (2, None)]

    def test_forked_child_makes_its_own_pool(self, pools):
        serial = run_sweep(12, 12, 1, [4.0], trials=2, seed=61)
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=61, threads=2) == serial
        fork = multiprocessing.get_context("fork")
        reader, writer = fork.Pipe(duplex=False)
        child = fork.Process(target=_sweep_in_child, args=(writer,))
        child.start()
        try:
            writer.close()
            assert reader.poll(60)
            assert reader.recv() == serial
            # the child shuts its own pool down, or its exit would wait on it
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert run_sweep(12, 12, 1, [4.0], trials=2, seed=61, threads=2) == serial
        assert pools == [(2, None)]

    @pytest.mark.parametrize("method", METHODS)
    def test_process_exits_cleanly_and_stops_workers(self, method):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        code = ("import multiprocessing, sys\n"
                "from admira.harness import run_sweep\n"
                "if __name__ == '__main__':\n"
                "    multiprocessing.set_start_method(sys.argv[1])\n"
                "    run_sweep(12, 12, 1, [4.0], trials=2, seed=62, threads=2)\n"
                "    print(*[child.pid for child in multiprocessing.active_children()])")
        out = subprocess.run([sys.executable, "-c", code, method],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stderr == ""
        pids = out.stdout.split()
        assert len(pids) == 2 and not any(map(_alive, pids))

    @pytest.mark.parametrize("method", METHODS)
    def test_killed_process_leaves_no_worker(self, tmp_path, method):
        # the pids go to a file: a surviving worker would hold stdout open;
        # under forkserver the server must end too
        src = os.path.dirname(os.path.dirname(harness.__file__))
        path = tmp_path / "pids"
        code = ("import multiprocessing, multiprocessing.forkserver, os, signal, sys\n"
                "from admira.harness import run_sweep\n"
                "if __name__ == '__main__':\n"
                "    multiprocessing.set_start_method(sys.argv[2])\n"
                "    run_sweep(12, 12, 1, [4.0, 8.0], trials=2, seed=63, threads=2)\n"
                "    pids = [child.pid for child in multiprocessing.active_children()]\n"
                "    if sys.argv[2] == 'forkserver':\n"
                "        pids.append(multiprocessing.forkserver._forkserver._forkserver_pid)\n"
                "    with open(sys.argv[1], 'w') as fh:\n"
                "        print(*pids, file=fh)\n"
                "    os.kill(os.getpid(), signal.SIGKILL)")
        run = subprocess.run([sys.executable, "-c", code, str(path), method],
                             env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=120)
        assert run.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in path.read_text().split()]
        assert len(pids) == (3 if method == "forkserver" else 2)
        deadline = time.monotonic() + 5
        try:
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


class TestSeeding:
    def test_string_and_int_keys_stable(self):
        assert derive_seed(5, "trial", 3) == derive_seed(5, "trial", 3)
        assert derive_seed(5, "trial", 3) != derive_seed(5, "trial", 4)
        assert derive_seed(5, "a") != derive_seed(5, "b")

    def test_bool_keys_hash_as_strings(self):
        # True == 1 in Python, but a flag and a count name different substreams
        assert derive_seed(1, True) != derive_seed(1, 1)
        assert derive_seed(1, True) == derive_seed(1, "True")

    def test_rng_streams_independent(self):
        a = derive_rng(9, "x").standard_normal(4)
        b = derive_rng(9, "y").standard_normal(4)
        assert not np.allclose(a, b)
