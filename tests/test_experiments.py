import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eivpcr import (
    BadParam,
    MaskedMatrix,
    PredictionConfig,
    check_subspace_inclusion,
    fit,
    mean_squared_error,
    predict,
    svd,
)
from eivpcr import _blas
from eivpcr.core import _svd_of_product
from eivpcr.simlab import (
    Shift,
    child,
    experiments,
    gen_factor_uv,
    gen_prob_pca,
    gen_rowspan_violation,
    make_identification_trial,
    make_shift_trial,
    make_subspace_trial,
    run_experiment_identification,
    run_experiment_shift,
    run_experiment_subspace,
)

_IDENT_KEYS = {
    "config", "p", "r", "n", "rescaled_n", "seed", "chosen_k",
    "snr", "rmse_beta_star", "rmse_beta_raw",
}


class TestIdentificationTrial:
    def test_response_and_model_construction(self):
        trial = make_identification_trial(p=27, n=40, r=3, seed=5)
        assert trial.x_train.shape == (40, 27)
        x_r, q = gen_prob_pca(40, 27, 3, child(5, 27, 40))
        assert_array_equal(trial.x_train, x_r @ q)
        assert trial.z_train.mask.all()          # no masking in this design
        assert not np.array_equal(trial.z_train.values, trial.x_train)
        # beta_star is the rowspan projection of the raw draw
        v = svd(trial.x_train).right_vectors[:, :3]
        assert np.linalg.norm(v @ (v.T @ trial.beta_raw) - trial.beta_star) <= 1e-10
        # the response noise is exactly the residual around the linear part
        eps = trial.y - trial.x_train @ trial.beta_raw
        assert np.std(eps) == pytest.approx(np.sqrt(0.2), rel=0.5)

    def test_raw_error_dominates_star_error(self):
        rep = run_experiment_identification([27], [0, 1], threads=1)
        for rec in rep.records:
            assert rec["rmse_beta_raw"] >= rec["rmse_beta_star"] - 1e-12


class TestIdentificationRunner:
    def test_schema_and_grid(self):
        rep = run_experiment_identification([27], [0, 1])
        assert rep.name == "identification"
        assert len(rep.records) == 16              # 8 grid points x 2 seeds
        assert all(set(r) == _IDENT_KEYS for r in rep.records)
        assert len(rep.aggregates) == 8
        assert all(a["trials"] == 2 for a in rep.aggregates)
        ns = [a["n"] for a in rep.aggregates]
        assert ns == sorted(ns) and len(set(ns)) == 8
        assert all(r["r"] == 3 and r["chosen_k"] == 3 for r in rep.records)

    def test_reproducible_and_order_independent(self):
        a = run_experiment_identification([27], [0, 1])
        b = run_experiment_identification([27], [1, 0])
        assert a.records == b.records
        assert a.aggregates == b.aggregates

    def test_threaded_run_matches_serial(self):
        a = run_experiment_identification([27], [0, 1], threads=1)
        b = run_experiment_identification([27], [0, 1], threads=3)
        assert a.records == b.records

    def test_aggregate_means_match_records(self):
        rep = run_experiment_identification([27], [0, 1, 2])
        for agg in rep.aggregates:
            rows = [r for r in rep.records if r["n"] == agg["n"]]
            vals = [r["rmse_beta_star"] for r in rows]
            assert agg["rmse_beta_star_mean"] == pytest.approx(np.mean(vals), rel=1e-12)
            assert agg["rmse_beta_star_std"] == pytest.approx(np.std(vals), rel=1e-9, abs=1e-12)

    def test_bad_params(self):
        with pytest.raises(BadParam):
            run_experiment_identification([], [0])
        with pytest.raises(BadParam):
            run_experiment_identification([4], [0])
        with pytest.raises(BadParam):
            run_experiment_identification([27], [])


def _trials_and_generating_factors(kind, dims, seed):
    """A trial kind's TrialData list, the ``(left, right)`` factors of its
    ``x_train = left @ right.T`` and the ``(x_train, x_test)`` products of
    its public generator's factors, one pair per TrialData."""
    if kind == "identification":
        p, n, r = dims
        x_r, q = gen_prob_pca(n, p, r, child(seed, p, n))
        trial = make_identification_trial(p, n, r, seed)
        return [trial], (x_r, q.T), [(x_r @ q, None)]
    size, sigma2 = dims
    key = child(seed, experiments._sigma_key(sigma2), size)
    if kind == "shift":
        u, v, u_tests = gen_factor_uv(size, size, size, key)
        trials = make_shift_trial(size, sigma2, seed)
        assert list(trials) == list(u_tests)
        x_tests = [u_te @ v.T for u_te in u_tests.values()]
        trials = list(trials.values())
    else:
        u, v, u_ok, v_bad = gen_rowspan_violation(size, size, size, key)
        x_tests = [u_ok @ v.T, u @ v_bad.T]
        trials = list(make_subspace_trial(size, sigma2, seed))
    x_train = u @ v.T
    return trials, (u, v), [(x_train, x_te) for x_te in x_tests]


class TestTrainFactors:
    @pytest.mark.parametrize("kind, dims, seed", [
        pytest.param("identification", (27, 40, 3), 5, id="27-40-3-5"),
        pytest.param("identification", (128, 600, 5), 1, id="128-600-5-1"),
        pytest.param("identification", (216, 7740, 6), 0, id="216-7740-6-0"),
        pytest.param("shift", (60, 0.3), 7, id="shift"),
        pytest.param("subspace", (60, 0.3), 7, id="subspace"),
    ])
    def test_identification_trial_factors_its_generating_factors(self, kind, dims, seed):
        # every trial kind takes its train factors from the generating
        # factors of x_train, never from the n x p latent
        trials, (left, right), generated = _trials_and_generating_factors(kind, dims, seed)
        want = _svd_of_product(left, right)
        n, r = left.shape
        p = right.shape[0]
        for trial, (x_train, x_test) in zip(trials, generated, strict=True):
            assert_array_equal(trial.x_train, x_train)
            if x_test is None:
                assert trial.x_test is None
            else:
                assert_array_equal(trial.x_test, x_test)
            got = trial.train_factors
            assert_array_equal(got.singular_values, want.singular_values)
            assert_array_equal(got.left_vectors, want.left_vectors)
            assert_array_equal(got.right_vectors, want.right_vectors)
            assert got.singular_values.shape == (r,)
            assert got.left_vectors.shape == (n, r) and got.right_vectors.shape == (p, r)
        # the dense factorization's top r triplets, to rounding
        dense = svd(trials[0].x_train)
        np.testing.assert_allclose(want.singular_values, dense.singular_values[:r], rtol=1e-13, atol=0)
        v, w = want.right_vectors, dense.right_vectors[:, :r]
        assert np.abs(v @ v.T - w @ w.T).max() <= 1e-12

    def test_shift_and_subspace_trials_share_one_factorization(self):
        # the test designs of a trial hold the very same factors object
        for trials in (list(make_shift_trial(60, 0.3, 7).values()), make_subspace_trial(60, 0.3, 7)):
            assert all(t.train_factors is trials[0].train_factors for t in trials)


class TestShiftTrial:
    def test_shared_train_side(self):
        trials = make_shift_trial(60, 0.3, 7)
        base = trials[Shift.N1]
        for shift in (Shift.N2, Shift.U1, Shift.U2):
            other = trials[shift]
            assert_array_equal(other.x_train, base.x_train)
            assert_array_equal(other.y, base.y)
            assert_array_equal(other.beta_raw, base.beta_raw)
            assert_array_equal(other.z_train.values, base.z_train.values)

    def test_shared_test_noise_draw(self):
        # the four test designs differ, but W' = z_test - x_test is one draw;
        # recovering it by subtraction reintroduces rounding, hence the atol
        trials = make_shift_trial(60, 0.3, 7)
        base = trials[Shift.N1]
        w_base = base.z_test.values - base.x_test
        for shift in (Shift.N2, Shift.U1, Shift.U2):
            other = trials[shift]
            assert not np.array_equal(other.x_test, base.x_test)
            np.testing.assert_allclose(
                other.z_test.values - other.x_test, w_base, rtol=0, atol=1e-12
            )

    def test_theta_is_exact_linear_response(self):
        trials = make_shift_trial(60, 0.3, 7)
        for trial in trials.values():
            assert_array_equal(trial.theta_test, trial.x_test @ trial.beta_raw)


class TestShiftRunner:
    def test_noiseless_trials_predict_exactly(self):
        rep = run_experiment_shift([0.0], [0], 60)
        rec = rep.records[0]
        for shift in Shift:
            assert rec[f"mse_{shift.name}"] <= 1e-10

    def test_record_matches_recomputed_pipeline(self):
        rep = run_experiment_shift([0.3], [7], 60)
        rec = rep.records[0]
        trials = make_shift_trial(60, 0.3, 7)
        base = trials[Shift.N1]
        model = fit(base.z_train, base.y, k=10)
        for shift, trial in trials.items():
            y_hat = predict(model, trial.z_test, PredictionConfig(ell=10))
            assert rec[f"mse_{shift.name}"] == mean_squared_error(y_hat, trial.theta_test)

    def test_reproducible(self):
        a = run_experiment_shift([0.2], [0, 1], 60)
        b = run_experiment_shift([0.2], [1, 0], 60, threads=2)
        assert a.records == b.records

    def test_aggregate_ratio(self):
        rep = run_experiment_shift([0.2], [0, 1], 60)
        agg = rep.aggregates[0]
        means = [agg[f"mse_{s.name}_mean"] for s in Shift]
        assert agg["mse_max_over_min"] == pytest.approx(max(means) / min(means), rel=1e-12)

    def test_bad_params(self):
        with pytest.raises(BadParam):
            run_experiment_shift([0.2], [0], 20)
        with pytest.raises(BadParam):
            run_experiment_shift([], [0], 60)
        with pytest.raises(BadParam):
            run_experiment_shift([-0.5], [0], 60)


class TestSubspaceRunner:
    def test_noiseless_leak_matches_projection_oracle(self):
        rep = run_experiment_subspace([0.0], [3], 60)
        rec = rep.records[0]
        assert rec["mse_ok"] <= 1e-10
        trial_ok, trial_bad = make_subspace_trial(60, 0.0, 3)
        v = svd(trial_ok.x_train).right_vectors[:, :10]
        resid = trial_bad.x_test @ (trial_bad.beta_raw - v @ (v.T @ trial_bad.beta_raw))
        oracle = float(np.mean(resid**2))
        assert rec["mse_bad"] == pytest.approx(oracle, rel=1e-6)

    def test_noisy_bad_design_stays_above_oracle_floor(self):
        rep = run_experiment_subspace([0.2], [3], 60)
        rec = rep.records[0]
        trial_ok, trial_bad = make_subspace_trial(60, 0.2, 3)
        v = svd(trial_ok.x_train).right_vectors[:, :10]
        resid = trial_bad.x_test @ (trial_bad.beta_raw - v @ (v.T @ trial_bad.beta_raw))
        oracle = float(np.mean(resid**2))
        assert rec["mse_bad"] >= 0.25 * oracle

    def test_leakage_columns(self):
        rep = run_experiment_subspace([0.2], [0], 60)
        rec = rep.records[0]
        assert rec["leakage_ok"] <= 1e-8
        assert rec["leakage_bad"] > 0.5

    def test_leakage_from_kept_factors_equals_the_public_check(self):
        # the runner reads the trial's rank-r train factors, taken from the
        # generating factors; the matrix form factors x_train densely, so
        # the two agree to rounding (leakage_ok itself is rounding, ~1e-15)
        rec = run_experiment_subspace([0.2], [0], 60).records[0]
        trial_ok, trial_bad = make_subspace_trial(60, 0.2, 0)
        for col, trial in (("leakage_ok", trial_ok), ("leakage_bad", trial_bad)):
            assert abs(rec[col] - check_subspace_inclusion(trial.x_train, trial.x_test)) <= 1e-12

    def test_shared_test_noise(self):
        trial_ok, trial_bad = make_subspace_trial(60, 0.4, 1)
        assert_array_equal(trial_ok.x_train, trial_bad.x_train)
        np.testing.assert_allclose(
            trial_ok.z_test.values - trial_ok.x_test,
            trial_bad.z_test.values - trial_bad.x_test,
            rtol=0,
            atol=1e-12,
        )

    def test_aggregate_ratio_of_means(self):
        rep = run_experiment_subspace([0.2], [0, 1], 60)
        agg = rep.aggregates[0]
        assert agg["mse_ratio_of_means"] == pytest.approx(
            agg["mse_bad_mean"] / agg["mse_ok_mean"], rel=1e-12
        )

    def test_reproducible(self):
        a = run_experiment_subspace([0.2], [0, 1], 60)
        b = run_experiment_subspace([0.2], [1, 0], 60, threads=2)
        assert a.records == b.records

    def test_bad_size(self):
        with pytest.raises(BadParam):
            run_experiment_subspace([0.2], [0], 10)


class TestGridChecks:
    """Grids are rejected before any trial runs."""

    _RUNNERS = (
        lambda seeds: run_experiment_identification([27], seeds),
        lambda seeds: run_experiment_shift([0.2], seeds, 60),
        lambda seeds: run_experiment_subspace([0.2], seeds, 60),
    )

    def test_negative_seed(self):
        for run in self._RUNNERS:
            with pytest.raises(BadParam, match="seeds must be >= 0, got -1"):
                run([0, -1])

    def test_repeated_seed(self):
        for run in self._RUNNERS:
            with pytest.raises(BadParam, match="seed 1 repeats 1"):
                run([1, 2, 1])

    def test_repeated_dimension(self):
        with pytest.raises(BadParam, match="dimension 27 repeats 27"):
            run_experiment_identification([27, 64, 27], [0])

    def test_noise_values_sharing_a_stream_key(self):
        for run in (run_experiment_shift, run_experiment_subspace):
            with pytest.raises(BadParam, match="noise variance 0.1 repeats 0.1"):
                run([0.1, 0.1], [0], 60)
            # 1e-7 apart: the same stream key and config label
            with pytest.raises(BadParam, match="noise variance 0.1000001 repeats 0.1"):
                run([0.1, 0.3, 0.1000001], [0], 60)
            # 1e-6 apart: distinct stream keys, but both labels read sig3.16228
            with pytest.raises(BadParam, match="noise variance 10.000001 repeats 10.0"):
                run([10, 10.000001], [0], 60)


class TestConfigLabels:
    # the exact label format: kind/n/m/p/r/sig (noise sd, %g)/rho1
    def test_identification(self):
        rec = run_experiment_identification([27], [0]).records[0]
        assert rec["config"] == "prob_pca/n30/m0/p27/r3/sig0.447214/rho1"

    def test_shift(self):
        rec = run_experiment_shift([0.3], [0], 60).records[0]
        assert rec["config"] == "factor_shift/n60/m60/p60/r10/sig0.547723/rho1"

    def test_subspace(self):
        rec = run_experiment_subspace([0.2], [0], 60).records[0]
        assert rec["config"] == "factor_rowspan_violation/n60/m60/p60/r10/sig0.447214/rho1"

    def test_negative_zero_noise_is_zero(self):
        # -0.0 draws the streams of 0.0, so it carries 0.0's label and value;
        # repr tells -0.0 from 0.0, which == does not
        for run in (run_experiment_shift, run_experiment_subspace):
            neg, zero = run([-0.0], [0], 50), run([0.0], [0], 50)
            assert repr(neg) == repr(zero)
            assert "/sig0/" in neg.records[0]["config"]


class TestRunnerPath:
    def test_runners_use_the_module_globals_and_submit_largest_first(self, monkeypatch):
        # tracing rebinds these module attributes, so the runners must look
        # them up by global name on every call
        handed, made = [], []
        real_run = experiments._run_trials

        def recorder(trial_fn, keys, threads):
            handed.append(list(keys))
            return real_run(trial_fn, keys, threads)

        monkeypatch.setattr(experiments, "_run_trials", recorder)
        for name in ("make_identification_trial", "make_shift_trial", "make_subspace_trial"):
            real = getattr(experiments, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                made.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)

        ident = run_experiment_identification([27, 64], [0, 1])
        run_experiment_shift([0.2], [0], 60)
        run_experiment_subspace([0.2], [0], 60)
        assert len(handed) == 3
        assert made.count("make_identification_trial") == 32
        assert made.count("make_shift_trial") == made.count("make_subspace_trial") == 1
        # identification keys are (p, r, n, seed): largest (p, n) first,
        # and the records still come out sorted
        pn = [(p, n) for p, _, n, _ in handed[0]]
        assert pn[0] == max(pn)
        assert pn == sorted(pn, reverse=True)
        assert [(r["p"], r["n"], r["seed"]) for r in ident.records] == sorted(
            (p, n, seed) for p, _, n, seed in handed[0]
        )


class TestSingleThreadedBlas:
    def test_lookup_is_not_made_at_import(self):
        # one lazy lookup serves both the thread pin and core._qr_r's dgeqrf
        code = (
            "import eivpcr.cli\n"
            "import numpy as np\n"
            "from eivpcr import _blas, core\n"
            "print(_blas._openblas.cache_info().currsize)\n"
            "_blas._blas_threads()\n"
            "core._qr_r(np.ones((3, 2), order='F'))\n"
            "print(_blas._openblas.cache_info().misses)\n"
        )
        src = str(Path(experiments.__file__).resolve().parents[2])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.split() == ["0", "1"]

    def test_trials_see_one_thread_and_the_count_is_restored(self, blas_count):
        before = blas_count()
        for threads in (1, 2):
            seen = experiments._run_trials(lambda i: blas_count(), [(i,) for i in range(4)], threads)
            assert seen == [1, 1, 1, 1]
            assert blas_count() == before
        run_experiment_identification([27], [0], threads=0)
        assert blas_count() == before

    def test_count_is_restored_after_a_trial_raises(self, blas_count, monkeypatch):
        before = blas_count()

        def boom(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(experiments, "make_identification_trial", boom)
        for threads in (1, 2):
            with pytest.raises(RuntimeError, match="trial failed"):
                run_experiment_identification([27], [0], threads=threads)
            assert blas_count() == before

    def test_concurrent_runners_share_the_pin_and_restore(self, blas_count):
        before = blas_count()
        serial = run_experiment_identification([27], [0, 1])
        # both runners are inside at once: each trial waits for the other
        barrier = threading.Barrier(2, timeout=60)
        inside, reports = {}, {}

        def trial(name):
            barrier.wait()
            return blas_count()

        def runner(name):
            inside[name] = experiments._run_trials(trial, [(name,)], 1)
            reports[name] = run_experiment_identification([27], [0, 1], threads=2)

        workers = [threading.Thread(target=runner, args=(n,)) for n in "ab"]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
        assert inside == {"a": [1], "b": [1]}
        assert reports["a"].records == reports["b"].records == serial.records
        assert blas_count() == before

    def test_stress_more_runners_than_cores(self, blas_count):
        # a lost update of the shared entry count would restore the count
        # while another holder is still inside, and a read would see it;
        # every 40th pass also runs trials through a runner's thread pool
        before = blas_count()
        seen = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def runner():
                for i in range(2000):
                    with _blas._single_threaded_blas():
                        seen.append(blas_count())
                        seen.append(blas_count())
                    if i % 40 == 0:
                        trials = [(0,), (1,)]
                        seen.extend(experiments._run_trials(lambda k: blas_count(), trials, 1))

            workers = [threading.Thread(target=runner) for _ in range(16)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert seen == [1] * (16 * (2000 * 2 + 50 * 2))
        assert blas_count() == before

    def test_runners_work_without_the_library(self, monkeypatch):
        pinned = run_experiment_identification([27], [0, 1])
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        assert _blas._blas_threads() is None
        unpinned = run_experiment_identification([27], [0, 1], threads=2)
        assert len(unpinned.records) == len(pinned.records) == 16
        for a, b in zip(unpinned.records, pinned.records):
            assert set(a) == _IDENT_KEYS
            assert {k: a[k] for k in ("config", "p", "r", "n", "seed")} == {
                k: b[k] for k in ("config", "p", "r", "n", "seed")
            }
            for k in ("snr", "rmse_beta_star", "rmse_beta_raw"):
                assert a[k] == pytest.approx(b[k], rel=1e-9)
