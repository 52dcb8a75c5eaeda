import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from eivpcr import (
    AllMissing,
    BadParam,
    CorruptModel,
    DegenerateSpectrum,
    MaskedMatrix,
    NonFinite,
    PcrModel,
    PredictionConfig,
    RankOutOfRange,
    ShapeMismatch,
    check_subspace_inclusion,
    fit,
    predict,
    predict_detailed,
    rescale,
    spectral_norm,
    svd,
    truncate_rank,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rank2_instance(seed, n=8, p=5):
    """Noiseless rank-2 design with the true model inside its rowspan."""
    rng = _rng(seed)
    x = rng.normal(size=(n, 2)) @ rng.normal(size=(2, p))
    v = svd(x).right_vectors[:, :2]
    beta_star = v @ rng.normal(size=2)
    return x, beta_star, x @ beta_star


class TestFit:
    def test_identity_design(self):
        model = fit(MaskedMatrix.from_dense(np.eye(3)), [1.0, 2.0, 3.0], k=3)
        assert_allclose(model.beta_hat, [1.0, 2.0, 3.0], atol=1e-12)
        assert model.k == 3 and model.rho_hat == 1.0

    def test_noiseless_exact_recovery(self):
        x, beta_star, y = _rank2_instance(2)
        model = fit(MaskedMatrix.from_dense(x), y, k=2)
        assert np.linalg.norm(model.beta_hat - beta_star) <= 1e-8

    def test_min_norm_solution_matches_gram_oracle(self):
        # p > n: build the top-4 pseudo-inverse from an independent
        # eigendecomposition of the small Gram matrix Z Z^T
        rng = _rng(3)
        z = rng.normal(size=(6, 10))
        y = rng.normal(size=6)
        model = fit(MaskedMatrix.from_dense(z), y, k=4)

        eigs, u = np.linalg.eigh(z @ z.T)
        order = np.argsort(eigs)[::-1][:4]
        beta_oracle = np.zeros(10)
        for idx in order:
            s_i = np.sqrt(eigs[idx])
            u_i = u[:, idx]
            v_i = z.T @ u_i / s_i
            beta_oracle += v_i * (u_i @ y) / s_i
        assert_allclose(model.beta_hat, beta_oracle, rtol=1e-9, atol=1e-11)

    def test_masked_fit_matches_manual_pipeline(self):
        rng = _rng(4)
        vals = rng.normal(size=(9, 6))
        mask = rng.uniform(size=(9, 6)) < 0.8
        z = MaskedMatrix.from_dense(vals, mask=mask)
        y = rng.normal(size=9)
        model = fit(z, y, k=3)

        rho = np.count_nonzero(mask) / mask.size
        f = svd(np.where(mask, vals, 0.0) / rho)
        u3, s3, v3 = f.left_vectors[:, :3], f.singular_values[:3], f.right_vectors[:, :3]
        assert_allclose(model.beta_hat, v3 @ ((u3.T @ y) / s3), rtol=1e-12)
        assert model.rho_hat == rho

    def test_rowspan_membership(self):
        for seed in range(10):
            rng = _rng(seed)
            n, p = int(rng.integers(4, 12)), int(rng.integers(4, 12))
            k = int(rng.integers(1, min(n, p) + 1))
            z = MaskedMatrix.from_dense(rng.normal(size=(n, p)))
            model = fit(z, rng.normal(size=n), k=k)
            v_perp = svd(z.values).right_vectors[:, k:]
            assert np.linalg.norm(v_perp.T @ model.beta_hat) <= 1e-8

    def test_min_norm_among_minimizers(self):
        # any null-space perturbation keeps the fit residual but grows the norm
        checked = 0
        for seed in range(100):
            rng = _rng(1000 + seed)
            n, p = int(rng.integers(4, 10)), int(rng.integers(4, 12))
            k = int(rng.integers(1, min(n, p)))
            z = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            model = fit(MaskedMatrix.from_dense(z), y, k=k)
            f = svd(z)
            zk = truncate_rank(f, k)
            v_perp = f.right_vectors[:, k:]
            if v_perp.shape[1] == 0:
                continue
            delta = v_perp @ rng.normal(size=v_perp.shape[1])
            base = np.linalg.norm(y - zk @ model.beta_hat)
            perturbed = np.linalg.norm(y - zk @ (model.beta_hat + delta))
            assert perturbed == pytest.approx(base, abs=1e-8 * (1 + base))
            assert np.linalg.norm(model.beta_hat + delta) > np.linalg.norm(model.beta_hat)
            checked += 1
        assert checked >= 90

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scale_equivariance(self, c):
        rng = _rng(8)
        vals = rng.normal(size=(10, 7))
        mask = rng.uniform(size=(10, 7)) < 0.85
        y = rng.normal(size=10)
        base = fit(MaskedMatrix.from_dense(vals, mask=mask), y, k=3)
        scaled = fit(MaskedMatrix.from_dense(c * vals, mask=mask), y, k=3)
        assert scaled.rho_hat == base.rho_hat
        assert_allclose(scaled.beta_hat, base.beta_hat / c, rtol=1e-9)
        assert_allclose(scaled.singular_values, c * base.singular_values, rtol=1e-9)

    def test_column_permutation_equivariance(self):
        rng = _rng(9)
        # well-separated spectrum so the sign convention cannot flip
        base_vals = rng.normal(size=(12, 5)) @ np.diag([9.0, 5.0, 2.5, 1.2, 0.6])
        y = rng.normal(size=12)
        perm = np.array([3, 0, 4, 1, 2])
        m1 = fit(MaskedMatrix.from_dense(base_vals), y, k=3)
        m2 = fit(MaskedMatrix.from_dense(base_vals[:, perm]), y, k=3)
        assert_allclose(m2.beta_hat, m1.beta_hat[perm], rtol=1e-9, atol=1e-12)

    def test_rank_out_of_range(self):
        z = MaskedMatrix.from_dense(np.eye(3))
        for k in (0, 4):
            with pytest.raises(RankOutOfRange):
                fit(z, [1.0, 2.0, 3.0], k=k)
        # a rank that is not an integer is rejected by name, never truncated
        for k in (2.7, True, "3", 2.0, np.float64(2.0)):
            with pytest.raises(BadParam, match=f"^{re.escape(f'k={k!r}')} must be an integer$"):
                fit(z, [1.0, 2.0, 3.0], k=k)
        model = fit(z, [1.0, 2.0, 3.0], k=np.int64(2))
        assert model.k == 2 and type(model.k) is int

    def test_degenerate_spectrum(self):
        rng = _rng(10)
        z = MaskedMatrix.from_dense(np.outer(rng.normal(size=6), rng.normal(size=4)))
        with pytest.raises(DegenerateSpectrum):
            fit(z, rng.normal(size=6), k=2)

    def test_response_shape_and_finiteness(self):
        z = MaskedMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeMismatch):
            fit(z, [1.0, 2.0], k=1)
        with pytest.raises(NonFinite):
            fit(z, [1.0, np.nan, 3.0], k=1)

    def test_all_missing(self):
        z = MaskedMatrix.from_dense(np.ones((3, 3)), mask=np.zeros((3, 3), dtype=bool))
        with pytest.raises(AllMissing):
            fit(z, [1.0, 2.0, 3.0], k=1)


def _clamped_identity_prediction(values, bound):
    """predict_detailed on the identity design after a fit on it: the
    unclamped predictions are ``values`` exactly, so this is the clamp."""
    eye = MaskedMatrix.from_dense(np.eye(len(values)))
    model = fit(eye, values, k=len(values))
    return predict_detailed(model, eye, PredictionConfig(ell=len(values), bound=bound))


class TestClamp:
    def test_spec_values(self):
        pred = _clamped_identity_prediction([7.3, -9.0, 4.2], 5.0)
        assert pred.y_hat.tolist() == [5.0, -5.0, 4.2]
        assert pred.clamped.tolist() == [True, True, False]

    def test_bad_bound(self):
        for bound in (0.0, -1.0, -np.inf, np.nan):
            with pytest.raises(BadParam, match="must be positive"):
                PredictionConfig(ell=1, bound=bound)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=50),
    )
    def test_idempotent_and_monotone(self, values, bound):
        once = _clamped_identity_prediction(values, bound)
        assert np.all(np.abs(once.y_hat) <= bound)
        assert_array_equal(once.clamped, np.abs(values) > bound)
        again = _clamped_identity_prediction(once.y_hat, bound)
        assert_array_equal(again.y_hat, once.y_hat)
        assert not again.clamped.any()
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(once.y_hat[order]) >= 0)


class TestPredict:
    def test_in_sample_equals_truncated_design_times_beta(self):
        rng = _rng(20)
        z = MaskedMatrix.from_dense(rng.normal(size=(9, 6)))
        y = rng.normal(size=9)
        model = fit(z, y, k=3)
        got = predict(model, z, PredictionConfig(ell=3))
        zk = truncate_rank(svd(rescale(z)[0]), 3)
        assert_allclose(got, zk @ model.beta_hat, rtol=1e-12, atol=1e-12)

    def test_noiseless_chain_recovers_test_responses(self):
        rng = _rng(21)
        x, beta_star, y = _rank2_instance(21, n=10, p=6)
        x_test = rng.normal(size=(7, 10)) @ x  # rows inside rowspan(x)
        model = fit(MaskedMatrix.from_dense(x), y, k=2)
        got = predict(model, MaskedMatrix.from_dense(x_test), PredictionConfig(ell=2))
        assert np.linalg.norm(got - x_test @ beta_star) <= 1e-8

    def test_clamping_flags(self):
        model = fit(MaskedMatrix.from_dense(np.eye(3)), [1.0, 7.3, -9.0], k=3)
        pred = predict_detailed(
            model, MaskedMatrix.from_dense(np.eye(3)), PredictionConfig(ell=3, bound=5.0)
        )
        assert_allclose(pred.y_hat, [1.0, 5.0, -5.0], atol=1e-12)
        assert_array_equal(pred.clamped, [False, True, True])

    def test_doubling_beta_doubles_predictions_exactly(self):
        rng = _rng(22)
        z = MaskedMatrix.from_dense(rng.normal(size=(8, 5)))
        model = fit(z, rng.normal(size=8), k=2)
        doubled = PcrModel(
            beta_hat=2.0 * model.beta_hat,
            k=model.k,
            rho_hat=model.rho_hat,
            singular_values=model.singular_values,
            retained=model.retained,
        )
        z_test = MaskedMatrix.from_dense(rng.normal(size=(6, 5)))
        cfg = PredictionConfig(ell=2)
        assert_array_equal(predict(doubled, z_test, cfg), 2.0 * predict(model, z_test, cfg))

    def test_rank_deficient_test_design_reports_effective_rank(self):
        rng = _rng(23)
        z = MaskedMatrix.from_dense(rng.normal(size=(6, 4)))
        model = fit(z, rng.normal(size=6), k=2)
        z_test = MaskedMatrix.from_dense(np.outer(rng.normal(size=5), rng.normal(size=4)))
        pred = predict_detailed(model, z_test, PredictionConfig(ell=3))
        assert pred.ell == 3 and pred.ell_effective == 1
        one = predict(model, z_test, PredictionConfig(ell=1))
        assert_allclose(pred.y_hat, one, rtol=1e-12)

    def test_column_mismatch(self):
        model = fit(MaskedMatrix.from_dense(np.eye(3)), [1.0, 2.0, 3.0], k=2)
        with pytest.raises(ShapeMismatch):
            predict(model, MaskedMatrix.from_dense(np.eye(4)), PredictionConfig(ell=1))

    def test_ell_beyond_test_dims(self):
        model = fit(MaskedMatrix.from_dense(np.eye(3)), [1.0, 2.0, 3.0], k=2)
        z_test = MaskedMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(RankOutOfRange):
            predict(model, z_test, PredictionConfig(ell=3))

    def test_config_validation(self):
        with pytest.raises(BadParam):
            PredictionConfig(ell=0)
        for bound in (-2.0, 0.0):
            with pytest.raises(BadParam):
                PredictionConfig(ell=1, bound=bound)
        for ell in (2.9, True, "2", 2.0):
            with pytest.raises(BadParam, match=f"^{re.escape(f'ell={ell!r}')} must be an integer$"):
                PredictionConfig(ell=ell)
        cfg = PredictionConfig(ell=np.int32(2))
        assert cfg.ell == 2 and type(cfg.ell) is int


class TestInSampleResiduals:
    def test_noiseless_fit_has_tiny_residuals(self):
        x, _, y = _rank2_instance(30)
        z = MaskedMatrix.from_dense(x)
        model = fit(z, y, k=2)
        fitted = truncate_rank(svd(rescale(z)[0]), 2) @ model.beta_hat
        assert np.linalg.norm(y - fitted) <= 1e-8


class TestSubspaceInclusion:
    def test_rows_of_train_are_included(self):
        x = _rng(40).normal(size=(6, 5))
        assert check_subspace_inclusion(x, x[:2]) <= 1e-10

    def test_orthogonal_row_leaks_fully(self):
        x_train = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x_test = np.array([[0.0, 0.0, 1.0]])
        assert check_subspace_inclusion(x_train, x_test) == pytest.approx(1.0, rel=1e-12)

    def test_fresh_right_factors_leak_and_match_oracle(self):
        rng = _rng(41)
        n, p, r = 50, 40, 5
        u = rng.normal(size=(n, r))
        v = rng.normal(size=(p, r))
        v_fresh = rng.normal(size=(p, r))
        x_train = u @ v.T
        x_bad = u @ v_fresh.T

        leakage = check_subspace_inclusion(x_train, x_bad)
        s = np.linalg.svd(x_train, compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-8 * s[0]))
        v_r = svd(x_train).right_vectors[:, :rank]
        oracle = spectral_norm(x_bad - x_bad @ v_r @ v_r.T) / max(
            1.0, spectral_norm(x_bad)
        )
        assert leakage == pytest.approx(oracle, rel=1e-10)
        assert leakage > 0.5

    def test_column_mismatch(self):
        with pytest.raises(ShapeMismatch):
            check_subspace_inclusion(np.eye(3), np.eye(4))


class TestPcrModelInvariants:
    def test_nonfinite_beta(self):
        with pytest.raises(CorruptModel):
            PcrModel(beta_hat=[np.nan], k=1, rho_hat=1.0, singular_values=[1.0])

    def test_spectrum_length_mismatch(self):
        with pytest.raises(CorruptModel):
            PcrModel(beta_hat=[1.0], k=2, rho_hat=1.0, singular_values=[1.0])

    def test_increasing_spectrum(self):
        with pytest.raises(CorruptModel):
            PcrModel(beta_hat=[1.0], k=2, rho_hat=1.0, singular_values=[1.0, 2.0])

    def test_nonpositive_spectrum(self):
        with pytest.raises(CorruptModel):
            PcrModel(beta_hat=[1.0], k=1, rho_hat=1.0, singular_values=[0.0])

    def test_bad_rho(self):
        for rho in (0.0, 1.5, -0.1):
            with pytest.raises(CorruptModel):
                PcrModel(beta_hat=[1.0], k=1, rho_hat=rho, singular_values=[1.0])

    def test_beta_outside_retained_rowspan(self):
        f = svd(np.eye(3))
        retained = type(f)(
            singular_values=f.singular_values[:1],
            left_vectors=f.left_vectors[:, :1],
            right_vectors=f.right_vectors[:, :1],
        )
        with pytest.raises(CorruptModel):
            PcrModel(
                beta_hat=[0.0, 1.0, 0.0],
                k=1,
                rho_hat=1.0,
                singular_values=[1.0],
                retained=retained,
            )
