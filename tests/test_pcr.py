import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from eivpcr import core
from eivpcr import (
    AllMissing,
    AllZero,
    BadParam,
    CorruptModel,
    DegenerateSpectrum,
    MaskedMatrix,
    NonFinite,
    PcrModel,
    PredictionConfig,
    RankOutOfRange,
    SchemaMismatch,
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


def _dense_fit(z, y, k):
    """fit through a dense SVD of the whole rescaled design, the route the
    small-side QR replaced: the top-k spectrum, right vectors and beta_hat."""
    f = svd(rescale(z)[0])
    s = f.singular_values
    if s[k - 1] <= 1e-12 * s[0]:
        raise DegenerateSpectrum(f"singular value {k}")
    u, v = f.left_vectors[:, :k], f.right_vectors[:, :k]
    return s[:k], v, v @ ((u.T @ np.asarray(y, dtype=float)) / s[:k])


def _dense_predict(beta, z_test, ell):
    """predict_detailed through a dense SVD of the whole rescaled test
    design: the spectrum, right vectors and y_hat at ell_effective."""
    f = svd(rescale(z_test)[0])
    s = f.singular_values
    ell = min(ell, int(np.count_nonzero(s > 1e-12 * s[0])))
    u, v = f.left_vectors[:, :ell], f.right_vectors[:, :ell]
    return s[:ell], v, u @ (s[:ell] * (v.T @ beta))


def _assert_close_vector(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def _assert_same_right_vectors(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12
    # the sign convention picked the same sign for every pair
    assert np.all(np.sum(got * want, axis=0) > 0)


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

    def test_right_vectors_are_the_retained_train_vectors(self):
        rng = _rng(5)
        z = MaskedMatrix.from_dense(rng.normal(size=(9, 6)), rng.uniform(size=(9, 6)) < 0.8)
        y = rng.normal(size=9)
        model = fit(z, y, k=3)
        assert model.right_vectors.shape == (6, 3)
        assert not model.right_vectors.flags.writeable
        _assert_same_right_vectors(model.right_vectors, _dense_fit(z, y, 3)[1])

    def test_fortran_ordered_input_matches_c_ordered(self):
        rng = _rng(6)
        vals = np.asfortranarray(rng.normal(size=(9, 6)))
        mask = np.asfortranarray(rng.uniform(size=(9, 6)) < 0.8)
        y = rng.normal(size=9)
        f_order = MaskedMatrix(values=vals, mask=mask)
        c_order = MaskedMatrix(values=np.ascontiguousarray(vals), mask=np.ascontiguousarray(mask))
        for m in (f_order.values, f_order.mask):
            assert m.flags.c_contiguous and not m.flags.writeable
        f_model, c_model = fit(f_order, y, k=3), fit(c_order, y, k=3)
        assert_array_equal(f_model.beta_hat, c_model.beta_hat)
        cfg = PredictionConfig(ell=2)
        assert_array_equal(predict(f_model, f_order, cfg), predict(c_model, c_order, cfg))

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

    @pytest.mark.parametrize("n, p", [(6, 4), (4, 6)], ids=["tall", "wide"])
    def test_all_zero_design_is_all_zero_at_every_k(self, n, p):
        z = MaskedMatrix.from_dense(np.zeros((n, p)))
        for k in range(1, min(n, p) + 1):
            with pytest.raises(AllZero, match="^design has no positive singular value$"):
                fit(z, np.ones(n), k=k)

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
            right_vectors=model.right_vectors,
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
        s, v, y_hat = _dense_predict(model.beta_hat, z_test, 3)
        assert_allclose(pred.singular_values, s, rtol=1e-12)
        _assert_same_right_vectors(pred.right_vectors, v)
        _assert_close_vector(pred.y_hat, y_hat)
        for a in (pred.singular_values, pred.right_vectors):
            assert not a.flags.writeable
        one = predict(model, z_test, PredictionConfig(ell=1))
        assert_allclose(pred.y_hat, one, rtol=1e-12)

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    @pytest.mark.parametrize("m, p", [(30, 8), (5, 20), (1, 8)], ids=["tall", "wide", "one-row"])
    def test_all_zero_test_design_predicts_positive_zeros(self, m, p, zero):
        rng = _rng(24)
        model = fit(MaskedMatrix.from_dense(rng.normal(size=(12, p))), rng.normal(size=12), k=2)
        mask = rng.uniform(size=(m, p)) < 0.8
        mask[0, 0] = True
        z_test = MaskedMatrix.from_dense(np.full((m, p), zero), mask=mask)
        pred = predict_detailed(model, z_test, PredictionConfig(ell=1))
        assert pred.ell_effective == 0 and pred.right_vectors.shape == (p, 0)
        assert pred.y_hat.shape == (m,)
        assert not np.any(pred.y_hat) and not np.any(np.signbit(pred.y_hat))

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


def _spread_design(n, p, seed, rank=None):
    """Fully observed n x p design with singular values spread from 10 down
    to 1 and, past ``rank``, exactly zero: well-separated triplets, so the
    two routes' vectors are determined to rounding."""
    rng = _rng(seed)
    q = min(n, p)
    s = 10.0 ** (1 - np.arange(q) / max(q - 1, 1))
    s[q if rank is None else rank:] = 0.0
    u = np.linalg.qr(rng.normal(size=(n, q)))[0]
    v = np.linalg.qr(rng.normal(size=(p, q)))[0]
    return MaskedMatrix.from_dense((u * s) @ v.T)


# p - 1, p, p + 1, 2p and 30p rows for p = 12, then a wide block shaped
# like a synthetic-controls pre block (fewer periods than donors)
_REFERENCE_SHAPES = [(11, 12), (12, 12), (13, 12), (24, 12), (360, 12), (24, 60)]


class TestDenseSvdReference:
    """fit and predict_detailed agree with a dense SVD of the whole design:
    beta_hat, predictions, spectra and right vectors within 1e-12 relative,
    with the same sign for every retained pair."""

    @pytest.mark.parametrize("n, p", _REFERENCE_SHAPES, ids=["p-1", "p", "p+1", "2p", "30p", "wide"])
    @pytest.mark.parametrize("full_rank", [False, True], ids=["k3", "kmin"])
    def test_fit_and_predict(self, n, p, full_rank):
        z, z_test = _spread_design(n, p, 1), _spread_design(n, p, 2)
        y = _rng(3).normal(size=n)
        k = min(n, p) if full_rank else 3
        model = fit(z, y, k)
        s, v, beta = _dense_fit(z, y, k)
        _assert_close_vector(model.beta_hat, beta)
        assert_allclose(model.singular_values, s, rtol=1e-12)
        _assert_same_right_vectors(model.right_vectors, v)

        pred = predict_detailed(model, z_test, PredictionConfig(ell=k))
        s, v, y_hat = _dense_predict(model.beta_hat, z_test, k)
        assert pred.ell_effective == k
        _assert_close_vector(pred.y_hat, y_hat)
        assert_allclose(pred.singular_values, s, rtol=1e-12)
        _assert_same_right_vectors(pred.right_vectors, v)

    @pytest.mark.parametrize("m, ell, ell_eff", [
        (1, 1, 1),  # one post period
        (5, 4, 2),  # rank 2, wide
        (40, 4, 2),  # rank 2, tall
    ], ids=["one-row", "wide-rank2", "tall-rank2"])
    def test_rank_deficient_and_one_row_test_designs(self, m, ell, ell_eff):
        model = fit(_spread_design(24, 12, 4), _rng(5).normal(size=24), 4)
        z_test = _spread_design(m, 12, 6, rank=2)
        pred = predict_detailed(model, z_test, PredictionConfig(ell=ell))
        s, v, y_hat = _dense_predict(model.beta_hat, z_test, ell)
        assert pred.ell == ell and pred.ell_effective == s.shape[0] == ell_eff
        _assert_close_vector(pred.y_hat, y_hat)
        assert_allclose(pred.singular_values, s, rtol=1e-12)
        _assert_same_right_vectors(pred.right_vectors, v)

    @pytest.mark.parametrize("n, p", [(24, 12), (12, 12), (8, 12)], ids=["tall", "square", "wide"])
    def test_degenerate_spectrum_at_the_same_k(self, n, p):
        z = _spread_design(n, p, 7, rank=3)
        y = _rng(8).normal(size=n)
        _assert_close_vector(fit(z, y, 3).beta_hat, _dense_fit(z, y, 3)[2])
        for k in range(4, min(n, p) + 1):
            with pytest.raises(DegenerateSpectrum):
                _dense_fit(z, y, k)
            with pytest.raises(DegenerateSpectrum, match=f"^singular value {k} is "):
                fit(z, y, k)


@pytest.mark.parametrize("n, m, p", [(30, 25, 8), (6, 5, 20), (10, 10, 10)],
                         ids=["tall", "wide", "square"])
def test_no_sign_choice_reaches_beta_hat_or_y_hat(n, m, p, monkeypatch):
    rng = _rng(25)
    z = MaskedMatrix.from_dense(rng.normal(size=(n, p)), rng.uniform(size=(n, p)) < 0.9)
    z_test = MaskedMatrix.from_dense(rng.normal(size=(m, p)), rng.uniform(size=(m, p)) < 0.9)
    y = rng.normal(size=n)
    cfg = PredictionConfig(ell=3)

    def run():
        model = fit(z, y, k=3)
        return model, predict_detailed(model, z_test, cfg).y_hat

    want, want_y_hat = run()
    rule = core._apply_sign_convention

    def every_pair_negated(vt, u):
        rule(vt, u)
        vt *= -1.0
        u *= -1.0

    monkeypatch.setattr(core, "_apply_sign_convention", every_pair_negated)
    got, got_y_hat = run()
    assert_array_equal(got.right_vectors, -want.right_vectors)
    assert got.beta_hat.tobytes() == want.beta_hat.tobytes()
    assert got_y_hat.tobytes() == want_y_hat.tobytes()


class TestFitPeakMemory:
    @pytest.mark.parametrize("n, p", [(3000, 100), (1200, 300)])
    def test_tall_fit_peaks_under_three_designs(self, n, p):
        # the small-side QR factorizes one Fortran-ordered [Z | y] in place:
        # no stacked copy beside numpy's own copies. Wide designs are left
        # out: their transpose copy keeps them near 2.3-2.5 on every route
        rng = _rng(8)
        x = rng.standard_normal((n, 5)) @ rng.standard_normal((5, p))
        z = MaskedMatrix(x + 0.1 * rng.standard_normal((n, p)), rng.random((n, p)) < 0.8)
        y = rng.standard_normal(n)
        tracemalloc.start()
        try:
            fit(z, y, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * z.values.nbytes


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

    def test_one_dimensional_input(self):
        with pytest.raises(ShapeMismatch, match="^both inputs must be 2-dimensional$"):
            check_subspace_inclusion(np.eye(3), np.ones(3))


class TestColumnLabels:
    def _labelled(self, seed=30):
        rng = _rng(seed)
        labels = ("a", "b", "c", "d", "e", "f")
        values = rng.normal(size=(20, 6))
        mask = rng.random((20, 6)) < 0.9
        z = MaskedMatrix(values=values, mask=mask, col_labels=labels)
        model = fit(z, rng.normal(size=20), k=3)
        z_test = MaskedMatrix(
            values=rng.normal(size=(7, 6)), mask=rng.random((7, 6)) < 0.9, col_labels=labels
        )
        return model, z_test

    def test_fit_keeps_the_design_labels(self):
        model, _ = self._labelled()
        assert model.col_labels == ("a", "b", "c", "d", "e", "f")
        assert fit(MaskedMatrix.from_dense(np.eye(3)), [1.0, 2.0, 3.0], k=3).col_labels is None

    def test_reordered_columns_predict_the_same_bits(self):
        model, z_test = self._labelled()
        cfg = PredictionConfig(ell=2)
        want = predict_detailed(model, z_test, cfg)
        order = [5, 2, 0, 4, 1, 3]
        reordered = MaskedMatrix(
            values=z_test.values[:, order],
            mask=z_test.mask[:, order],
            col_labels=[z_test.col_labels[j] for j in order],
        )
        got = predict_detailed(model, reordered, cfg)
        assert got.y_hat.tobytes() == want.y_hat.tobytes()
        assert got.right_vectors.tobytes() == want.right_vectors.tobytes()
        # without labels on the test side, columns are taken by position
        unlabelled = MaskedMatrix(values=reordered.values, mask=reordered.mask)
        assert predict(model, unlabelled, cfg).tobytes() != want.y_hat.tobytes()

    @pytest.mark.parametrize("labels, message", [
        (("a", "b", "c", "d", "e", "g"), "test design has no column labelled 'f'"),
        (("a", "b", "c", "d", "e", "a"), "test design column label 'a' is repeated"),
    ])
    def test_label_mismatch_raises(self, labels, message):
        model, z_test = self._labelled()
        z_bad = MaskedMatrix(values=z_test.values, mask=z_test.mask, col_labels=labels)
        with pytest.raises(SchemaMismatch, match=message):
            predict(model, z_bad, PredictionConfig(ell=2))

    def test_repeated_labels_in_the_same_order_pass(self):
        # a panel may name two donors alike; sc passes them in order
        rng = _rng(31)
        labels = ("u", "u", "v")
        z = MaskedMatrix.from_dense(rng.normal(size=(9, 3)), col_labels=labels)
        model = fit(z, rng.normal(size=9), k=2)
        z_test = MaskedMatrix.from_dense(rng.normal(size=(4, 3)), col_labels=labels)
        cfg = PredictionConfig(ell=2)
        assert predict(model, z_test, cfg).tobytes() == predict(
            model, MaskedMatrix.from_dense(z_test.values), cfg
        ).tobytes()
        with pytest.raises(SchemaMismatch, match="model column label 'u' is repeated"):
            predict(model, MaskedMatrix.from_dense(z_test.values, col_labels=("v", "u", "u")), cfg)

    def test_label_count_must_match_the_coefficients(self):
        with pytest.raises(CorruptModel, match="2 column labels for 1 coefficients"):
            PcrModel(beta_hat=[1.0], k=1, rho_hat=1.0, singular_values=[1.0], col_labels=("a", "b"))


class TestPcrModelInvariants:
    def test_nonfinite_beta(self):
        with pytest.raises(CorruptModel):
            PcrModel(beta_hat=[np.nan], k=1, rho_hat=1.0, singular_values=[1.0])

    def test_spectrum_length_mismatch(self):
        with pytest.raises(CorruptModel, match="^1 retained singular values for k=2$"):
            PcrModel(beta_hat=[1.0, 2.0], k=2, rho_hat=1.0, singular_values=[1.0])
        with pytest.raises(CorruptModel, match="^k=2 exceeds the 1 coefficients$"):
            PcrModel(beta_hat=[1.0], k=2, rho_hat=1.0, singular_values=[1.0])

    def test_zero_rank(self):
        with pytest.raises(CorruptModel, match="^k=0 must be >= 1$"):
            PcrModel(beta_hat=[1.0], k=0, rho_hat=1.0, singular_values=[])

    def test_right_vectors_of_the_wrong_shape(self):
        f = svd(np.eye(3))
        with pytest.raises(CorruptModel, match="^right_vectors do not match beta_hat and k$"):
            PcrModel(
                beta_hat=[1.0, 0.0, 0.0],
                k=1,
                rho_hat=1.0,
                singular_values=[1.0],
                right_vectors=f.right_vectors[:, :2],
            )

    def test_increasing_spectrum(self):
        with pytest.raises(CorruptModel, match="^retained spectrum must be positive and nonincreasing$"):
            PcrModel(beta_hat=[1.0, 2.0], k=2, rho_hat=1.0, singular_values=[1.0, 2.0])

    def test_nonpositive_spectrum(self):
        with pytest.raises(CorruptModel):
            PcrModel(beta_hat=[1.0], k=1, rho_hat=1.0, singular_values=[0.0])

    def test_bad_rho(self):
        for rho in (0.0, 1.5, -0.1):
            with pytest.raises(CorruptModel):
                PcrModel(beta_hat=[1.0], k=1, rho_hat=rho, singular_values=[1.0])

    def test_beta_outside_retained_rowspan(self):
        f = svd(np.eye(3))
        with pytest.raises(CorruptModel, match="rowspan"):
            PcrModel(
                beta_hat=[0.0, 1.0, 0.0],
                k=1,
                rho_hat=1.0,
                singular_values=[1.0],
                right_vectors=f.right_vectors[:, :1],
            )
