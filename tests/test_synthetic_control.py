import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eivpcr import (
    BadParam,
    BadShape,
    MaskedMatrix,
    PanelDataset,
    PredictionConfig,
    RankOutOfRange,
    TargetMissingPre,
    check_subspace_inclusion,
    counterfactual_error,
    fit,
    fit_rsc,
    mean_squared_error,
    predict_detailed,
    rescale,
    svd,
    truncate_rank,
)
from eivpcr.simlab import gen_panel_ife


def _exact_panel(seed=0, periods=9, pre=6, donors=4, rank=2):
    """Noiseless panel whose target is a fixed combination of rank-deficient
    donors; the combination is exactly recoverable from the pre window."""
    rng = np.random.default_rng(seed)
    donor_vals = rng.normal(size=(periods, rank)) @ rng.normal(size=(rank, donors))
    weights = rng.normal(size=donors)
    target = donor_vals @ weights
    outcomes = np.column_stack([target, donor_vals])
    labels = ("target",) + tuple(f"donor{i}" for i in range(donors))
    panel = PanelDataset(
        outcomes=MaskedMatrix.from_dense(outcomes, col_labels=labels),
        target_col=0,
        pre_periods=pre,
    )
    return panel, donor_vals, weights, target


class TestPanelDataset:
    def test_shapes_and_blocks(self):
        panel, donor_vals, _, target = _exact_panel()
        assert (panel.n, panel.m, panel.p) == (6, 3, 4)
        assert_array_equal(panel.donors_pre().values, donor_vals[:6])
        assert_array_equal(panel.donors_post().values, donor_vals[6:])
        assert_array_equal(panel.target_pre(), target[:6])
        assert panel.donors_pre().col_labels == tuple(f"donor{i}" for i in range(4))

    def test_target_not_first_column(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(5, 3))
        panel = PanelDataset(
            outcomes=MaskedMatrix.from_dense(vals), target_col=1, pre_periods=3
        )
        assert_array_equal(panel.donors_pre().values, vals[:3][:, [0, 2]])
        assert_array_equal(panel.target_pre(), vals[:3, 1])

    def test_needs_pre_and_post(self):
        vals = np.ones((4, 3))
        with pytest.raises(BadShape):
            PanelDataset(outcomes=MaskedMatrix.from_dense(vals), target_col=0, pre_periods=4)
        with pytest.raises(BadShape):
            PanelDataset(outcomes=MaskedMatrix.from_dense(vals), target_col=0, pre_periods=0)

    def test_needs_a_donor(self):
        vals = np.ones((4, 1))
        with pytest.raises(BadShape):
            PanelDataset(outcomes=MaskedMatrix.from_dense(vals), target_col=0, pre_periods=2)

    def test_target_col_range(self):
        vals = np.ones((4, 3))
        for col in (-1, 3):
            with pytest.raises(BadParam):
                PanelDataset(outcomes=MaskedMatrix.from_dense(vals), target_col=col, pre_periods=2)

    @pytest.mark.parametrize("field, kwargs", [
        ("target_col", dict(target_col=0.9, pre_periods=2)),
        ("pre_periods", dict(target_col=0, pre_periods=2.5)),
    ])
    def test_fractional_position_is_rejected_not_truncated(self, field, kwargs):
        outcomes = MaskedMatrix.from_dense(np.ones((4, 3)))
        with pytest.raises(BadParam, match=rf"^{field}=\d\.\d must be an integer$"):
            PanelDataset(outcomes=outcomes, **kwargs)

    def test_missing_pre_target_rejected(self):
        vals = np.ones((4, 3))
        mask = np.ones((4, 3), dtype=bool)
        mask[1, 0] = False
        with pytest.raises(TargetMissingPre):
            PanelDataset(
                outcomes=MaskedMatrix.from_dense(vals, mask=mask),
                target_col=0,
                pre_periods=2,
            )

    def test_missing_post_target_tolerated(self):
        vals = np.ones((4, 3))
        mask = np.ones((4, 3), dtype=bool)
        mask[3, 0] = False
        panel = PanelDataset(
            outcomes=MaskedMatrix.from_dense(vals, mask=mask),
            target_col=0,
            pre_periods=2,
        )
        assert panel.m == 2


class TestFitRsc:
    def test_exact_donor_combination_recovered(self):
        panel, donor_vals, weights, target = _exact_panel()
        result = fit_rsc(panel, k=2)
        assert np.linalg.norm(result.trajectory - target[6:]) <= 1e-8

    def test_weights_match_min_norm_least_squares(self):
        panel, donor_vals, _, target = _exact_panel()
        result = fit_rsc(panel, k=2)
        oracle, *_ = np.linalg.lstsq(donor_vals[:6], target[:6], rcond=None)
        assert_allclose(result.beta_hat, oracle, rtol=1e-8, atol=1e-10)

    def test_auto_rank_finds_donor_rank(self):
        panel, *_ = _exact_panel()
        result = fit_rsc(panel, k="auto")
        assert result.diagnostics["k"] == 2

    def test_bad_k_string(self):
        panel, *_ = _exact_panel()
        with pytest.raises(BadParam):
            fit_rsc(panel, k="elbow")
        # a non-integer rank reaches fit's check instead of being truncated
        for k in (2.5, True, "3"):
            with pytest.raises(BadParam, match=re.escape(repr(k))):
                fit_rsc(panel, k=k)

    @pytest.mark.parametrize("shape, pre", [((3, 2), 2), ((3, 4), 1), ((2, 2), 1)],
                             ids=["one-donor", "one-pre-period", "both"])
    def test_auto_picks_rank_one_when_min_n_p_is_one(self, shape, pre):
        # k = 1 is the only admissible rank, so "auto" takes it
        vals = np.random.default_rng(2).normal(size=shape)
        panel = PanelDataset(
            outcomes=MaskedMatrix.from_dense(vals), target_col=0, pre_periods=pre
        )
        assert min(panel.n, panel.p) == 1
        auto, one = fit_rsc(panel, k="auto"), fit_rsc(panel, k=1)
        assert auto.diagnostics["k"] == 1
        assert_array_equal(auto.trajectory, one.trajectory)
        assert_array_equal(auto.beta_hat, one.beta_hat)

    def test_diagnostics_are_finite_scalars(self):
        panel, *_ = _exact_panel()
        diag = fit_rsc(panel, k=2).diagnostics
        expected = {
            "rho_hat", "rho_hat_prime", "k", "ell_effective",
            "snr", "snr_test", "subspace_leakage",
        }
        assert set(diag) == expected
        for key, value in diag.items():
            assert np.isfinite(value), key

    def test_post_donor_values_do_not_affect_weights(self):
        panel, donor_vals, weights, target = _exact_panel()
        tampered = panel.outcomes.values.copy()
        tampered[6:, 1:] = 123.0
        panel2 = PanelDataset(
            outcomes=MaskedMatrix.from_dense(tampered, col_labels=panel.outcomes.col_labels),
            target_col=0,
            pre_periods=6,
        )
        r1, r2 = fit_rsc(panel, k=2), fit_rsc(panel2, k=2)
        assert_array_equal(r1.beta_hat, r2.beta_hat)

    def test_donor_permutation_leaves_trajectory(self):
        panel, donor_vals, weights, target = _exact_panel()
        perm = [0, 3, 1, 4, 2]  # target stays in front, donors shuffled
        outcomes = panel.outcomes.values[:, perm]
        panel2 = PanelDataset(
            outcomes=MaskedMatrix.from_dense(outcomes),
            target_col=0,
            pre_periods=6,
        )
        r1, r2 = fit_rsc(panel, k=2), fit_rsc(panel2, k=2)
        assert_allclose(r2.trajectory, r1.trajectory, rtol=1e-9, atol=1e-10)

    def test_masked_donors_still_recover(self):
        # drop a post donor cell; rescaling absorbs the missingness
        panel, donor_vals, weights, target = _exact_panel()
        mask = np.ones(panel.outcomes.values.shape, dtype=bool)
        mask[7, 2] = False
        panel2 = PanelDataset(
            outcomes=MaskedMatrix.from_dense(panel.outcomes.values, mask=mask),
            target_col=0,
            pre_periods=6,
        )
        result = fit_rsc(panel2, k=2)
        assert result.diagnostics["rho_hat_prime"] < 1.0
        assert result.trajectory.shape == (3,)


def _noisy_masked_panel(seed=3, pre=40, post=15, donors=30, rank=3):
    """Noisy factor panel with about 10% of the donor cells missing."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(pre + post, rank)) @ rng.normal(size=(rank, donors))
    values = np.column_stack([latent @ rng.normal(size=donors), latent])
    values += 0.3 * rng.normal(size=values.shape)
    mask = np.ones(values.shape, dtype=bool)
    mask[:, 1:] = rng.random((pre + post, donors)) >= 0.1
    return PanelDataset(
        outcomes=MaskedMatrix.from_dense(values, mask=mask), target_col=0, pre_periods=pre
    )


class TestShortPostWindow:
    def test_one_post_period(self):
        # default ell = min(k, m): a single post period no longer fails
        panel = _noisy_masked_panel(post=1)
        result = fit_rsc(panel, k=3)
        assert result.trajectory.shape == (1,)
        assert np.isfinite(result.trajectory).all()
        assert result.diagnostics["k"] == 3
        assert result.diagnostics["ell_effective"] == 1

    def test_fewer_post_periods_than_k(self):
        panel = _noisy_masked_panel(post=2)
        result = fit_rsc(panel, k=5)
        assert result.diagnostics["ell_effective"] == 2
        want = predict_detailed(
            fit(panel.donors_pre(), panel.target_pre(), 5),
            panel.donors_post(),
            PredictionConfig(ell=2),
        )
        assert_array_equal(result.trajectory, want.y_hat)

    def test_explicit_ell_above_post_periods_still_raises(self):
        # another ell goes through fit + predict_detailed on the donor blocks
        panel = _noisy_masked_panel(post=2)
        model = fit(panel.donors_pre(), panel.target_pre(), 3)
        with pytest.raises(RankOutOfRange):
            predict_detailed(model, panel.donors_post(), PredictionConfig(ell=3))

    def test_default_ell_is_k_when_post_periods_allow(self):
        panel = _noisy_masked_panel()
        result = fit_rsc(panel, k=3)
        model = fit(panel.donors_pre(), panel.target_pre(), 3)
        want = predict_detailed(model, panel.donors_post(), PredictionConfig(ell=3))
        assert_array_equal(result.trajectory, want.y_hat)
        assert_array_equal(result.beta_hat, model.beta_hat)
        assert result.diagnostics["ell_effective"] == want.ell_effective == 3
        assert result.diagnostics["rho_hat_prime"] == want.rho_hat_prime


class TestLeakageOnRowFactors:
    def test_equals_check_on_reconstructions(self):
        # U S V^T and S V^T share their spectrum and right vectors, so the
        # statistic on the k x p row factors is the one on the full blocks
        for seed, k in ((3, 3), (4, 2), (5, 6)):
            panel = _noisy_masked_panel(seed=seed)
            result = fit_rsc(panel, k=k)
            model = fit(panel.donors_pre(), panel.target_pre(), k)
            pred = predict_detailed(model, panel.donors_post(), PredictionConfig(ell=k))
            want = check_subspace_inclusion(
                truncate_rank(svd(rescale(panel.donors_pre())[0]), k),
                truncate_rank(svd(rescale(panel.donors_post())[0]), pred.ell_effective),
            )
            got = result.diagnostics["subspace_leakage"]
            assert want > 1e-3  # noise leaks: the comparison is not 0 vs 0
            assert_allclose(got, want, rtol=1e-12)

    def test_zero_post_block_gives_zero(self):
        # every post donor cell observed as 0: nothing to denoise, ell_eff = 0
        panel, *_ = _exact_panel()
        values = panel.outcomes.values.copy()
        values[6:, 1:] = 0.0
        zeroed = PanelDataset(
            outcomes=MaskedMatrix.from_dense(values), target_col=0, pre_periods=6
        )
        diag = fit_rsc(zeroed, k=2).diagnostics
        assert diag["ell_effective"] == 0
        assert diag["subspace_leakage"] == 0.0
        assert diag["snr_test"] == 0.0


class TestCounterfactualError:
    def test_zero_for_exact_recovery(self):
        panel, _, _, target = _exact_panel()
        result = fit_rsc(panel, k=2)
        assert counterfactual_error(result, target[6:]) <= 1e-16

    def test_equals_mean_squared_error(self):
        panel, _, _, target = _exact_panel()
        result = fit_rsc(panel, k=1)
        truth = np.arange(3.0)
        assert counterfactual_error(result, truth) == mean_squared_error(
            result.trajectory, truth
        )

    def test_length_mismatch(self):
        panel, *_ = _exact_panel()
        result = fit_rsc(panel, k=2)
        with pytest.raises(Exception):
            counterfactual_error(result, np.zeros(5))


class TestLatentFactorPanel:
    def test_tracks_latent_least_squares_oracle(self):
        # noisy factor panel: the wrapper should stay within a small factor
        # of least squares run on the unobservable noise-free donors
        ratios = []
        for seed in (0, 1, 2):
            trial = gen_panel_ife(n=50, m=50, p=40, r=3, sigma=0.1, seed=seed)
            result = fit_rsc(trial.panel, k=3)
            err = counterfactual_error(result, trial.truth)
            lat = trial.latent_donors
            y_pre = np.asarray(trial.panel.target_pre()).ravel()
            w, *_ = np.linalg.lstsq(lat[:50], y_pre, rcond=None)
            oracle = float(np.mean((lat[50:] @ w - trial.truth) ** 2))
            ratios.append(err / oracle)
        assert np.mean(ratios) <= 10.0
