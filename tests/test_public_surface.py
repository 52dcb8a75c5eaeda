"""The public surface, pinned: adding or removing an exported name fails
here, so every change to it shows up in review."""
import pytest

import eivpcr
import eivpcr.simlab

_EIVPCR = [
    "AllMissing", "AllZero", "BadParam", "BadShape", "CorruptModel",
    "CounterfactualResult", "DegenerateSpectrum", "EivPcrError", "EmptySpectrum",
    "MaskedMatrix", "NoConverge", "NonFinite", "PanelDataset", "ParseError",
    "PcrModel", "Prediction", "PredictionConfig", "Ragged", "RankOutOfRange",
    "SchemaMismatch", "ShapeMismatch", "SvdFactors", "TargetMissingPre",
    "UnknownUnit", "__version__", "check_subspace_inclusion",
    "counterfactual_error", "estimate_rho", "fit", "fit_rsc", "gap_ratios",
    "mean_squared_error", "predict", "predict_detailed", "rescale", "rmse",
    "select_rank_energy", "select_rank_largest_gap", "snr_report",
    "spectral_norm", "svd", "truncate_rank",
]

_SIMLAB = [
    "ExperimentReport", "PanelTrial", "Role", "Shift", "TrialData", "child",
    "corrupt", "gen_factor_uv", "gen_panel_ife", "gen_prob_pca",
    "gen_rowspan_violation", "make_identification_trial", "make_shift_trial",
    "make_subspace_trial", "run_experiment_identification",
    "run_experiment_shift", "run_experiment_subspace", "substream",
]


@pytest.mark.parametrize("module, expected", [(eivpcr, _EIVPCR), (eivpcr.simlab, _SIMLAB)],
                         ids=["eivpcr", "eivpcr.simlab"])
def test_all_is_pinned_and_resolves(module, expected):
    assert expected == sorted(expected)
    assert len(set(module.__all__)) == len(module.__all__)
    assert sorted(module.__all__) == expected
    for name in module.__all__:
        assert getattr(module, name) is not None
