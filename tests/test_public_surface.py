"""The public surface, pinned: adding or removing an exported name, or a
field of an exported dataclass, fails here, so every change to it shows up
in this file's diff."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eivpcr
import eivpcr.pcr
import eivpcr.simlab

_EIVPCR = [
    "AllMissing", "AllZero", "BadParam", "BadShape", "CorruptModel",
    "CounterfactualResult", "DegenerateSpectrum", "EivPcrError", "EmptySpectrum",
    "MaskedMatrix", "NoConverge", "NonFinite", "PanelDataset", "ParseError",
    "PcrModel", "Prediction", "PredictionConfig", "Ragged", "RankOutOfRange",
    "SchemaMismatch", "ShapeMismatch", "SvdFactors", "TargetMissingPre",
    "UnknownUnit", "__version__", "check_subspace_inclusion",
    "counterfactual_error", "estimate_rho", "fit", "fit_rsc",
    "mean_squared_error", "predict", "predict_detailed", "rescale",
    "select_rank_largest_gap", "spectral_norm", "svd", "truncate_rank",
]

_SIMLAB = [
    "ExperimentReport", "PanelTrial", "Shift", "TrialData", "corrupt",
    "gen_factor_uv", "gen_panel_ife", "gen_prob_pca", "make_identification_trial",
    "make_shift_trial", "make_subspace_trial", "run_experiment_identification",
    "run_experiment_shift", "run_experiment_subspace",
]


@pytest.mark.parametrize("module, expected", [(eivpcr, _EIVPCR), (eivpcr.simlab, _SIMLAB)],
                         ids=["eivpcr", "eivpcr.simlab"])
def test_all_is_pinned_and_resolves(module, expected):
    assert expected == sorted(expected)
    assert len(set(module.__all__)) == len(module.__all__)
    assert sorted(module.__all__) == expected
    for name in module.__all__:
        assert getattr(module, name) is not None


# field names, in declaration order, of every dataclass in either __all__
_FIELDS = {
    "CounterfactualResult": ["beta_hat", "trajectory", "diagnostics"],
    "ExperimentReport": ["name", "records", "aggregates"],
    "MaskedMatrix": ["values", "mask", "col_labels"],
    "PanelDataset": ["outcomes", "target_col", "pre_periods"],
    "PanelTrial": ["panel", "truth", "weights", "latent_donors"],
    "PcrModel": [
        "beta_hat", "k", "rho_hat", "singular_values", "right_vectors", "col_labels",
    ],
    "Prediction": [
        "y_hat", "rho_hat_prime", "ell", "ell_effective", "clamped",
        "singular_values", "right_vectors",
    ],
    "PredictionConfig": ["ell", "bound"],
    "SvdFactors": ["singular_values", "left_vectors", "right_vectors"],
    "TrialData": [
        "x_train", "beta_raw", "beta_star", "y", "z_train", "train_factors",
        "x_test", "z_test", "theta_test",
    ],
}


def test_dataclass_fields_are_pinned():
    found = {}
    for module in (eivpcr, eivpcr.simlab):
        for name in module.__all__:
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                found[name] = [f.name for f in dataclasses.fields(obj)]
    assert found == _FIELDS


def test_import_loads_no_numpy():
    src = str(Path(eivpcr.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, eivpcr; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True, text=True,
        timeout=60,
    )
    assert done.stdout.split() == ["False"]


def test_names_resolve_lazily_from_their_submodule(monkeypatch):
    assert set(eivpcr.__all__) <= set(dir(eivpcr))
    assert eivpcr.fit is eivpcr.pcr.fit
    assert "fit" not in vars(eivpcr)  # looked up on each access, never copied

    def patched(*args):
        raise AssertionError

    monkeypatch.setattr(eivpcr.pcr, "fit", patched)
    assert eivpcr.fit is patched


def test_unknown_names_fail():
    with pytest.raises(AttributeError, match="nope"):
        eivpcr.nope
    with pytest.raises(ImportError):
        from eivpcr import nope  # noqa: F401
