"""Synthetic data generators and experiment drivers. The random-stream
helpers ``Role``, ``child`` and ``substream`` live in
:mod:`eivpcr.simlab.streams`."""
from .experiments import (
    ExperimentReport,
    make_identification_trial,
    make_shift_trial,
    make_subspace_trial,
    run_experiment_identification,
    run_experiment_shift,
    run_experiment_subspace,
)
from .generators import (
    PanelTrial,
    Shift,
    TrialData,
    corrupt,
    gen_factor_uv,
    gen_panel_ife,
    gen_prob_pca,
)

__all__ = [
    "ExperimentReport",
    "PanelTrial",
    "Shift",
    "TrialData",
    "corrupt",
    "gen_factor_uv",
    "gen_panel_ife",
    "gen_prob_pca",
    "make_identification_trial",
    "make_shift_trial",
    "make_subspace_trial",
    "run_experiment_identification",
    "run_experiment_shift",
    "run_experiment_subspace",
]
