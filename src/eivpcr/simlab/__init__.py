"""Synthetic data generators and experiment drivers."""
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
    gen_rowspan_violation,
)
from .streams import Role, child, substream

__all__ = [
    "ExperimentReport",
    "PanelTrial",
    "Role",
    "Shift",
    "TrialData",
    "child",
    "corrupt",
    "gen_factor_uv",
    "gen_panel_ife",
    "gen_prob_pca",
    "gen_rowspan_violation",
    "make_identification_trial",
    "make_shift_trial",
    "make_subspace_trial",
    "run_experiment_identification",
    "run_experiment_shift",
    "run_experiment_subspace",
    "substream",
]
