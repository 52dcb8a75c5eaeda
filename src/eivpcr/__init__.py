"""Principal component regression for noisy, partially observed covariates.

Two-stage estimator: rescale the zero-filled observations by the observed
fraction, keep the top singular directions, and regress through their
pseudo-inverse; prediction re-denoises the test design before applying the
fitted coefficients. A synthetic-controls wrapper frames counterfactual
estimation as out-of-sample prediction on a donor panel.
"""
from .core import (
    MaskedMatrix,
    SvdFactors,
    estimate_rho,
    rescale,
    spectral_norm,
    svd,
    truncate_rank,
)
from .errors import (
    AllMissing,
    AllZero,
    BadParam,
    BadShape,
    CorruptModel,
    DegenerateSpectrum,
    EivPcrError,
    EmptySpectrum,
    NoConverge,
    NonFinite,
    ParseError,
    Ragged,
    RankOutOfRange,
    SchemaMismatch,
    ShapeMismatch,
    TargetMissingPre,
    UnknownUnit,
)
from .metrics import mean_squared_error, rmse, snr_report
from .pcr import (
    PcrModel,
    Prediction,
    PredictionConfig,
    check_subspace_inclusion,
    fit,
    predict,
    predict_detailed,
)
from .rank_selection import (
    gap_ratios,
    select_rank_energy,
    select_rank_largest_gap,
)
from .synthetic_control import (
    CounterfactualResult,
    PanelDataset,
    counterfactual_error,
    fit_rsc,
)

__version__ = "0.1.0"

__all__ = [
    "AllMissing",
    "AllZero",
    "BadParam",
    "BadShape",
    "CorruptModel",
    "CounterfactualResult",
    "DegenerateSpectrum",
    "EivPcrError",
    "EmptySpectrum",
    "MaskedMatrix",
    "NoConverge",
    "NonFinite",
    "PanelDataset",
    "ParseError",
    "PcrModel",
    "Prediction",
    "PredictionConfig",
    "Ragged",
    "RankOutOfRange",
    "SchemaMismatch",
    "ShapeMismatch",
    "SvdFactors",
    "TargetMissingPre",
    "UnknownUnit",
    "check_subspace_inclusion",
    "counterfactual_error",
    "estimate_rho",
    "fit",
    "fit_rsc",
    "gap_ratios",
    "mean_squared_error",
    "predict",
    "predict_detailed",
    "rescale",
    "rmse",
    "select_rank_energy",
    "select_rank_largest_gap",
    "snr_report",
    "spectral_norm",
    "svd",
    "truncate_rank",
    "__version__",
]
