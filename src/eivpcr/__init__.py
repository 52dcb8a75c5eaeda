"""Principal component regression for noisy, partially observed covariates.

Two-stage estimator: rescale the zero-filled observations by the observed
fraction, keep the top singular directions, and regress through their
pseudo-inverse; prediction re-denoises the test design before applying the
fitted coefficients. A synthetic-controls wrapper frames counterfactual
estimation as out-of-sample prediction on a donor panel.

The public names load lazily (PEP 562): ``import eivpcr`` imports no
numpy, and each name is looked up in its submodule on every access, so
``eivpcr.fit is eivpcr.pcr.fit`` always holds. :mod:`eivpcr.cli`, run as
a program, relies on this to set the BLAS thread count before numpy loads.
"""
import importlib

# submodule -> the public names it defines; the one source of __all__
_PUBLIC = {
    "core": (
        "MaskedMatrix", "SvdFactors", "estimate_rho", "rescale", "spectral_norm", "svd",
        "truncate_rank",
    ),
    "errors": (
        "AllMissing", "AllZero", "BadParam", "BadShape", "CorruptModel",
        "DegenerateSpectrum", "EivPcrError", "EmptySpectrum", "NoConverge", "NonFinite",
        "ParseError", "Ragged", "RankOutOfRange", "SchemaMismatch", "ShapeMismatch",
        "TargetMissingPre", "UnknownUnit",
    ),
    "metrics": ("mean_squared_error",),
    "pcr": (
        "PcrModel", "Prediction", "PredictionConfig", "check_subspace_inclusion", "fit",
        "predict", "predict_detailed",
    ),
    "rank_selection": ("select_rank_largest_gap",),
    "synthetic_control": (
        "CounterfactualResult", "PanelDataset", "counterfactual_error", "fit_rsc",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


def _program():
    """The ``eivpcr`` script: ``python -m eivpcr.cli``, returning its exit code."""
    import runpy

    try:
        runpy.run_module("eivpcr.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
