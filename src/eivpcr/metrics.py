"""Shared error metrics and signal-to-noise diagnostics.

``mean_squared_error`` is the single code path behind both the test
prediction error and the counterfactual error of the synthetic-controls
wrapper, so the two are identical by construction, not merely close.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BadParam, ShapeMismatch


def mean_squared_error(a, b) -> float:
    """(1/m) * ||a - b||_2^2 for two equal-length vectors."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ShapeMismatch(f"lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise ShapeMismatch("vectors must be nonempty")
    return float(np.mean((a - b) ** 2))


def rmse(a, b) -> float:
    """Root mean squared difference, ||a - b||_2 / sqrt(len)."""
    return math.sqrt(mean_squared_error(a, b))


def snr_report(s_r: float, rho: float, n: int, p: int) -> float:
    """Signal-to-noise ratio rho * s_r / (sqrt(n) + sqrt(p)).

    ``s_r`` is the smallest retained signal singular value and the
    denominator is the expected spectral size of the noise perturbation.
    """
    s_r = float(s_r)
    rho = float(rho)
    if s_r <= 0:
        raise BadParam(f"s_r={s_r} must be positive")
    if not 0.0 < rho <= 1.0:
        raise BadParam(f"rho={rho} outside (0, 1]")
    n = int(n)
    p = int(p)
    if n < 1 or p < 1:
        raise BadParam("n and p must be positive")
    return rho * s_r / (math.sqrt(n) + math.sqrt(p))
