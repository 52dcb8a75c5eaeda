"""Heuristics for choosing the number of retained principal components."""
from __future__ import annotations

import numpy as np

from .errors import AllZero, BadParam, EmptySpectrum

# relative regularizer keeping the gap ratio defined at an exact-rank boundary
_GAP_EPS = 1e-12


def _as_spectrum(s) -> np.ndarray:
    s = np.asarray(s, dtype=float).ravel()
    if s.size == 0:
        raise EmptySpectrum("empty spectrum")
    if s[0] <= 0:
        raise AllZero("spectrum has no positive mass")
    return s


def gap_ratios(s) -> np.ndarray:
    """Consecutive ratios s_i / (s_{i+1} + eps), length len(s) - 1."""
    s = _as_spectrum(s)
    eps = _GAP_EPS * s[0]
    return s[:-1] / (s[1:] + eps)


def select_rank_largest_gap(s, k_max: int) -> int:
    """Index of the largest consecutive spectral gap, searched in [1, k_max].

    Ties break toward the smallest index. The ratio denominator carries a
    small relative regularizer so exact-rank spectra (trailing zeros) stay
    well defined.
    """
    s = _as_spectrum(s)
    if s.size < 2:
        raise EmptySpectrum("need at least two singular values")
    if not 1 <= int(k_max) <= s.size - 1:
        raise BadParam(f"k_max={k_max} outside [1, {s.size - 1}]")
    ratios = gap_ratios(s)[: int(k_max)]
    return int(np.argmax(ratios)) + 1


# public though no entry point calls it: the benchmark's tracer
# (bench/spans.py) looks it up by name
def select_rank_energy(s, fraction: float) -> int:
    """Smallest k whose leading squared singular values reach the fraction."""
    s = _as_spectrum(s)
    fraction = float(fraction)
    if not 0.0 < fraction < 1.0:
        raise BadParam(f"fraction={fraction} outside (0, 1)")
    energy = np.cumsum(s**2)
    return int(np.argmax(energy >= fraction * energy[-1])) + 1
