"""Two-stage principal component regression for noisy, partially observed
covariates.

Stage one (``fit``) rescales the observed design by its observed fraction,
keeps the top k singular triplets, and solves for the coefficient vector
that is the unique minimum-l2-norm least-squares solution against the
truncated design. Stage two (``predict``) denoises an independent test
design the same way and applies the fitted coefficients, with optional
symmetric clamping of the responses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MaskedMatrix, SvdFactors, rescale, spectral_norm, svd
from .errors import (
    BadParam,
    CorruptModel,
    DegenerateSpectrum,
    NonFinite,
    RankOutOfRange,
    ShapeMismatch,
)

# retained singular values at or below this fraction of the largest are
# treated as numerically zero; inverting them would explode 1/s
_RELATIVE_SPECTRUM_FLOOR = 1e-12

_ROWSPAN_TOL = 1e-8

# train singular values at or below this fraction of the largest do not
# count toward the rowspace that check_subspace_inclusion projects onto
_NUMERICAL_RANK_CUT = 1e-8


def _rank(value, name: str) -> int:
    """``value`` as an int; BadParam unless a Python or numpy integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadParam(f"{name}={value!r} must be an integer")
    return int(value)


@dataclass(frozen=True)
class PredictionConfig:
    """Test-side options: truncation rank ``ell`` and optional clamp bound."""

    ell: int
    bound: float | None = None

    def __post_init__(self):
        ell = _rank(self.ell, "ell")
        if ell < 1:
            raise BadParam(f"ell={ell} must be >= 1")
        object.__setattr__(self, "ell", ell)
        if self.bound is not None:
            bound = float(self.bound)
            if not bound > 0:
                raise BadParam(f"bound={bound} must be positive")
            object.__setattr__(self, "bound", bound)


@dataclass(frozen=True)
class PcrModel:
    """A fitted estimator.

    ``beta_hat`` lies in the span of the retained right singular vectors
    and all retained singular values are strictly positive. ``retained``
    holds the top-k factors of the rescaled train design; it is None on
    models loaded from disk (the vectors are not serialized). Invariant
    violations raise :class:`CorruptModel`, which is how tampered model
    files surface on load.
    """

    beta_hat: np.ndarray
    k: int
    rho_hat: float
    singular_values: np.ndarray
    retained: SvdFactors | None = field(default=None, repr=False)

    def __post_init__(self):
        beta = np.array(self.beta_hat, dtype=float).ravel()
        s = np.array(self.singular_values, dtype=float).ravel()
        if not np.all(np.isfinite(beta)):
            raise CorruptModel("beta_hat must be finite")
        if int(self.k) < 1:
            raise CorruptModel(f"k={self.k} must be >= 1")
        if s.size != int(self.k):
            raise CorruptModel(f"{s.size} retained singular values for k={self.k}")
        if not np.all(np.isfinite(s)) or np.any(s <= 0) or np.any(np.diff(s) > 0):
            raise CorruptModel("retained spectrum must be positive and nonincreasing")
        rho = float(self.rho_hat)
        if not 0.0 < rho <= 1.0:
            raise CorruptModel(f"rho_hat={rho} outside (0, 1]")
        beta.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "rho_hat", rho)
        if self.retained is not None:
            vk = self.retained.right_vectors
            if vk.shape != (beta.size, int(self.k)):
                raise CorruptModel("retained factors do not match beta_hat")
            residual = beta - vk @ (vk.T @ beta)
            if np.linalg.norm(residual) > _ROWSPAN_TOL * (1 + np.linalg.norm(beta)):
                raise CorruptModel("beta_hat leaves the retained rowspan")

    @property
    def p(self) -> int:
        return int(self.beta_hat.shape[0])


@dataclass(frozen=True)
class Prediction:
    """Detailed prediction output.

    ``ell_effective`` is the truncation rank actually used; it drops below
    the requested rank when the test spectrum has fewer numerically positive
    values, which is legitimate for rank-deficient noiseless designs.
    """

    y_hat: np.ndarray
    rho_hat_prime: float
    ell: int
    ell_effective: int
    clamped: np.ndarray
    factors: SvdFactors = field(repr=False)


def fit(z: MaskedMatrix, y, k: int) -> PcrModel:
    """Fit the rank-k model on a masked train design.

    Parameters
    ----------
    z : MaskedMatrix, shape (n, p)
        Observed covariates; missing cells are zero-filled and the whole
        matrix divided by the observed fraction before factorization.
    y : array_like, shape (n,)
        Finite responses.
    k : int
        Retained rank, 1 <= k <= min(n, p); a Python or numpy integer.

    Returns
    -------
    PcrModel
        With ``beta_hat = sum_{i<=k} (1/s_i) v_i u_i^T y`` computed on the
        rescaled design; equivalently the minimum-l2-norm least-squares
        solution against its rank-k truncation.

    Raises
    ------
    BadParam
        If k is not an integer (a bool, float or string).
    RankOutOfRange
        If k lies outside [1, min(n, p)].
    DegenerateSpectrum
        If the k-th singular value is numerically zero relative to the
        largest; pseudo-inverting it would be meaningless, so fail loudly.
    AllMissing
        If nothing is observed.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != z.rows:
        raise ShapeMismatch(f"{y.shape[0]} responses for {z.rows} rows")
    if not np.all(np.isfinite(y)):
        raise NonFinite("responses must be finite")
    k = _rank(k, "k")
    if not 1 <= k <= min(z.rows, z.cols):
        raise RankOutOfRange(f"k={k} outside [1, {min(z.rows, z.cols)}]")
    rescaled, rho_hat = rescale(z)
    factors = svd(rescaled)
    s = factors.singular_values
    if s[k - 1] <= _RELATIVE_SPECTRUM_FLOOR * s[0]:
        raise DegenerateSpectrum(
            f"singular value {k} is {s[k - 1]:.3e}, numerically zero "
            f"relative to {s[0]:.3e}"
        )
    u_k = factors.left_vectors[:, :k]
    v_k = factors.right_vectors[:, :k]
    beta_hat = v_k @ ((u_k.T @ y) / s[:k])
    retained = SvdFactors(
        singular_values=s[:k], left_vectors=u_k, right_vectors=v_k
    )
    return PcrModel(
        beta_hat=beta_hat,
        k=k,
        rho_hat=rho_hat,
        singular_values=s[:k],
        retained=retained,
    )


def predict_detailed(model: PcrModel, z_test: MaskedMatrix, cfg: PredictionConfig) -> Prediction:
    """Denoise a masked test design and apply the fitted coefficients.

    The test design is rescaled by its own observed fraction, truncated to
    rank ``cfg.ell`` by a fresh SVD, and multiplied by ``model.beta_hat``.
    Clamping, when ``cfg.bound`` is set, applies to the responses after
    denoised prediction, never to the coefficients.
    """
    if z_test.cols != model.p:
        raise ShapeMismatch(f"test design has {z_test.cols} columns, model has {model.p}")
    if cfg.ell > min(z_test.rows, z_test.cols):
        raise RankOutOfRange(
            f"ell={cfg.ell} outside [1, {min(z_test.rows, z_test.cols)}]"
        )
    rescaled, rho_hat_prime = rescale(z_test)
    factors = svd(rescaled)
    s = factors.singular_values
    positive = int(np.count_nonzero(s > _RELATIVE_SPECTRUM_FLOOR * s[0])) if s[0] > 0 else 0
    ell_eff = min(cfg.ell, positive)
    if ell_eff == 0:
        raw = np.zeros(z_test.rows)
    else:
        u = factors.left_vectors[:, :ell_eff]
        v = factors.right_vectors[:, :ell_eff]
        raw = u @ (s[:ell_eff] * (v.T @ model.beta_hat))
    if cfg.bound is None:
        y_hat = raw
        clamped = np.zeros(raw.shape, dtype=bool)
    else:
        y_hat = np.clip(raw, -cfg.bound, cfg.bound)
        clamped = np.abs(raw) > cfg.bound
    return Prediction(
        y_hat=y_hat,
        rho_hat_prime=rho_hat_prime,
        ell=cfg.ell,
        ell_effective=ell_eff,
        clamped=clamped,
        factors=factors,
    )


def predict(model: PcrModel, z_test: MaskedMatrix, cfg: PredictionConfig) -> np.ndarray:
    """Test response estimates; see :func:`predict_detailed` for diagnostics."""
    return predict_detailed(model, z_test, cfg).y_hat


def check_subspace_inclusion(x_train, x_test) -> float:
    """How much of the test rowspace escapes the train rowspace.

    Returns ||x_test (I - V_r V_r^T)||_2 / max(1, ||x_test||_2) with V_r
    spanning the train rowspace at numerical rank r (singular values above
    1e-8 times the largest). It is 0 when the test rows lie in that span;
    under noise it stays above 0 even when the noiseless rows do. One SVD
    of ``x_train`` with vectors, then two values-only spectral norms; the
    lab's subspace runner reuses its trials' train factors instead.
    """
    x_train = np.asarray(x_train, dtype=float)
    x_test = np.asarray(x_test, dtype=float)
    if x_train.ndim != 2 or x_test.ndim != 2:
        raise ShapeMismatch("both inputs must be 2-dimensional")
    if x_train.shape[1] != x_test.shape[1]:
        raise ShapeMismatch(
            f"column counts differ: {x_train.shape[1]} vs {x_test.shape[1]}"
        )
    return _inclusion_leakage(svd(x_train), x_test)


def _inclusion_leakage(train: SvdFactors, x_test: np.ndarray) -> float:
    """:func:`check_subspace_inclusion` given ``svd(x_train)``."""
    s = train.singular_values
    r = int(np.count_nonzero(s > _NUMERICAL_RANK_CUT * s[0])) if s.size and s[0] > 0 else 0
    v_r = train.right_vectors[:, :r]  # at r == 0 the residual is x_test exactly
    residual = x_test - (x_test @ v_r) @ v_r.T
    return float(spectral_norm(residual) / max(1.0, spectral_norm(x_test)))
