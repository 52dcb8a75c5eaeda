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

from .core import MaskedMatrix, SvdFactors, _frozen, _small_side_svd, rescale, spectral_norm, svd
from .errors import (
    BadParam,
    CorruptModel,
    DegenerateSpectrum,
    NonFinite,
    RankOutOfRange,
    SchemaMismatch,
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

    ``beta_hat`` lies in the span of ``right_vectors`` (p x k, read-only),
    the top-k right singular vectors of the rescaled train design, and the
    retained ``singular_values`` are strictly positive. ``right_vectors`` is
    None on models loaded from disk (the vectors are not serialized).
    ``col_labels`` names the train design's columns, one per coefficient,
    when that design had labels; :func:`predict_detailed` then matches test
    columns to coefficients by name. Invariant violations raise
    :class:`CorruptModel`, which is how tampered model files surface on
    load.
    """

    beta_hat: np.ndarray
    k: int
    rho_hat: float
    singular_values: np.ndarray
    right_vectors: np.ndarray | None = field(default=None, repr=False)
    col_labels: tuple[str, ...] | None = None

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
        if self.right_vectors is not None:
            vk = _frozen(self.right_vectors)
            if vk.shape != (beta.size, int(self.k)):
                raise CorruptModel("right_vectors do not match beta_hat and k")
            residual = beta - vk @ (vk.T @ beta)
            if np.linalg.norm(residual) > _ROWSPAN_TOL * (1 + np.linalg.norm(beta)):
                raise CorruptModel("beta_hat leaves the retained rowspan")
            object.__setattr__(self, "right_vectors", vk)
        if self.col_labels is not None:
            labels = tuple(str(c) for c in self.col_labels)
            if len(labels) != beta.size:
                raise CorruptModel(f"{len(labels)} column labels for {beta.size} coefficients")
            object.__setattr__(self, "col_labels", labels)

    @property
    def p(self) -> int:
        return int(self.beta_hat.shape[0])


@dataclass(frozen=True)
class Prediction:
    """Detailed prediction output.

    ``ell_effective`` is the truncation rank actually used; it drops below
    the requested rank when the test spectrum has fewer numerically positive
    values, which is legitimate for rank-deficient noiseless designs.
    ``singular_values`` and ``right_vectors`` (p x ell_effective) are the
    read-only top singular values and right vectors of the rescaled test
    design.
    """

    y_hat: np.ndarray
    rho_hat_prime: float
    ell: int
    ell_effective: int
    clamped: np.ndarray
    singular_values: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)


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
        solution against its rank-k truncation. The triplets come from a
        QR of the rescaled design's small side and one SVD of the square
        factor (``[Z | y]`` when n > p, which gives U^T y; Z^T otherwise),
        so a tall design's left vectors are never formed. ``beta_hat`` and
        the spectrum agree with a dense SVD of the design to rounding. The QR
        is LAPACK's ``dgeqrf`` from numpy's bundled OpenBLAS, with
        ``numpy.linalg.qr``'s bits, called so that it releases the GIL:
        fits on other threads run beside it.

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

    def nondegenerate_k(s):
        if s[k - 1] <= _RELATIVE_SPECTRUM_FLOOR * s[0]:
            raise DegenerateSpectrum(
                f"singular value {k} is {s[k - 1]:.3e}, numerically zero "
                f"relative to {s[0]:.3e}"
            )
        return k

    s_k, v_k, uty = _small_side_svd(rescaled, nondegenerate_k, y)
    return PcrModel(
        beta_hat=v_k @ (uty / s_k),
        k=k,
        rho_hat=rho_hat,
        singular_values=s_k,
        right_vectors=v_k,
        col_labels=z.col_labels,
    )


def predict_detailed(model: PcrModel, z_test: MaskedMatrix, cfg: PredictionConfig) -> Prediction:
    """Denoise a masked test design and apply the fitted coefficients.

    The test design is rescaled by its own observed fraction, truncated to
    rank ``cfg.ell`` and multiplied by ``model.beta_hat``. The truncation
    comes from a QR of the rescaled design's small side and one SVD of the
    square factor, as in :func:`fit`, and the QR releases the GIL as there.
    The prediction is Z (V (V^T beta_hat)) over the retained right vectors
    V on either route (U S = Z V), so a tall design's left vectors are never
    formed; at ``ell_effective == 0`` (an all-zero design) it is +0.0.
    Clamping, when ``cfg.bound`` is set, applies to the responses after
    denoised prediction, never to the coefficients.

    When both the model and ``z_test`` carry column labels, test columns are
    matched to coefficients by label: columns in another order are permuted
    into the model's, which gives the same-order result bit for bit. Labels
    equal in order are used as they are; otherwise a label that is missing
    or repeated on either side raises :class:`SchemaMismatch`. When either
    side has no labels, columns are matched by position.
    """
    if z_test.cols != model.p:
        raise ShapeMismatch(f"test design has {z_test.cols} columns, model has {model.p}")
    labels = model.col_labels
    if labels is not None and z_test.col_labels is not None and z_test.col_labels != labels:
        z_test = _in_label_order(z_test, labels)
    if cfg.ell > min(z_test.rows, z_test.cols):
        raise RankOutOfRange(
            f"ell={cfg.ell} outside [1, {min(z_test.rows, z_test.cols)}]"
        )
    rescaled, rho_hat_prime = rescale(z_test)
    s, v, _ = _small_side_svd(
        rescaled,
        lambda s: min(cfg.ell, int(np.count_nonzero(s > _RELATIVE_SPECTRUM_FLOOR * s[0]))),
    )
    # at ell_eff == 0 BLAS sums from +0.0, so y_hat is +0.0 on a -0.0 design too
    raw = rescaled @ (v @ (v.T @ model.beta_hat))
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
        ell_effective=s.shape[0],
        clamped=clamped,
        singular_values=_frozen(s),
        right_vectors=_frozen(v),
    )


def _in_label_order(z: MaskedMatrix, labels: tuple[str, ...]) -> MaskedMatrix:
    """``z`` with its columns permuted into the order of ``labels``."""
    for names, side in ((labels, "model"), (z.col_labels, "test design")):
        if len(set(names)) != len(names):
            repeated = next(c for c in names if names.count(c) > 1)
            raise SchemaMismatch(f"{side} column label {repeated!r} is repeated")
    position = {c: j for j, c in enumerate(z.col_labels)}
    missing = [c for c in labels if c not in position]
    if missing:
        raise SchemaMismatch(f"test design has no column labelled {missing[0]!r}")
    order = [position[c] for c in labels]
    return MaskedMatrix(values=z.values[:, order], mask=z.mask[:, order], col_labels=labels)


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
    """:func:`check_subspace_inclusion` given ``svd(x_train)``, or a thin
    SVD of ``x_train`` holding at least its numerical-rank triplets."""
    s = train.singular_values
    r = int(np.count_nonzero(s > _NUMERICAL_RANK_CUT * s[0])) if s.size and s[0] > 0 else 0
    v_r = train.right_vectors[:, :r]  # at r == 0 the residual is x_test exactly
    residual = x_test - (x_test @ v_r) @ v_r.T
    return float(spectral_norm(residual) / max(1.0, spectral_norm(x_test)))
