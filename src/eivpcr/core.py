"""Dense matrix substrate: masked matrices, deterministic SVD, truncation.

All values are immutable after construction (arrays are marked read-only), so
every object in this module is safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllMissing,
    BadShape,
    NoConverge,
    NonFinite,
    RankOutOfRange,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MaskedMatrix:
    """A real matrix with an explicit observed/missing mask.

    ``mask`` is authoritative: a cell is data if and only if its mask entry is
    True. Missing cells hold NaN as a sentinel so that accidental reads are
    detected, but the sentinel is never compared or interpreted as a value.

    Parameters
    ----------
    values : ndarray, shape (rows, cols)
        Cell values; entries at unobserved positions are overwritten with NaN.
    mask : ndarray of bool, shape (rows, cols)
        True where the cell is observed.
    col_labels : tuple of str, optional
        Column names carried through CSV round trips.
    """

    values: np.ndarray
    mask: np.ndarray
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2 or mask.ndim != 2:
            raise BadShape("values and mask must be 2-dimensional")
        if values.shape != mask.shape:
            raise BadShape(
                f"values shape {values.shape} != mask shape {mask.shape}"
            )
        if not np.all(np.isfinite(values[mask])):
            raise NonFinite("observed cells must be finite")
        values = values.copy()
        values[~mask] = np.nan
        values.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        if self.col_labels is not None:
            labels = tuple(str(c) for c in self.col_labels)
            if len(labels) != values.shape[1]:
                raise BadShape(
                    f"{len(labels)} column labels for {values.shape[1]} columns"
                )
            object.__setattr__(self, "col_labels", labels)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_dense(cls, values, mask=None, col_labels=None) -> "MaskedMatrix":
        """Build from a dense array, fully observed unless a mask is given."""
        values = np.asarray(values, dtype=float)
        if mask is None:
            mask = np.ones(values.shape, dtype=bool)
        return cls(values=values, mask=mask, col_labels=col_labels)


def estimate_rho(m: MaskedMatrix) -> float:
    """Fraction of observed cells, over the whole matrix.

    Raises AllMissing when nothing is observed; downstream division by the
    estimate must stay defined.
    """
    total = m.rows * m.cols
    observed = int(np.count_nonzero(m.mask))
    if total == 0 or observed == 0:
        raise AllMissing("no observed cells")
    return observed / total


def rescale(m: MaskedMatrix) -> tuple[np.ndarray, float]:
    """Zero-fill the missing cells and divide by the observed fraction.

    Returns ``(rescaled, rho_hat)``: the read-only rescaled matrix and the
    observed fraction from :func:`estimate_rho`.
    """
    rho_hat = estimate_rho(m)
    rescaled = np.where(m.mask, m.values, 0.0)
    rescaled /= rho_hat
    rescaled.flags.writeable = False
    return rescaled, rho_hat


@dataclass(frozen=True)
class SvdFactors:
    """Singular values and vectors under a fixed sign convention.

    ``singular_values`` is nonincreasing with length q = min(rows, cols);
    ``left_vectors`` is rows x q and ``right_vectors`` cols x q, both with
    orthonormal columns. In each left vector the entry of largest absolute
    value is nonnegative (ties broken by lowest index); the paired right
    vector is flipped jointly, so the reconstruction is unchanged.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        s = _frozen(self.singular_values)
        u = _frozen(self.left_vectors)
        v = _frozen(self.right_vectors)
        if s.ndim != 1 or u.ndim != 2 or v.ndim != 2:
            raise BadShape("factors must be (q,), (rows, q), (cols, q)")
        if u.shape[1] != s.shape[0] or v.shape[1] != s.shape[0]:
            raise BadShape("factor column counts must match len(singular_values)")
        if s.shape[0] and (np.any(s < 0) or np.any(np.diff(s) > 0)):
            raise BadShape("singular values must be nonincreasing and nonnegative")
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "left_vectors", u)
        object.__setattr__(self, "right_vectors", v)


def _apply_sign_convention(u: np.ndarray, vt: np.ndarray):
    if u.size == 0:
        return
    mag = np.abs(u)
    # argmax returns the first True: among entries tied for the largest
    # magnitude in a column, the one with the lowest row index
    peak_rows = (mag == mag.max(axis=0)).argmax(axis=0)
    sign = np.where(u[peak_rows, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    u *= sign  # multiplying by 1.0 or -1.0 is exact
    vt *= sign[:, None]


def svd(m) -> SvdFactors:
    """Thin SVD of a dense matrix with deterministic output.

    Delegates the factorization to LAPACK and then enforces the sign
    convention, so identical input bits give identical output bits.

    Raises
    ------
    BadShape
        If ``m`` is not 2-dimensional.
    NonFinite
        If any entry is NaN or infinite.
    NoConverge
        If the iteration fails; never silently truncated.
    """
    u, s, vt = _lapack_svd(m, full_matrices=False)
    _apply_sign_convention(u, vt)  # in place: LAPACK's outputs are ours
    return SvdFactors(singular_values=s, left_vectors=u, right_vectors=vt.T)


def _svd_of_product(left, right) -> SvdFactors:
    """Thin SVD of ``left @ right.T`` from its factors, without forming it.

    ``left`` is n x r and ``right`` p x r, with r at most n and p. Each
    factor is QR-factorized, one LAPACK SVD of the r x r core ``R_l R_r^T``
    follows, and its vectors are lifted by the Q factors, so the product's
    r singular triplets cost O((n + p) r^2) rather than a dense SVD of the
    n x p product. :func:`svd`'s sign convention is applied to the lifted
    vectors. The result agrees with ``svd(left @ right.T)``'s top r
    triplets to rounding, not bit for bit; for a rank-deficient factor the
    trailing singular values are zero to rounding.
    """
    q_l, r_l = np.linalg.qr(left)
    q_r, r_r = np.linalg.qr(right)
    u, s, vt = _lapack_svd(r_l @ r_r.T, full_matrices=False)
    u = q_l @ u
    vt = vt @ q_r.T
    _apply_sign_convention(u, vt)
    return SvdFactors(singular_values=s, left_vectors=u, right_vectors=vt.T)


def truncate_rank(f: SvdFactors, k: int) -> np.ndarray:
    """Best rank-k approximation rebuilt from the top k triplets.

    Ties in the spectrum are resolved by stored order: the first k triplets
    are kept as they appear in ``f``.
    """
    q = f.singular_values.shape[0]
    if not 1 <= int(k) <= q:
        raise RankOutOfRange(f"k={k} outside [1, {q}]")
    k = int(k)
    return (f.left_vectors[:, :k] * f.singular_values[:k]) @ f.right_vectors[:, :k].T


def _singular_values(m) -> np.ndarray:
    """Singular values of a dense 2-D matrix, nonincreasing, without vectors.

    One values-only LAPACK call: the cheap path for every caller that reads
    the spectrum and would discard the vectors :func:`svd` computes. The
    values agree with ``svd(m).singular_values`` to rounding, not bit for
    bit (LAPACK takes a different route when it skips the vectors). Raises
    what :func:`svd` raises.
    """
    return _lapack_svd(m, compute_uv=False)


def _lapack_svd(m, **kwargs):
    """``numpy.linalg.svd(m, **kwargs)`` on a validated dense 2-D matrix,
    with LAPACK's failure raised as :class:`NoConverge`."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise BadShape("svd expects a 2-dimensional matrix")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix entries must be finite")
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConverge(str(exc)) from exc


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for an empty matrix."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(_singular_values(m)[0])
