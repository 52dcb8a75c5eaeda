"""Dense matrix substrate: masked matrices, deterministic SVD, truncation.

All values are immutable after construction (arrays are marked read-only), so
every object in this module is safe to share across threads.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from . import _blas
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
        Cell values, never written to; stored as a fresh read-only C-ordered
        array holding NaN at every unobserved position, whatever was there.
    mask : ndarray of bool, shape (rows, cols)
        True where the cell is observed; stored as a fresh read-only copy.
    col_labels : tuple of str, optional
        Column names carried through CSV round trips.
    """

    values: np.ndarray
    mask: np.ndarray
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool, order="C")
        if values.ndim != 2 or mask.ndim != 2:
            raise BadShape("values and mask must be 2-dimensional")
        if values.shape != mask.shape:
            raise BadShape(
                f"values shape {values.shape} != mask shape {mask.shape}"
            )
        values = np.where(mask, values, np.nan)
        # exact: values is NaN, so not finite, wherever the mask is False
        if np.count_nonzero(np.isfinite(values)) != np.count_nonzero(mask):
            raise NonFinite("observed cells must be finite")
        values.flags.writeable = False
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
    orthonormal columns. In each right vector the entry of largest absolute
    value is nonnegative (ties broken by lowest index); the paired left
    vector is flipped jointly, so the reconstruction is unchanged.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        s = np.array(self.singular_values, dtype=float)
        u = np.array(self.left_vectors, dtype=float)
        v = np.array(self.right_vectors, dtype=float)
        if s.ndim != 1 or u.ndim != 2 or v.ndim != 2:
            raise BadShape("factors must be (q,), (rows, q), (cols, q)")
        if u.shape[1] != s.shape[0] or v.shape[1] != s.shape[0]:
            raise BadShape("factor column counts must match len(singular_values)")
        if s.shape[0] and (np.any(s < 0) or np.any(np.diff(s) > 0)):
            raise BadShape("singular values must be nonincreasing and nonnegative")
        for name, a in (("singular_values", s), ("left_vectors", u), ("right_vectors", v)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _apply_sign_convention(vt: np.ndarray, u: np.ndarray | None = None) -> None:
    """Flip rows of ``vt`` in place to :class:`SvdFactors`' convention, and
    the paired columns of ``u`` when a caller has them."""
    if vt.size == 0:
        return
    mag = np.abs(vt)
    # argmax returns the first True: among entries tied for the largest
    # magnitude in a row, the one with the lowest column index
    peak_cols = (mag == mag.max(axis=1, keepdims=True)).argmax(axis=1)
    sign = np.where(vt[np.arange(vt.shape[0]), peak_cols] < 0, -1.0, 1.0)
    vt *= sign[:, None]  # multiplying by 1.0 or -1.0 is exact
    if u is not None:
        u *= sign


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
    _apply_sign_convention(vt, u)  # in place: LAPACK's outputs are ours
    return SvdFactors(s, u, vt.T)


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
    _apply_sign_convention(vt, u)
    return SvdFactors(s, u, vt.T)


def _qr_r(f: np.ndarray) -> np.ndarray:
    """R of the QR of ``f``, bit for bit ``numpy.linalg.qr(f, mode="r")``.

    ``f`` is an m x n Fortran-ordered float array that the caller owns and
    no longer needs: LAPACK's ``dgeqrf`` from numpy's bundled OpenBLAS
    overwrites it, after a workspace query sized as numpy sizes it, and the
    upper triangle of its first min(m, n) rows is returned. The call goes
    through ``ctypes.CDLL``, so it releases the GIL, which numpy's ``qr``
    holds on small matrices (min(m, n) <= 500 with numpy 2.4). Without the
    bundled library this is ``numpy.linalg.qr(f, mode="r")``. Raises
    BadShape unless ``f`` is a writeable 2-D Fortran-ordered float64 array.
    """
    if f.ndim != 2 or f.dtype != np.float64 or not (f.flags.f_contiguous and f.flags.writeable):
        raise BadShape("_qr_r expects a writeable 2-D Fortran-ordered float64 array")
    blas = _blas._openblas()
    geqrf = None if blas is None else blas.dgeqrf
    if geqrf is None:
        return np.linalg.qr(f, mode="r")
    m, n = f.shape
    i64 = ctypes.c_int64
    rows, cols, lda, info = i64(m), i64(n), i64(max(1, m)), i64(0)
    tau = np.empty(max(1, min(m, n)))
    query = np.empty(1)
    geqrf(rows, cols, f.ctypes.data, lda, tau.ctypes.data, query.ctypes.data, i64(-1), info)
    lwork = max(1, n, int(query[0]))
    work = np.empty(lwork)
    geqrf(rows, cols, f.ctypes.data, lda, tau.ctypes.data, work.ctypes.data, i64(lwork), info)
    if info.value:
        raise np.linalg.LinAlgError(f"dgeqrf argument {-info.value} is illegal")
    return np.triu(f[:min(m, n)])


def _small_side_svd(a: np.ndarray, rank, y=None):
    """Top singular values and right vectors of a dense n x p matrix from
    one QR and one SVD of its small side; a tall matrix's left vectors are
    never formed.

    Tall (n > p): the QR of ``a`` gives the p x p factor R, whose SVD gives
    the spectrum and V. Wide (n <= p): the QR of ``a.T``; the SVD of the
    n x n factor's transpose gives the spectrum and U, and
    V_k = a^T U_k / s_k. ``rank(s)`` maps the whole nonincreasing spectrum
    to the number k of triplets kept, and may raise. :func:`svd`'s sign
    convention is applied to V_k.

    The QR runs in :func:`_qr_r` on one Fortran-ordered copy built in a
    single pass (``[a | y]`` or ``a`` when tall, ``a.T`` when wide), so it
    releases the GIL and its R has ``numpy.linalg.qr(mode="r")``'s bits.

    Returns ``(s_k, v_k, uty)``, where uty is U_k^T y, under V_k's signs,
    for a response ``y`` and None without one. A tall ``a`` is then
    factorized as ``[a | y]`` and uty taken from Q^T y, the stacked R's
    last column, and R's left vectors, so U_k itself is never needed. The
    values and vectors agree with :func:`svd`'s top k to rounding, not bit
    for bit. Raises what :func:`svd` raises.
    """
    n, p = a.shape
    if n > p:
        f = np.empty((n, p + (y is not None)), order="F")
        f[:, :p] = a
        if y is not None:
            f[:, p] = y
        r = _qr_r(f)
        u, s, vt = _lapack_svd(r[:p, :p], full_matrices=False)
        k = rank(s)
        s, u, vt = s[:k], u[:, :k], vt[:k]
        if y is not None:
            y = r[:p, p]  # Q^T y: U_k^T y is R's left vectors against it
    else:
        # a C-ordered a's transpose is F-contiguous: this is a memcpy
        u, s, _ = _lapack_svd(_qr_r(np.array(a.T, order="F")).T, full_matrices=False)
        k = rank(s)
        s, u = s[:k], u[:, :k]
        vt = u.T @ a
        vt /= s[:, None]
    _apply_sign_convention(vt, u)
    return s, vt.T, None if y is None else u.T @ y


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
