"""Seeded generators for the simulation studies.

The ``gen_*`` factor-model generators return the generating factors of
latent (noiseless) covariates, not their products: a caller forms
``x_r @ q`` or ``u @ v.T``. ``gen_factor_uv`` draws the one square train
design of the shift and subspace studies, at ``DEFAULT_FACTOR_RANK``.
``corrupt`` adds measurement noise and an observation mask as a separate,
independently seeded step. All functions are pure in (parameters, seed):
calling twice yields bit-identical arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..core import MaskedMatrix, SvdFactors, _rank
from ..errors import BadParam, BadShape
from ..synthetic_control import PanelDataset
from .streams import Role, child, substream

# factor rank of every shift and subspace trial, fitted and predicted at
# this rank too
DEFAULT_FACTOR_RANK = 10


class Shift(IntEnum):
    """Test-side factor distributions for the covariate-shift study.

    N1 is standard normal, N2 normal with variance 5, U1 uniform on
    [-sqrt(3), sqrt(3)] (variance 1, matching N1), U2 uniform on
    [-sqrt(15), sqrt(15)] (variance 5, matching N2).
    """

    N1 = 0
    N2 = 1
    U1 = 2
    U2 = 3


@dataclass(frozen=True, eq=False)
class TrialData:
    """One assembled trial: latent matrices, model, responses, observations.

    ``train_factors`` is the trial's one factorization of ``x_train`` with
    vectors: the rank-r thin SVD of ``x_train = left @ right.T``, taken from
    the factors its ``gen_*`` returns (``X_r`` and ``Q^T`` for
    identification, ``U`` and ``V`` for shift and subspace) without
    factoring the n x p latent. It holds exactly r triplets and matches
    ``svd(x_train)``'s top r to rounding. ``beta_star`` projects
    ``beta_raw`` onto its right vectors (the minimum-norm model the
    estimator can identify), shift and subspace ``snr`` read its r-th
    singular value and the subspace leakage columns read it whole.
    ``theta_test = x_test @ beta_raw`` holds the expected test responses.
    Test-side fields are None for identification-only trials.
    """

    x_train: np.ndarray
    beta_raw: np.ndarray
    beta_star: np.ndarray
    y: np.ndarray
    z_train: MaskedMatrix
    train_factors: SvdFactors
    x_test: np.ndarray | None = None
    z_test: MaskedMatrix | None = None
    theta_test: np.ndarray | None = None


def gen_prob_pca(n: int, p: int, r: int, seed):
    """The factors ``(X_r, Q)`` of rank-r latent covariates X = X_r Q.

    X_r is n x r with standard normal entries; Q is r x p with entries
    drawn uniformly from {-1/sqrt(r), +1/sqrt(r)}.
    """
    _check_dims(r, n=n, p=p)
    rng = substream(seed, Role.LATENT)
    x_r = rng.standard_normal((n, r))
    q = rng.choice([-1.0, 1.0], size=(r, p)) / math.sqrt(r)
    return x_r, q


def gen_factor_uv(size: int, seed):
    """The factors ``(U, V)`` of one square rank-r train latent X = U V^T.

    U and V are size x r (r the rank of the factors,
    ``DEFAULT_FACTOR_RANK``) with standard normal entries, drawn from the
    ``(seed, Role.LATENT)`` stream. The shift and subspace trial builders
    draw their test factors from their own streams.
    """
    _check_dims(DEFAULT_FACTOR_RANK, size=size)
    shape = (size, DEFAULT_FACTOR_RANK)
    rng = substream(seed, Role.LATENT)
    return rng.standard_normal(shape), rng.standard_normal(shape)


@dataclass(frozen=True, eq=False)
class PanelTrial:
    """A generated panel with the latent ground truth needed for scoring."""

    panel: PanelDataset
    truth: np.ndarray          # expected counterfactual target trajectory (m,)
    weights: np.ndarray        # donor combination defining the target (p,)
    latent_donors: np.ndarray  # noiseless donor outcomes, (n + m) x p


def gen_panel_ife(n: int, m: int, p: int, r: int, sigma: float, seed) -> PanelTrial:
    """Interactive fixed-effects panel with a synthetic target unit.

    Donor outcomes are inner products of standard normal time and unit
    factors plus N(0, sigma^2) noise. The target is a fixed random linear
    combination of the donors' latent outcomes (weights scaled by
    1/sqrt(p)) plus noise of the same level. The returned truth is the
    target's noiseless post-treatment trajectory.
    """
    _check_dims(r, n=n, m=m, p=p)
    sigma = float(sigma)
    if not sigma >= 0:
        raise BadParam(f"sigma={sigma} must be >= 0")
    time_factors = substream(seed, Role.LATENT).standard_normal((n + m, r))
    unit_factors = substream(seed, Role.LATENT_TEST).standard_normal((p, r))
    latent = time_factors @ unit_factors.T
    weights = substream(seed, Role.WEIGHTS).standard_normal(p) / math.sqrt(p)
    target_latent = latent @ weights

    values = np.empty((n + m, p + 1))
    values[:, 1:] = latent
    values[:, 0] = target_latent
    if sigma > 0:
        values[:, 1:] += sigma * substream(seed, Role.NOISE).standard_normal((n + m, p))
        values[:, 0] += sigma * substream(seed, Role.RESPONSE_NOISE).standard_normal(n + m)
    labels = ("target",) + tuple(f"donor{j}" for j in range(1, p + 1))
    panel = PanelDataset(
        outcomes=MaskedMatrix.from_dense(values, col_labels=labels),
        target_col=0,
        pre_periods=n,
    )
    return PanelTrial(
        panel=panel,
        truth=target_latent[n:].copy(),
        weights=weights,
        latent_donors=latent,
    )


def corrupt(x, sigma: float, rho: float, seed) -> MaskedMatrix:
    """Additive N(0, sigma^2) noise followed by Bernoulli(rho) observation.

    ``sigma`` is a standard deviation. With sigma 0 and rho 1 the output
    holds the input bits unchanged, fully observed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise BadShape("corrupt expects a matrix")
    sigma = float(sigma)
    rho = float(rho)
    if not math.isfinite(sigma) or sigma < 0:
        raise BadParam(f"sigma={sigma} must be >= 0")
    if not 0.0 < rho <= 1.0:
        raise BadParam(f"rho={rho} outside (0, 1]")
    seed = child(seed)  # checks the seed also when no stream is drawn
    values = x
    if sigma > 0:
        values = x + sigma * substream(seed, Role.NOISE).standard_normal(x.shape)
    mask = substream(seed, Role.MASK).random(x.shape) < rho if rho < 1.0 else None
    return MaskedMatrix.from_dense(values, mask=mask)


def _check_dims(r, **dims):
    for name, value in {**dims, "r": r}.items():
        if _rank(value, name) < 1:
            raise BadShape(f"{name}={value} must be >= 1")
    for name in ("n", "p", "size"):
        if name in dims and r > dims[name]:
            raise BadShape(f"r={r} exceeds {name}={dims[name]}")
