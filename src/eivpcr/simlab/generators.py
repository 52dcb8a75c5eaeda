"""Seeded generators for the simulation studies.

Each generator draws latent (noiseless) covariates; ``corrupt`` adds
measurement noise and an observation mask as a separate, independently
seeded step. All functions are pure in (parameters, seed): calling twice
yields bit-identical arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..core import MaskedMatrix, SvdFactors
from ..errors import BadParam, BadShape
from ..pcr import _rank
from ..synthetic_control import PanelDataset
from .streams import Role, child, substream


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


@dataclass(frozen=True)
class TrialData:
    """One assembled trial: latent matrices, model, responses, observations.

    ``train_factors`` is the trial's one factorization of ``x_train`` with
    vectors: ``beta_star`` projects ``beta_raw`` onto its top-r right vectors
    (the minimum-norm model the estimator can identify) and the subspace
    leakage columns read it. Shift and subspace trials take ``svd(x_train)``
    (min(n, p) triplets). An identification trial takes the rank-r thin SVD
    from the generating factors of ``x_train = X_r Q`` (r triplets), which
    matches ``svd(x_train)``'s top r to rounding. ``theta_test = x_test @
    beta_raw`` holds the expected test responses. Test-side fields are None
    for identification-only trials.
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


def gen_prob_pca(n: int, p: int, r: int, seed) -> np.ndarray:
    """Rank-r latent covariates X = X_r Q.

    X_r is n x r with standard normal entries; Q is r x p with entries
    drawn uniformly from {-1/sqrt(r), +1/sqrt(r)}.
    """
    x_r, q = _prob_pca_factors(n, p, r, seed)
    return x_r @ q


def _prob_pca_factors(n: int, p: int, r: int, seed):
    """The generating factors ``(X_r, Q)`` of :func:`gen_prob_pca`'s X."""
    _check_dims(n=n, p=p, r=r)
    rng = substream(seed, Role.LATENT)
    x_r = rng.standard_normal((n, r))
    q = rng.choice([-1.0, 1.0], size=(r, p)) / math.sqrt(r)
    return x_r, q


def gen_factor_uv(n: int, m: int, p: int, seed, r: int = 10):
    """One train latent and a test latent per shift, sharing right factors.

    X = U V^T with U (n x r) and V (p x r) standard normal, drawn once. Each
    test matrix X' = U' V^T reuses V, with U' (m x r) drawn per shift from
    its own ``(seed, Role.LATENT_TEST, shift)`` stream, so every test
    rowspace is contained in the train rowspace by construction. A shift
    trial makes one call and factors its one ``x_train`` once with vectors.

    Returns
    -------
    (x_train, {shift: x_test for every Shift})
    """
    _check_dims(n=n, m=m, p=p, r=r)
    rng = substream(seed, Role.LATENT)
    u = rng.standard_normal((n, r))
    v = rng.standard_normal((p, r))
    rngs = {shift: substream(seed, Role.LATENT_TEST, int(shift)) for shift in Shift}
    u_tests = {
        Shift.N1: rngs[Shift.N1].standard_normal((m, r)),
        Shift.N2: math.sqrt(5.0) * rngs[Shift.N2].standard_normal((m, r)),
        Shift.U1: rngs[Shift.U1].uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(m, r)),
        Shift.U2: rngs[Shift.U2].uniform(-math.sqrt(15.0), math.sqrt(15.0), size=(m, r)),
    }
    return u @ v.T, {shift: u_test @ v.T for shift, u_test in u_tests.items()}


def gen_rowspan_violation(n: int, m: int, p: int, seed, r: int = 10):
    """Train matrix plus one inclusion-preserving and one violating test set.

    x_test_ok = U' V^T shares the train right factors (U' normal with
    variance 5, a distribution shift). x_test_bad = U V'^T reuses the train
    left factors with fresh standard normal right factors: its marginal
    distribution matches the train matrix, but its rowspace is new. The
    shared-U construction requires n == m.

    Returns
    -------
    (x_train, x_test_ok, x_test_bad)
    """
    _check_dims(n=n, m=m, p=p, r=r)
    if n != m:
        raise BadShape(f"shared left factors require n == m, got {n} != {m}")
    rng = substream(seed, Role.LATENT)
    u = rng.standard_normal((n, r))
    v = rng.standard_normal((p, r))
    u_ok = math.sqrt(5.0) * substream(seed, Role.LATENT_TEST).standard_normal((m, r))
    v_bad = substream(seed, Role.LATENT_TEST_BAD).standard_normal((p, r))
    return u @ v.T, u_ok @ v.T, u @ v_bad.T


@dataclass(frozen=True)
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
    _check_dims(n=n, m=m, p=p, r=r)
    if m < 1:
        raise BadShape("need at least one post period")
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
    if rho < 1.0:
        mask = substream(seed, Role.MASK).random(x.shape) < rho
    else:
        mask = np.ones(x.shape, dtype=bool)
    return MaskedMatrix.from_dense(values, mask=mask)


def _check_dims(**dims):
    for name, value in dims.items():
        if _rank(value, name) < 1:
            raise BadShape(f"{name}={value} must be >= 1")
    if "r" in dims:
        r = int(dims["r"])
        upper = min(int(dims[k]) for k in ("n", "p") if k in dims)
        if r > upper:
            raise BadShape(f"r={r} exceeds min(n, p)={upper}")
