"""Experiment runners: identification decay, covariate-shift robustness,
and the subspace-inclusion ablation.

Each runner sweeps a configuration grid over a list of seeds, fits on
corrupted train data, and records per-trial metrics. Trials draw from
disjoint counter-based streams keyed by (seed, configuration values) and,
whenever numpy's bundled OpenBLAS is found, run on one BLAS thread. The
runners take that pin themselves, so library callers get it too; it is the
same process-wide pin the CLI holds around every command. Reports are then
bit-identical regardless of execution order, worker count or the process's
BLAS thread setting. Without that library, trials run on the process's own
BLAS threading, and their last bits may depend on it.
Every trial builds its latent ``x_train = left @ right.T`` from the n x r
and p x r factors its ``gen_*`` generator returns (``X_r`` and ``Q^T`` for
identification, ``U`` and ``V`` for shift and subspace) and takes its rank-r
thin SVD from them through the r x r core, kept as
``TrialData.train_factors``; the n x p latent is never factorized. Those
factors give beta_star, shift and subspace ``snr`` and the ``leakage_*``
columns. Identification's ``snr`` takes a values-only SVD of the r x r
matrix ``U_r^T x_train V_r``, and shift's ``snr_test_*`` one of each test
latent. The error columns come from the fit and predict SVDs of the
corrupted designs. Those take their small-side QR from LAPACK's ``dgeqrf``
outside the GIL (:func:`eivpcr.core._qr_r`), so the thread-pool workers
overlap in it; only the ``_svd_of_product`` QRs of the generating factors
stay in ``numpy.linalg.qr``.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import fmean, pstdev

import numpy as np

from .._blas import _single_threaded_blas
from ..core import _singular_values, _svd_of_product
from ..errors import BadParam
from ..pcr import PredictionConfig, _inclusion_leakage, fit, predict
from .generators import (
    DEFAULT_FACTOR_RANK, Shift, TrialData, corrupt, gen_factor_uv, gen_prob_pca,
    gen_rowspan_violation,
)
from ..metrics import mean_squared_error, rmse, snr_report
from .streams import Role, child, substream

# grid of n / (r^2 ln p) values swept by the identification experiment
IDENTIFICATION_RATIOS = tuple(float(t) for t in np.geomspace(1.0, 40.0, 8))

IDENTIFICATION_SIGMA2 = 0.2

# sub-keys distinguishing the corruption streams of one trial
_CORRUPT_TRAIN = 100
_CORRUPT_TEST = 101


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial records plus mean/std aggregates over seeds.

    Records are plain dicts sharing a column set per experiment; they are
    sorted by configuration and seed, so identical runs compare equal.
    """

    name: str
    records: tuple
    aggregates: tuple


def _aggregate(records, group_cols, value_cols, extra=None):
    groups: dict[tuple, list] = {}
    for rec in records:
        groups.setdefault(tuple(rec[c] for c in group_cols), []).append(rec)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        agg = dict(zip(group_cols, key))
        agg["trials"] = len(rows)
        for col in value_cols:
            vals = [r[col] for r in rows]
            agg[f"{col}_mean"] = fmean(vals)
            agg[f"{col}_std"] = pstdev(vals)
        if extra is not None:
            agg.update(extra(agg))
        out.append(agg)
    return tuple(out)


def _run_trials(trial_fn, keys, threads):
    # map() keeps key order, so results do not depend on the worker count;
    # one BLAS thread per trial keeps workers off each other's cores
    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda k: trial_fn(*k), keys))


def _resolve_threads(threads):
    if threads is None:
        return 1
    workers = int(threads)
    if workers < 0:
        raise BadParam(f"threads={threads} must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _trial(left, right, x_tests, sigma2, trial):
    """The train side of one trial, shared by all of its test designs.

    Forms the latent ``x_train = left @ right.T`` from its n x r and p x r
    generating factors and takes its rank-r thin SVD from them
    (``train_factors``). Draws beta and the response noise from ``trial``'s
    streams, projects beta onto the r right singular vectors (beta_star)
    and corrupts the train design with noise variance ``sigma2``.
    Returns one TrialData per matrix in ``x_tests``, sharing
    ``train_factors`` and the test-side noise draw, or a bare TrialData when
    ``x_tests`` is None.
    """
    x_train = left @ right.T
    n, p = x_train.shape
    sigma = math.sqrt(float(sigma2))
    beta_raw = substream(trial, Role.MODEL).standard_normal(p)
    eps = sigma * substream(trial, Role.RESPONSE_NOISE).standard_normal(n)
    factors = _svd_of_product(left, right)
    v_r = factors.right_vectors
    train = dict(
        x_train=x_train,
        beta_raw=beta_raw,
        beta_star=v_r @ (v_r.T @ beta_raw),
        y=x_train @ beta_raw + eps,
        z_train=corrupt(x_train, sigma, 1.0, child(trial, _CORRUPT_TRAIN)),
        train_factors=factors,
    )
    if x_tests is None:
        return TrialData(**train)
    return [
        TrialData(
            **train,
            x_test=x_te,
            z_test=corrupt(x_te, sigma, 1.0, child(trial, _CORRUPT_TEST)),
            theta_test=x_te @ beta_raw,
        )
        for x_te in x_tests
    ]


def _run(name, keys, one, threads, sort_cols, group_cols, value_cols, extra=None) -> ExperimentReport:
    """Run ``one(*key)`` for every key, sort the records by ``sort_cols``
    and aggregate ``value_cols`` over the seeds of each ``group_cols`` group."""
    # looked up by global name on every call, so a rebound _run_trials is used
    records = _run_trials(one, keys, _resolve_threads(threads))
    records = tuple(sorted(records, key=lambda rec: tuple(rec[c] for c in sort_cols)))
    return ExperimentReport(name, records, _aggregate(records, group_cols, value_cols, extra))


def _config(kind, n, m, p, r, sigma2) -> str:
    """A record's configuration label, e.g. prob_pca/n30/m0/p27/r3/sig0.447214/rho1."""
    return f"{kind}/n{n}/m{m}/p{p}/r{r}/sig{math.sqrt(sigma2):g}/rho1"


def make_identification_trial(p: int, n: int, r: int, seed) -> TrialData:
    """Assemble one identification trial (no test set).

    Latent covariates are the product of the factors :func:`gen_prob_pca`
    returns: ``x_train = X_r Q``. ``train_factors`` is the rank-r thin SVD
    of that product, taken from X_r and Q through their r x r core (see
    :class:`TrialData`). Responses are y = X beta + eps with standard
    normal beta and noise variance 0.2 on both the responses and the
    covariates; nothing is masked.
    """
    trial = child(seed, p, n)
    x_r, q = gen_prob_pca(n, p, r, trial)
    return _trial(x_r, q.T, None, IDENTIFICATION_SIGMA2, trial)


def run_experiment_identification(ps, seeds, threads=None) -> ExperimentReport:
    """Sweep sample size for each covariate dimension p and record the
    error of the fitted model against the minimum-norm truth and the raw
    coefficient draw, both scaled by 1/sqrt(p).

    The rank is r = round(p^(1/3)) and the n grid places
    n / (r^2 ln p) at eight log-spaced points in [1, 40].
    """
    ps = [int(p) for p in ps]
    if not ps or any(p < 8 for p in ps):
        raise BadParam("ps must be a nonempty list of dimensions >= 8")
    _check_distinct("dimension", ps)
    seeds = _check_seeds(seeds)

    # largest p and n first, so no worker is left alone with a large trial
    # at the end; the records are sorted afterwards
    keys = []
    for p in sorted(ps, reverse=True):
        r = round(p ** (1.0 / 3.0))
        for ratio in reversed(IDENTIFICATION_RATIOS):
            n = max(int(round(ratio * r * r * math.log(p))), r + 1)
            keys.extend((p, r, n, seed) for seed in seeds)

    def one(p, r, n, seed):
        trial = make_identification_trial(p, n, r, seed)
        model = fit(trial.z_train, trial.y, k=r)
        u_r, v_r = trial.train_factors.left_vectors, trial.train_factors.right_vectors
        # values-only, on an r x r matrix with x_train's nonzero spectrum;
        # reading train_factors.singular_values instead would drop this
        # call, which the benchmark's per-trial SVD count still pins
        core = u_r.T @ trial.x_train @ v_r
        return {
            "config": _config("prob_pca", n, 0, p, r, IDENTIFICATION_SIGMA2),
            "p": p,
            "r": r,
            "n": n,
            "rescaled_n": n / (r * r * math.log(p)),
            "seed": seed,
            "chosen_k": r,
            "snr": snr_report(_singular_values(core)[r - 1], 1.0, n, p),
            "rmse_beta_star": rmse(model.beta_hat, trial.beta_star),
            "rmse_beta_raw": rmse(model.beta_hat, trial.beta_raw),
        }

    return _run(
        "identification", keys, one, threads, ("p", "n", "seed"),
        ("p", "r", "n", "rescaled_n"), ("rmse_beta_star", "rmse_beta_raw", "snr"),
    )


def make_shift_trial(size: int, sigma2: float, seed) -> dict:
    """Assemble one covariate-shift trial: a TrialData per shift.

    Latents are products of the factors :func:`gen_factor_uv` returns;
    ``train_factors`` come from its U and V (see :class:`TrialData`). All
    four test designs share the train matrix, its factors, and the
    test-side noise draw; only the test factor distribution changes.
    """
    n = int(size)
    trial = child(seed, _sigma_key(sigma2), size)
    u, v, u_tests = gen_factor_uv(n, n, n, trial)
    x_tests = [u_test @ v.T for u_test in u_tests.values()]
    return dict(zip(u_tests, _trial(u, v, x_tests, sigma2, trial)))


def run_experiment_shift(noise_grid, seeds, size, threads=None) -> ExperimentReport:
    """Fit once per trial and predict on four shifted test designs.

    Records one row per (noise variance, seed) holding the test MSE for
    every shift, scored against the true expected responses.
    """
    size, keys = _noise_sweep(noise_grid, seeds, size)
    r = DEFAULT_FACTOR_RANK

    def one(sigma2, seed):
        trials = make_shift_trial(size, sigma2, seed)
        base = trials[Shift.N1]
        model = fit(base.z_train, base.y, k=r)
        rec = _noise_record("factor_shift", size, r, sigma2, seed, base.train_factors)
        for shift, trial in trials.items():
            y_hat = predict(model, trial.z_test, PredictionConfig(ell=r))
            rec[f"mse_{shift.name}"] = mean_squared_error(y_hat, trial.theta_test)
            rec[f"snr_test_{shift.name}"] = _snr(trial.x_test, r)
        return rec

    mse_cols = tuple(f"mse_{s.name}" for s in Shift)

    def ratio(agg):
        means = [agg[f"{c}_mean"] for c in mse_cols]
        return {"mse_max_over_min": max(means) / min(means) if min(means) > 0 else math.inf}

    return _run(
        "shift", keys, one, threads, ("sigma2", "seed"),
        ("sigma2", "size"), mse_cols + ("snr",), extra=ratio,
    )


def make_subspace_trial(size: int, sigma2: float, seed):
    """Assemble ``(trial_ok, trial_bad)``, the inclusion-preserving and
    inclusion-violating trials. Latents are products of the factors
    :func:`gen_rowspan_violation` returns; ``train_factors`` come from its
    U and V (see :class:`TrialData`). Both test designs share the train
    matrix, its factors and the test-side noise draw.
    """
    n = int(size)
    trial = child(seed, _sigma_key(sigma2), size)
    u, v, u_ok, v_bad = gen_rowspan_violation(n, n, n, trial)
    return tuple(_trial(u, v, (u_ok @ v.T, u @ v_bad.T), sigma2, trial))


def run_experiment_subspace(noise_grid, seeds, size, threads=None) -> ExperimentReport:
    """Compare test MSE between a rowspace-preserving and a rowspace-
    violating test design, per noise level."""
    size, keys = _noise_sweep(noise_grid, seeds, size)
    r = DEFAULT_FACTOR_RANK

    def one(sigma2, seed):
        trial_ok, trial_bad = make_subspace_trial(size, sigma2, seed)
        model = fit(trial_ok.z_train, trial_ok.y, k=r)
        cfg = PredictionConfig(ell=r)
        mse_ok = mean_squared_error(predict(model, trial_ok.z_test, cfg), trial_ok.theta_test)
        mse_bad = mean_squared_error(predict(model, trial_bad.z_test, cfg), trial_bad.theta_test)
        rec = _noise_record("factor_rowspan_violation", size, r, sigma2, seed, trial_ok.train_factors)
        rec.update(
            mse_ok=mse_ok,
            mse_bad=mse_bad,
            mse_ratio=mse_bad / mse_ok if mse_ok > 0 else math.inf,
            leakage_ok=_inclusion_leakage(trial_ok.train_factors, trial_ok.x_test),
            leakage_bad=_inclusion_leakage(trial_bad.train_factors, trial_bad.x_test),
        )
        return rec

    def ratio(agg):
        ok = agg["mse_ok_mean"]
        return {"mse_ratio_of_means": agg["mse_bad_mean"] / ok if ok > 0 else math.inf}

    return _run(
        "subspace", keys, one, threads, ("sigma2", "seed"),
        ("sigma2", "size"), ("mse_ok", "mse_bad", "leakage_ok", "leakage_bad"), extra=ratio,
    )


def _snr(x, r) -> float:
    return snr_report(_singular_values(x)[r - 1], 1.0, *x.shape)


def _noise_record(kind, size, r, sigma2, seed, train_factors) -> dict:
    """The columns a shift or subspace record starts with; ``snr`` reads
    the trial's rank-r train factors."""
    return {
        "config": _config(kind, size, size, size, r, sigma2),
        "sigma2": sigma2,
        "size": size,
        "r": r,
        "seed": seed,
        "chosen_k": r,
        "snr": snr_report(train_factors.singular_values[r - 1], 1.0, size, size),
    }


def _noise_sweep(noise_grid, seeds, size):
    """Validated size and the (noise variance, seed) keys of a shift or
    subspace sweep."""
    size = int(size)
    if size < 50:
        raise BadParam(f"size={size} must be >= 50")
    # + 0.0 turns -0.0 into 0.0: both draw the streams of key 0, so they
    # must carry one label and one sigma2 value
    grid = [float(v) + 0.0 for v in noise_grid]
    if not grid:
        raise BadParam("noise grid must be nonempty")
    if any(not math.isfinite(v) or v < 0 for v in grid):
        raise BadParam("noise variances must be finite and >= 0")
    # variances are keyed at 1e-6 resolution and labelled with 6 significant
    # digits of the sd; equal keys would share random streams, equal labels
    # would merge two configurations' rows in trials.csv
    _check_distinct("noise variance", grid, _sigma_key)
    _check_distinct("noise variance", grid, lambda v: _config("", size, size, size, 0, v))
    seeds = _check_seeds(seeds)
    return size, [(sigma2, seed) for sigma2 in grid for seed in seeds]


def _check_seeds(seeds):
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise BadParam("seeds must be nonempty")
    if min(seeds) < 0:
        raise BadParam(f"seeds must be >= 0, got {min(seeds)}")
    _check_distinct("seed", seeds)
    return seeds


def _check_distinct(what, values, key=None):
    """Reject a grid in which two values (or their keys) are equal: their
    trials would draw the same streams and count twice in the aggregates."""
    seen = {}
    for v in values:
        k = v if key is None else key(v)
        if k in seen:
            raise BadParam(f"{what} {v!r} repeats {seen[k]!r}")
        seen[k] = v


def _sigma_key(sigma2: float) -> int:
    return int(round(float(sigma2) * 1_000_000))
