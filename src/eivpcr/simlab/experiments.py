"""Experiment runners: identification decay, covariate-shift robustness,
and the subspace-inclusion ablation.

Each runner sweeps a configuration grid over a list of seeds, fits on
corrupted train data, and records per-trial metrics. Trials draw from
disjoint counter-based streams keyed by (seed, configuration values) and,
whenever numpy's bundled OpenBLAS is found, run on one BLAS thread. Reports
are then bit-identical regardless of execution order, worker count or the
process's BLAS thread setting. Without that library, trials run on the
process's own BLAS threading, and their last bits may depend on it.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import fmean, pstdev

import numpy as np

from ..core import svd
from ..errors import BadParam
from ..pcr import PredictionConfig, check_subspace_inclusion, fit, predict
from .generators import GeneratorSpec, Shift, TrialData, corrupt, gen_factor_uv, gen_prob_pca, gen_rowspan_violation
from ..metrics import mean_squared_error, rmse, snr_report, snr_test_report
from .streams import Role, child, substream

# grid of n / (r^2 ln p) values swept by the identification experiment
IDENTIFICATION_RATIOS = tuple(float(t) for t in np.geomspace(1.0, 40.0, 8))

IDENTIFICATION_SIGMA2 = 0.2
DEFAULT_FACTOR_RANK = 10

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
    # map() preserves key order, so results are deterministic either way;
    # one BLAS thread per trial keeps workers off each other's cores
    with _single_threaded_blas():
        if threads == 1:
            return [trial_fn(*k) for k in keys]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda k: trial_fn(*k), keys))


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when it cannot be found. Looked up on first use, not at import."""
    import ctypes
    import glob

    libs = os.path.dirname(np.__file__) + ".libs"
    for pattern in ("libscipy_openblas*", "libopenblas*"):
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        return get, put
    return None


# OpenBLAS's thread count is process-wide, so every runner shares one pin
_blas_lock = threading.Lock()
_blas_users = 0     # runners inside _single_threaded_blas
_blas_saved = None  # the count the first of them found


@contextmanager
def _single_threaded_blas():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    Nested and concurrent runners share the pin: the first to enter saves
    the count, the last to leave restores it, also when a trial raises.
    Without the bundled OpenBLAS the body runs unpinned.
    """
    global _blas_users, _blas_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)


def _trial_blas_threads():
    """The BLAS thread count runners' trials run with, or None when unpinned."""
    return None if _openblas() is None else 1


def _resolve_threads(threads):
    if threads is None:
        return 1
    workers = int(threads)
    if workers < 0:
        raise BadParam(f"threads={threads} must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def make_identification_trial(p: int, n: int, r: int, seed) -> TrialData:
    """Assemble one identification trial (no test set).

    Latent covariates come from :func:`gen_prob_pca`; responses are
    y = X beta + eps with standard normal beta and noise variance 0.2 on
    both the responses and the covariates; nothing is masked.
    """
    trial = child(seed, p, n)
    x = gen_prob_pca(n, p, r, trial)
    beta_raw = substream(trial, Role.MODEL).standard_normal(p)
    sigma = math.sqrt(IDENTIFICATION_SIGMA2)
    eps = sigma * substream(trial, Role.RESPONSE_NOISE).standard_normal(n)
    y = x @ beta_raw + eps
    v_r = svd(x).right_vectors[:, :r]
    beta_star = v_r @ (v_r.T @ beta_raw)
    z = corrupt(x, sigma, 1.0, child(trial, _CORRUPT_TRAIN))
    return TrialData(x_train=x, beta_raw=beta_raw, beta_star=beta_star, y=y, z_train=z)


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
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise BadParam("seeds must be nonempty")

    keys = []
    for p in ps:
        r = round(p ** (1.0 / 3.0))
        for ratio in IDENTIFICATION_RATIOS:
            n = max(int(round(ratio * r * r * math.log(p))), r + 1)
            for seed in seeds:
                keys.append((p, r, n, seed))

    def one(p, r, n, seed):
        trial = make_identification_trial(p, n, r, seed)
        model = fit(trial.z_train, trial.y, k=r)
        s_r = svd(trial.x_train).singular_values[r - 1]
        spec = GeneratorSpec(
            kind="prob_pca", n=n, m=0, p=p, r=r,
            noise_sigma=math.sqrt(IDENTIFICATION_SIGMA2), mask_rho=1.0, seed=seed,
        )
        return {
            "config": spec.label(),
            "p": p,
            "r": r,
            "n": n,
            "rescaled_n": n / (r * r * math.log(p)),
            "seed": seed,
            "chosen_k": r,
            "snr": snr_report(s_r, 1.0, n, p),
            "rmse_beta_star": rmse(model.beta_hat, trial.beta_star),
            "rmse_beta_raw": rmse(model.beta_hat, trial.beta_raw),
        }

    records = _run_trials(one, keys, _resolve_threads(threads))
    records = tuple(sorted(records, key=lambda rec: (rec["p"], rec["n"], rec["seed"])))
    aggregates = _aggregate(
        records, ("p", "r", "n", "rescaled_n"), ("rmse_beta_star", "rmse_beta_raw", "snr")
    )
    return ExperimentReport("identification", records, aggregates)


def make_shift_trial(size: int, sigma2: float, seed, r: int = DEFAULT_FACTOR_RANK) -> dict:
    """Assemble one covariate-shift trial: a TrialData per shift.

    All four test designs share the train matrix, the right factors, and
    the test-side noise draw; only the test factor distribution changes.
    """
    n = m = p = int(size)
    sigma = math.sqrt(float(sigma2))
    trial = child(seed, _sigma_key(sigma2), size)
    beta_raw = substream(trial, Role.MODEL).standard_normal(p)
    eps = sigma * substream(trial, Role.RESPONSE_NOISE).standard_normal(n)
    out = {}
    x_train = None
    for shift in Shift:
        x_tr, x_te = gen_factor_uv(n, m, p, trial, shift=shift, r=r)
        if x_train is None:
            x_train = x_tr
            v_r = svd(x_train).right_vectors[:, :r]
            beta_star = v_r @ (v_r.T @ beta_raw)
            y = x_train @ beta_raw + eps
            z_train = corrupt(x_train, sigma, 1.0, child(trial, _CORRUPT_TRAIN))
        out[shift] = TrialData(
            x_train=x_train,
            beta_raw=beta_raw,
            beta_star=beta_star,
            y=y,
            z_train=z_train,
            x_test=x_te,
            z_test=corrupt(x_te, sigma, 1.0, child(trial, _CORRUPT_TEST)),
            theta_test=x_te @ beta_raw,
        )
    return out


def run_experiment_shift(noise_grid, seeds, size, threads=None, r=DEFAULT_FACTOR_RANK) -> ExperimentReport:
    """Fit once per trial and predict on four shifted test designs.

    Records one row per (noise variance, seed) holding the test MSE for
    every shift, scored against the true expected responses.
    """
    size = int(size)
    if size < 50:
        raise BadParam(f"size={size} must be >= 50")
    noise_grid = _check_noise_grid(noise_grid)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise BadParam("seeds must be nonempty")

    def one(sigma2, seed):
        trials = make_shift_trial(size, sigma2, seed, r=r)
        base = trials[Shift.N1]
        model = fit(base.z_train, base.y, k=r)
        spec = GeneratorSpec(
            kind="factor_shift", n=size, m=size, p=size, r=r,
            noise_sigma=math.sqrt(sigma2), mask_rho=1.0, seed=seed,
        )
        rec = {
            "config": spec.label(),
            "sigma2": sigma2,
            "size": size,
            "r": r,
            "seed": seed,
            "chosen_k": r,
            "snr": snr_report(svd(base.x_train).singular_values[r - 1], 1.0, size, size),
        }
        for shift, trial in trials.items():
            y_hat = predict(model, trial.z_test, PredictionConfig(ell=r))
            rec[f"mse_{shift.name}"] = mean_squared_error(y_hat, trial.theta_test)
            rec[f"snr_test_{shift.name}"] = snr_test_report(
                svd(trial.x_test).singular_values[r - 1], 1.0, size, size
            )
        return rec

    keys = [(sigma2, seed) for sigma2 in noise_grid for seed in seeds]
    records = _run_trials(one, keys, _resolve_threads(threads))
    records = tuple(sorted(records, key=lambda rec: (rec["sigma2"], rec["seed"])))
    mse_cols = tuple(f"mse_{s.name}" for s in Shift)

    def ratio(agg):
        means = [agg[f"{c}_mean"] for c in mse_cols]
        return {"mse_max_over_min": max(means) / min(means) if min(means) > 0 else math.inf}

    aggregates = _aggregate(records, ("sigma2", "size"), mse_cols + ("snr",), extra=ratio)
    return ExperimentReport("shift", records, aggregates)


def make_subspace_trial(size: int, sigma2: float, seed, r: int = DEFAULT_FACTOR_RANK):
    """Assemble the inclusion-preserving and inclusion-violating trials.

    Both test designs share the train matrix and the test-side noise draw.

    Returns
    -------
    (trial_ok, trial_bad)
    """
    n = m = p = int(size)
    sigma = math.sqrt(float(sigma2))
    trial = child(seed, _sigma_key(sigma2), size)
    x_train, x_ok, x_bad = gen_rowspan_violation(n, m, p, trial, r=r)
    beta_raw = substream(trial, Role.MODEL).standard_normal(p)
    eps = sigma * substream(trial, Role.RESPONSE_NOISE).standard_normal(n)
    y = x_train @ beta_raw + eps
    v_r = svd(x_train).right_vectors[:, :r]
    beta_star = v_r @ (v_r.T @ beta_raw)
    z_train = corrupt(x_train, sigma, 1.0, child(trial, _CORRUPT_TRAIN))
    out = []
    for x_te in (x_ok, x_bad):
        out.append(
            TrialData(
                x_train=x_train,
                beta_raw=beta_raw,
                beta_star=beta_star,
                y=y,
                z_train=z_train,
                x_test=x_te,
                z_test=corrupt(x_te, sigma, 1.0, child(trial, _CORRUPT_TEST)),
                theta_test=x_te @ beta_raw,
            )
        )
    return tuple(out)


def run_experiment_subspace(noise_grid, seeds, size, threads=None, r=DEFAULT_FACTOR_RANK) -> ExperimentReport:
    """Compare test MSE between a rowspace-preserving and a rowspace-
    violating test design, per noise level."""
    size = int(size)
    if size < 50:
        raise BadParam(f"size={size} must be >= 50")
    noise_grid = _check_noise_grid(noise_grid)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise BadParam("seeds must be nonempty")

    def one(sigma2, seed):
        trial_ok, trial_bad = make_subspace_trial(size, sigma2, seed, r=r)
        model = fit(trial_ok.z_train, trial_ok.y, k=r)
        cfg = PredictionConfig(ell=r)
        mse_ok = mean_squared_error(predict(model, trial_ok.z_test, cfg), trial_ok.theta_test)
        mse_bad = mean_squared_error(predict(model, trial_bad.z_test, cfg), trial_bad.theta_test)
        spec = GeneratorSpec(
            kind="factor_rowspan_violation", n=size, m=size, p=size, r=r,
            noise_sigma=math.sqrt(sigma2), mask_rho=1.0, seed=seed,
        )
        return {
            "config": spec.label(),
            "sigma2": sigma2,
            "size": size,
            "r": r,
            "seed": seed,
            "chosen_k": r,
            "snr": snr_report(svd(trial_ok.x_train).singular_values[r - 1], 1.0, size, size),
            "mse_ok": mse_ok,
            "mse_bad": mse_bad,
            "mse_ratio": mse_bad / mse_ok if mse_ok > 0 else math.inf,
            "leakage_ok": check_subspace_inclusion(trial_ok.x_train, trial_ok.x_test, 1e-8).leakage,
            "leakage_bad": check_subspace_inclusion(trial_bad.x_train, trial_bad.x_test, 1e-8).leakage,
        }

    keys = [(sigma2, seed) for sigma2 in noise_grid for seed in seeds]
    records = _run_trials(one, keys, _resolve_threads(threads))
    records = tuple(sorted(records, key=lambda rec: (rec["sigma2"], rec["seed"])))

    def ratio(agg):
        if agg["mse_ok_mean"] > 0:
            return {"mse_ratio_of_means": agg["mse_bad_mean"] / agg["mse_ok_mean"]}
        return {"mse_ratio_of_means": math.inf}

    aggregates = _aggregate(
        records, ("sigma2", "size"), ("mse_ok", "mse_bad", "leakage_ok", "leakage_bad"),
        extra=ratio,
    )
    return ExperimentReport("subspace", records, aggregates)


def _sigma_key(sigma2: float) -> int:
    key = int(round(float(sigma2) * 1_000_000))
    return key


def _check_noise_grid(noise_grid):
    grid = [float(v) for v in noise_grid]
    if not grid:
        raise BadParam("noise grid must be nonempty")
    if any(not math.isfinite(v) or v < 0 for v in grid):
        raise BadParam("noise variances must be finite and >= 0")
    return grid
