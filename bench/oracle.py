"""Dense-numpy reference of the estimator, and checks of CLI artifacts
against it.

The reference re-derives every artifact from the in-memory inputs with
plain numpy, independently of ``eivpcr``'s own code path (no sign
convention, no masked-matrix types). Agreement is required within the
tolerances below; both sides run the same LAPACK routine, so honest
disagreement is at the 1e-13 level.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# captured at import, before a traced run patches numpy.linalg.svd, so that
# reference work never shows up in the trace
_svd = np.linalg.svd

# ||artifact - reference||_2 <= VECTOR_RTOL * ||reference||_2 for beta_hat,
# predictions and trajectories
VECTOR_RTOL = 1e-8
# |s_artifact - s_reference| <= SPECTRUM_RTOL * s_reference[0], elementwise
SPECTRUM_RTOL = 1e-10
# |rmse_artifact - rmse_reference| <= SCALAR_RTOL * rmse_reference
SCALAR_RTOL = 1e-8

# the estimator's own constants (eivpcr.pcr / eivpcr.rank_selection)
_SPECTRUM_FLOOR = 1e-12
_GAP_EPS = 1e-12


class Mismatch(Exception):
    """An artifact disagrees with the reference."""


def _rescaled(z: np.ndarray):
    """Zero-fill NaN cells and divide by the observed fraction."""
    observed = ~np.isnan(z)
    rho = int(np.count_nonzero(observed)) / z.size
    return np.where(observed, z, 0.0) / rho, rho


def _largest_gap(s: np.ndarray, k_max: int) -> int:
    ratios = s[:-1] / (s[1:] + _GAP_EPS * s[0])
    return int(np.argmax(ratios[:k_max])) + 1


def _fit(z: np.ndarray, y: np.ndarray, k):
    """Rank-k pseudo-inverse solution on the rescaled design. ``k`` is an
    int or a callable choosing it from the spectrum."""
    a, rho = _rescaled(z)
    u, s, vt = _svd(a, full_matrices=False)
    if callable(k):
        k = k(s)
    beta = vt[:k].T @ ((u[:, :k].T @ y) / s[:k])
    return beta, rho, s, k


def _denoised_apply(z_test: np.ndarray, beta: np.ndarray, ell: int) -> np.ndarray:
    """Rank-ell denoised test design times beta; ranks with numerically
    zero singular values are dropped."""
    a, _ = _rescaled(z_test)
    u, s, vt = _svd(a, full_matrices=False)
    ell = min(ell, int(np.count_nonzero(s > _SPECTRUM_FLOOR * s[0])))
    return u[:, :ell] @ (s[:ell] * (vt[:ell] @ beta))


def _close(name: str, got, want, rtol: float = VECTOR_RTOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape}, reference {want.shape}")
    err = float(np.linalg.norm(got - want))
    scale = float(np.linalg.norm(want))
    if not err <= rtol * scale:
        raise Mismatch(f"{name}: relative error {err / scale:.3e} > {rtol:g}")


def read_table(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Reference:
    """Reference artifacts of the four CLI commands for one set of inputs."""

    def __init__(self, design, panel: np.ndarray, pre: int):
        n, p = design.z.shape
        # cmd_fit's 'auto': largest gap among the top half of the spectrum
        half = lambda s: _largest_gap(s, min(max(1, min(n, p) // 2), s.size - 1))
        self.beta, self.rho, self.s, self.k_fit = _fit(design.z, design.y, half)
        raw = _denoised_apply(design.z_test, self.beta, self.k_fit)
        self.y_hat = np.clip(raw, -design.bound, design.bound)
        self.clamped = np.abs(raw) > design.bound
        # near-bound rows may flip within tolerance; their flag is not checked
        self.clamp_ambiguous = np.abs(np.abs(raw) - design.bound) <= VECTOR_RTOL * design.bound

        donors = panel[:, 1:]
        # fit_rsc's 'auto': largest gap over [1, min(n, p) - 1]
        full = lambda s: _largest_gap(s, min(pre, donors.shape[1]) - 1)
        beta_sc, _, _, self.k_sc = _fit(donors[:pre], panel[:pre, 0], full)
        self.trajectory = _denoised_apply(donors[pre:], beta_sc, self.k_sc)
        self.pre = pre
        self.periods = panel.shape[0]

    def check_model(self, path: Path) -> None:
        doc = json.loads(Path(path).read_text())
        if doc["k"] != self.k_fit:
            raise Mismatch(f"model k={doc['k']}, reference {self.k_fit}")
        if doc["rho_hat"] != self.rho:
            raise Mismatch(f"model rho_hat={doc['rho_hat']}, reference {self.rho}")
        _close("beta_hat", doc["beta_hat"], self.beta)
        _close("singular_values", doc["singular_values"], self.s[: self.k_fit])

    def check_predictions(self, path: Path) -> None:
        rows = read_table(path)
        if [int(r["index"]) for r in rows] != list(range(self.y_hat.size)):
            raise Mismatch("pred.csv: row indices are not 0..m-1")
        _close("y_hat", [float(r["y_hat"]) for r in rows], self.y_hat)
        clamped = np.array([r["clamped"] == "1" for r in rows])
        wrong = (clamped != self.clamped) & ~self.clamp_ambiguous
        if wrong.any():
            raise Mismatch(f"pred.csv: {int(wrong.sum())} clamp flags disagree")

    def check_spectrum(self, path: Path) -> None:
        rows = read_table(path)
        got = np.array([float(r["singular_value"]) for r in rows])
        if got.shape != self.s.shape:
            raise Mismatch(f"spectrum.csv: {got.size} values, reference {self.s.size}")
        err = float(np.max(np.abs(got - self.s)))
        if not err <= SPECTRUM_RTOL * self.s[0]:
            raise Mismatch(f"spectrum.csv: max error {err:.3e} > {SPECTRUM_RTOL:g} * s_1")

    def check_trajectory(self, path: Path) -> None:
        rows = read_table(path)
        if [int(r["time"]) for r in rows] != list(range(self.pre, self.periods)):
            raise Mismatch("trajectory.csv: times are not the post periods")
        _close("trajectory", [float(r["estimate"]) for r in rows], self.trajectory)


def check_identification(out: Path, ps, master: int, seeds: int, pick: int) -> None:
    """Check the identification report; for each p, rebuild one trial (seed
    ``master``, an n chosen by ``pick``) with the public
    ``make_identification_trial`` and recompute ``rmse_beta_star``."""
    from eivpcr.simlab import make_identification_trial

    rows = read_table(out / "trials.csv")
    expected = len(ps) * len(identification_ratios()) * seeds
    if len(rows) != expected:
        raise Mismatch(f"trials.csv: {len(rows)} rows, expected {expected}")
    doc = json.loads((out / "aggregates.json").read_text())
    if doc.get("name") != "identification" or len(doc["aggregates"]) != expected // seeds:
        raise Mismatch("aggregates.json: wrong name or configuration count")
    for p in ps:
        mine = [r for r in rows if int(r["p"]) == p and int(r["seed"]) == master]
        rec = sorted(mine, key=lambda r: int(r["n"]))[pick % len(mine)]
        n, r = int(rec["n"]), int(rec["r"])
        trial = make_identification_trial(p, n, r, master)
        z = np.where(trial.z_train.mask, trial.z_train.values, np.nan)
        beta, _, _, _ = _fit(z, trial.y, r)
        want = math.sqrt(float(np.mean((beta - trial.beta_star) ** 2)))
        got = float(rec["rmse_beta_star"])
        if not abs(got - want) <= SCALAR_RTOL * want:
            raise Mismatch(f"rmse_beta_star at p={p}, n={n}: {got!r}, reference {want!r}")


def identification_ratios():
    """The n grid of the identification experiment (the program's own)."""
    from eivpcr.simlab.experiments import IDENTIFICATION_RATIOS

    return IDENTIFICATION_RATIOS
