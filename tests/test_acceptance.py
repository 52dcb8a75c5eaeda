"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist. Thresholds are fixed up front; they are contracts, not knobs.
"""
import json
import time

import numpy as np
import pytest

from eivpcr import (
    MaskedMatrix,
    PanelDataset,
    counterfactual_error,
    estimate_rho,
    fit,
    fit_rsc,
    mean_squared_error,
    rescale,
    select_rank_largest_gap,
    spectral_norm,
    svd,
    truncate_rank,
)
from eivpcr.cli import main
from eivpcr.simlab import (
    corrupt,
    run_experiment_identification,
    run_experiment_shift,
    run_experiment_subspace,
)

# -- pinned thresholds ------------------------------------------------------
_EXACT_TOL = 1e-8            # noiseless recovery, per instance
_EXACT_BUDGET_S = 10.0       # wall clock for the 100-instance sweep
_PINV_RTOL = 1e-9            # agreement with the pseudoinverse oracle
_DECAY_FACTOR = 0.5          # last grid point vs first, per dimension
_COLLAPSE_BAND = 0.35        # relative spread of the error curves across p
_PLATEAU_SPREAD = 0.20       # (max-min)/mean of the unprojected error
_SHIFT_RATIO = 2.0           # max/min mean error across test designs
_SUBSPACE_RATIO = 50.0       # bad-design vs good-design error, size 300
_SUBSPACE_RATIO_LARGE = 100.0  # same at size 1000
_RHO_SIGMAS = 3.0            # binomial standard errors for the mask rate
_RHO_MIN_HITS = 48           # out of 50 seeds per rate
_WEYL_SLACK = 1e-9
_RANK_HIT_RATES = {0.2: 95, 0.4: 95, 0.8: 80}   # out of 100 seeds
_TRAJECTORY_TOL = 1e-8


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def test_noiseless_recovery_is_exact(capsys):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(6, 30, size=2)
        x = rng.standard_normal((n, 2)) @ rng.standard_normal((2, p))
        beta_raw = rng.standard_normal(p)
        y = x @ beta_raw
        model = fit(MaskedMatrix.from_dense(x, np.ones((n, p), bool)), y, k=2)
        v = svd(x).right_vectors[:, :2]
        beta_star = v @ (v.T @ beta_raw)
        worst = max(worst, float(np.linalg.norm(model.beta_hat - beta_star)))
    elapsed = time.perf_counter() - start
    ok = worst <= _EXACT_TOL and elapsed < _EXACT_BUDGET_S
    _report(capsys, ok, "criterion 1 — noiseless rank-2 recovery",
            f"worst error {worst:.3e} <= {_EXACT_TOL}, {elapsed:.2f}s < {_EXACT_BUDGET_S}s")


def test_estimator_matches_pseudoinverse_oracle(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 40))
        p = int(rng.integers(5, 40))
        values = rng.standard_normal((n, p))
        mask = rng.random((n, p)) < 0.85
        mask[rng.integers(n), :] = True        # keep every column estimable
        z = MaskedMatrix.from_dense(values, mask)
        y = rng.standard_normal(n)
        k = int(rng.integers(1, min(n, p)))
        model = fit(z, y, k=k)
        truncated = truncate_rank(svd(rescale(z)[0]), k)
        oracle = np.linalg.pinv(truncated) @ y
        rel = float(np.linalg.norm(model.beta_hat - oracle) / (1.0 + np.linalg.norm(oracle)))
        worst = max(worst, rel)
    ok = worst <= _PINV_RTOL
    _report(capsys, ok, "criterion 2 — pseudoinverse-oracle agreement",
            f"worst relative gap {worst:.3e} <= {_PINV_RTOL}")


def test_error_decays_and_curves_collapse(capsys):
    report = run_experiment_identification([64, 128, 216], list(range(20)), threads=0)
    by_p = {}
    for agg in report.aggregates:
        by_p.setdefault(agg["p"], []).append(agg)
    for rows in by_p.values():
        rows.sort(key=lambda a: a["n"])

    decay_ok, decay_notes = True, []
    for p, rows in sorted(by_p.items()):
        first, last = rows[0]["rmse_beta_star_mean"], rows[-1]["rmse_beta_star_mean"]
        decay_ok &= last <= _DECAY_FACTOR * first
        decay_notes.append(f"p={p}: {last / first:.3f}")

    collapse_ok, collapse_worst = True, 0.0
    for i in range(8):
        l2 = [by_p[p][i]["rmse_beta_star_mean"] * np.sqrt(p) for p in by_p]
        center = float(np.mean(l2))
        spread = max(abs(v - center) for v in l2) / center
        collapse_worst = max(collapse_worst, spread)
        collapse_ok &= spread <= _COLLAPSE_BAND

    plateau_ok, plateau_worst = True, 0.0
    for rows in by_p.values():
        raw = [a["rmse_beta_raw_mean"] for a in rows]
        spread = (max(raw) - min(raw)) / np.mean(raw)
        plateau_worst = max(plateau_worst, float(spread))
        plateau_ok &= spread < _PLATEAU_SPREAD

    ok = decay_ok and collapse_ok and plateau_ok
    _report(capsys, ok, "criterion 3 — projected error decays, collapses, raw error plateaus",
            f"decay [{', '.join(decay_notes)}] <= {_DECAY_FACTOR}; "
            f"collapse spread {collapse_worst:.3f} <= {_COLLAPSE_BAND}; "
            f"plateau spread {plateau_worst:.3f} < {_PLATEAU_SPREAD}")


def test_prediction_error_is_stable_under_covariate_shift(capsys):
    report = run_experiment_shift([0.1, 0.5, 1.0], list(range(10)), 300, threads=0)
    ratios = {agg["sigma2"]: agg["mse_max_over_min"] for agg in report.aggregates}
    worst = max(ratios.values())
    ok = worst <= _SHIFT_RATIO
    _report(capsys, ok, "criterion 4 — shifted test designs score alike",
            f"max/min mean error {worst:.3f} <= {_SHIFT_RATIO} across sigma2={sorted(ratios)}")


def test_rowspan_violation_is_penalized(capsys):
    report = run_experiment_subspace([0.2], list(range(10)), 300, threads=0)
    ratio = report.aggregates[0]["mse_ratio_of_means"]
    ok = ratio >= _SUBSPACE_RATIO
    _report(capsys, ok, "criterion 5 — leaving the learned rowspan is costly",
            f"bad/good mean error ratio {ratio:.1f} >= {_SUBSPACE_RATIO}")


@pytest.mark.slow
def test_rowspan_violation_is_penalized_large(capsys):
    report = run_experiment_subspace([0.2], list(range(10)), 1000, threads=0)
    ratio = report.aggregates[0]["mse_ratio_of_means"]
    ok = ratio >= _SUBSPACE_RATIO_LARGE
    _report(capsys, ok, "criterion 5 [slow] — rowspan penalty at size 1000",
            f"bad/good mean error ratio {ratio:.1f} >= {_SUBSPACE_RATIO_LARGE}")


def test_observation_rate_estimate_concentrates(capsys):
    cells = 500 * 500
    zeros = np.zeros((500, 500))
    notes, ok = [], True
    for rho in (0.3, 0.7, 0.95):
        band = _RHO_SIGMAS * np.sqrt(rho * (1.0 - rho) / cells)
        hits = sum(
            abs(estimate_rho(corrupt(zeros, 0.0, rho, 2000 + seed)) - rho) <= band
            for seed in range(50)
        )
        ok &= hits >= _RHO_MIN_HITS
        notes.append(f"rho={rho}: {hits}/50")
    _report(capsys, ok, "criterion 6 — observation-rate estimate within binomial bands",
            f"{', '.join(notes)} (need >= {_RHO_MIN_HITS})")


def test_singular_values_are_perturbation_stable(capsys):
    worst = -np.inf
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        n, p = rng.integers(2, 31, size=2)
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-3, 2)
        gap = np.abs(svd(a + b).singular_values - svd(a).singular_values)
        worst = max(worst, float(np.max(gap) - spectral_norm(b)))
    ok = worst <= _WEYL_SLACK
    _report(capsys, ok, "criterion 7 — singular values move at most by the perturbation norm",
            f"worst excess {worst:.3e} <= {_WEYL_SLACK}")


def test_rank_selection_hits_the_planted_rank(capsys):
    notes, ok = [], True
    for sigma2, needed in _RANK_HIT_RATES.items():
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(4000 + seed)
            x = rng.standard_normal((100, 10)) @ rng.standard_normal((10, 100))
            z = x + np.sqrt(sigma2) * rng.standard_normal((100, 100))
            s = svd(z).singular_values
            hits += select_rank_largest_gap(s, 50) == 10
        ok &= hits >= needed
        notes.append(f"sigma2={sigma2}: {hits}/100 (need {needed})")
    _report(capsys, ok, "criterion 8 — largest-gap rule recovers the planted rank",
            f"{', '.join(notes)}")


def test_counterfactual_matches_exact_donor_combination(capsys):
    rng = np.random.default_rng(5)
    donors = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 4))
    weights = rng.standard_normal(4)
    outcomes = np.column_stack([donors @ weights, donors])
    mask = np.ones((9, 5), bool)
    mask[6:, 0] = False
    panel = PanelDataset(
        outcomes=MaskedMatrix.from_dense(np.where(mask, outcomes, np.nan), mask),
        target_col=0,
        pre_periods=6,
    )
    result = fit_rsc(panel, k=2)
    truth = donors[6:] @ weights
    gap = float(np.max(np.abs(result.trajectory - truth)))
    same_metric = counterfactual_error(result, truth) == mean_squared_error(
        result.trajectory, truth
    )
    ok = gap <= _TRAJECTORY_TOL and same_metric
    _report(capsys, ok, "criterion 9 — exact donor combination is reproduced",
            f"max trajectory gap {gap:.3e} <= {_TRAJECTORY_TOL}; "
            f"error metric identical: {same_metric}")


def test_cli_runs_are_byte_reproducible(capsys, tmp_path):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 8)) @ rng.standard_normal((8, 12))
    z_path = tmp_path / "z.csv"
    z_path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n"
    )
    y_path = tmp_path / "y.csv"
    y_path.write_text("\n".join(repr(float(v)) for v in x @ rng.standard_normal(12)) + "\n")

    donors = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 4))
    table = np.column_stack([donors @ rng.standard_normal(4), donors])
    panel_path = tmp_path / "panel.csv"
    rows = ["t,d1,d2,d3,d4"]
    for i, row in enumerate(table):
        cells = ["NA" if (i >= 6 and j == 0) else repr(float(v)) for j, v in enumerate(row)]
        rows.append(",".join(cells))
    panel_path.write_text("\n".join(rows) + "\n")

    commands = {
        "fit": ["fit", "--z", z_path, "--y", y_path, "--k", "auto",
                "--out", tmp_path / "model.json"],
        "predict": ["predict", "--model", tmp_path / "model.json", "--z-test", z_path,
                    "--ell", "same", "--out", tmp_path / "pred.csv"],
        "sc": ["sc", "--panel", panel_path, "--target", "t", "--pre", "6",
               "--out", tmp_path / "traj.csv"],
        "spectrum": ["spectrum", "--z", z_path, "--out", tmp_path / "spec.csv"],
        "experiment": ["experiment", "--name", "subspace", "--size", "60",
                       "--seeds", "2", "--out", tmp_path / "exp"],
    }
    outputs = {
        "fit": [tmp_path / "model.json"],
        "predict": [tmp_path / "pred.csv"],
        "sc": [tmp_path / "traj.csv"],
        "spectrum": [tmp_path / "spec.csv"],
        "experiment": [tmp_path / "exp" / "trials.csv", tmp_path / "exp" / "aggregates.json"],
    }

    stable, notes = True, []
    for name, argv in commands.items():
        argv = [str(a) for a in argv]
        code1 = main(argv)
        stdout1 = capsys.readouterr().out
        bytes1 = [path.read_bytes() for path in outputs[name]]
        code2 = main(argv)
        stdout2 = capsys.readouterr().out
        bytes2 = [path.read_bytes() for path in outputs[name]]
        good = code1 == code2 == 0 and stdout1 == stdout2 and bytes1 == bytes2
        stable &= good
        notes.append(f"{name}: {'ok' if good else 'DIFFERS'}")
        assert json.loads(stdout1.strip())["command"] == name
    _report(capsys, stable, "criterion 10 — every command is byte-reproducible",
            f"{', '.join(notes)}")
