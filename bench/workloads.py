"""Workload definitions: seeded inputs and the command sequence of one cycle.

Inputs are generated here with the benchmark's own numpy code (never with
``eivpcr.simlab``), outside any timed region, and written as the CSV files
the CLI reads. The same ``seed`` always yields the same files, byte for
byte. A *cycle* is one pass through a workload's commands; the benchmark
repeats cycles until its time is up.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Command:
    """One CLI invocation: ``python -m eivpcr.cli <argv>``."""

    label: str                    # fit / predict / spectrum / sc / experiment
    argv: list
    outputs: list                 # artifact paths, hashed after each run
    check: Callable[[], None]     # raises oracle.Mismatch on a wrong artifact
    cells: int = 0                # input CSV cells the command parses
    trials: int = 0               # simulation trials the command runs


@dataclass
class Plan:
    """Everything one run needs: the cycle and what to measure it by."""

    commands: list
    memory_probe: Callable[[], float]   # pcr.fit peak traced memory / design bytes
    env: dict = field(default_factory=dict)   # extra environment for the commands


# ---------------------------------------------------------------------------
# input generation


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed % 2**63])


def write_csv(path: Path, values, header=None) -> None:
    """Shortest round-trip decimals, so the CLI parses the exact floats the
    oracle holds in memory; NaN cells are written as ``NA``."""
    lines = [",".join(map(repr, r)) for r in np.asarray(values, dtype=float).tolist()]
    if header is not None:
        lines.insert(0, ",".join(header))
    path.write_text(("\n".join(lines) + "\n").replace("nan", "NA"))


@dataclass
class DesignData:
    z: np.ndarray        # train covariates, NaN where unobserved
    y: np.ndarray
    z_test: np.ndarray   # test covariates, NaN where unobserved
    bound: float


def gen_design(seed: int, n: int, p: int, m: int, r: int, rho: float,
               rho_test: float, sigma: float) -> DesignData:
    """Rank-r train and test designs sharing right factors (so the test
    rowspace lies in the train rowspace), Gaussian noise of standard
    deviation ``sigma``, and Bernoulli(rho) observation masks."""
    rng = _rng(seed, 1)
    v = rng.standard_normal((p, r))
    x = rng.standard_normal((n, r)) @ v.T
    x_test = rng.standard_normal((m, r)) @ v.T
    beta = rng.standard_normal(p) / np.sqrt(p)
    y = x @ beta + 0.1 * rng.standard_normal(n)
    z = x + sigma * rng.standard_normal(x.shape)
    z[rng.random(z.shape) >= rho] = np.nan
    z_test = x_test + sigma * rng.standard_normal(x_test.shape)
    z_test[rng.random(z_test.shape) >= rho_test] = np.nan
    # clamp roughly the top tenth of test responses, so the clamp path runs
    bound = float(np.quantile(np.abs(x_test @ beta), 0.9))
    return DesignData(z=z, y=y, z_test=z_test, bound=bound)


def gen_panel(seed: int, periods: int, donors: int, r: int, sigma: float,
              missing: float) -> np.ndarray:
    """Time-by-unit outcomes: column 0 is the target, a fixed combination of
    the donors' latent outcomes; each donor cell is missing (NaN) with
    probability ``missing``. The target column is fully observed."""
    rng = _rng(seed, 2)
    latent = rng.standard_normal((periods, r)) @ rng.standard_normal((donors, r)).T
    weights = rng.standard_normal(donors) / np.sqrt(donors)
    out = np.empty((periods, donors + 1))
    out[:, 0] = latent @ weights + sigma * rng.standard_normal(periods)
    out[:, 1:] = latent + sigma * rng.standard_normal(latent.shape)
    out[:, 1:][rng.random(latent.shape) < missing] = np.nan
    return out


def _fit_peak_ratio(z, y, k: int) -> float:
    """tracemalloc peak during ``eivpcr.pcr.fit`` over the design's bytes
    (numpy buffers only; LAPACK workspace is not traced)."""
    import tracemalloc

    from eivpcr.pcr import fit

    tracemalloc.start()
    try:
        fit(z, y, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / z.values.nbytes


def fit_peak_ratio_csv(z_path: Path, y_path: Path, k: int) -> float:
    from eivpcr.dataio import CsvMatrixSpec, read_masked_csv, read_response_csv

    z = read_masked_csv(CsvMatrixSpec(path=z_path))
    return _fit_peak_ratio(z, read_response_csv(CsvMatrixSpec(path=y_path)), k)


def fit_peak_ratio_identification(out: Path, p: int, seed: int) -> float:
    """The ratio on the largest identification trial the experiment ran."""
    from eivpcr.simlab import make_identification_trial

    rows = oracle.read_table(out / "trials.csv")
    rec = max((r for r in rows if int(r["p"]) == p), key=lambda r: int(r["n"]))
    trial = make_identification_trial(p, int(rec["n"]), int(rec["r"]), seed)
    return _fit_peak_ratio(trial.z_train, trial.y, int(rec["r"]))


# ---------------------------------------------------------------------------
# workloads


def _cli_plan(work: Path, design: DesignData, panel: np.ndarray, pre: int) -> Plan:
    """The four CLI commands of one cycle, in dependency order."""
    f = {name: work / name for name in (
        "z.csv", "y.csv", "ztest.csv", "panel.csv",
        "model.json", "pred.csv", "spectrum.csv", "trajectory.csv")}
    write_csv(f["z.csv"], design.z)
    write_csv(f["y.csv"], design.y[:, None])
    write_csv(f["ztest.csv"], design.z_test)
    write_csv(f["panel.csv"], panel, ["target"] + [f"d{j}" for j in range(1, panel.shape[1])])

    ref = oracle.Reference(design, panel, pre)
    n, p = design.z.shape
    return Plan(
        commands=[
            Command("fit", ["fit", "--z", str(f["z.csv"]), "--y", str(f["y.csv"]),
                            "--k", "auto", "--out", str(f["model.json"])],
                    [f["model.json"]], lambda: ref.check_model(f["model.json"]),
                    cells=n * p + n),
            Command("predict", ["predict", "--model", str(f["model.json"]),
                                "--z-test", str(f["ztest.csv"]), "--ell", "same",
                                "--bound", repr(design.bound), "--out", str(f["pred.csv"])],
                    [f["pred.csv"]], lambda: ref.check_predictions(f["pred.csv"]),
                    cells=design.z_test.size),
            Command("spectrum", ["spectrum", "--z", str(f["z.csv"]),
                                 "--out", str(f["spectrum.csv"])],
                    [f["spectrum.csv"]], lambda: ref.check_spectrum(f["spectrum.csv"]),
                    cells=n * p),
            Command("sc", ["sc", "--panel", str(f["panel.csv"]), "--target", "target",
                           "--pre", str(pre), "--out", str(f["trajectory.csv"])],
                    [f["trajectory.csv"]], lambda: ref.check_trajectory(f["trajectory.csv"]),
                    cells=panel.size),
        ],
        memory_probe=lambda: fit_peak_ratio_csv(f["z.csv"], f["y.csv"], ref.k_fit),
    )


def cli_large(work: Path, seed: int) -> Plan:
    # Why: CSV parsing is about 60% of the wall time, and every command runs
    # 1 to 6 LAPACK SVDs on 2000x500 or 400x1000 matrices, so ingest,
    # factorize-once and truncated-solver changes show their gains here.
    # Inputs: fit/spectrum on a 2000x500 design (rho=0.8, rank 10, noise
    # sd 0.5); predict on a separate 1000x500 test design (rho'=0.7) with
    # --ell same and a bound clamping about 10% of rows; sc on a 600x1001
    # panel (400 pre periods, rank 8, sd 0.5, header row, 10% of donor
    # cells missing). All drawn from --seed.
    # Predicted movement (layer -> end to end): dataio.read_s -> fit_s,
    # predict_s, spectrum_s, sc_s, cells_per_s, cycle_s; core.rescale_s,
    # core.svd_s, core.lapack_svd_* -> every command median, cycle_s,
    # cycle_cpu_s; core.spectral_norm_s, core.truncate_rank_s,
    # rank_selection.select_s, synthetic_control.* -> sc_s; pcr.* -> fit_s,
    # predict_s, sc_s; cli.main_self_s -> predict_s, spectrum_s;
    # pcr.fit_peak_mem_ratio -> peak_rss_mb.
    design = gen_design(seed, n=2000, p=500, m=1000, r=10, rho=0.8,
                        rho_test=0.7, sigma=0.5)
    panel = gen_panel(seed, periods=600, donors=1000, r=8, sigma=0.5, missing=0.1)
    return _cli_plan(work, design, panel, pre=400)


def cli_small(work: Path, seed: int) -> Plan:
    # Why: interpreter start-up and `import eivpcr.cli` are most of each
    # command's time (about 0.2-0.3 s); parsing and SVDs cost almost nothing.
    # Ingest or solver changes should leave this workload unchanged, so any
    # fixed per-call cost they add shows as a regression here. It also sits
    # on the exact-solver side of any size-based solver choice.
    # Inputs: the same four commands on a 200x50 design (rank 10, rho=0.8),
    # a 50x50 test design (rho'=0.7) and a 60x31 panel (40 pre periods,
    # rank 4, sd 0.3, 10% of donor cells missing). All drawn from --seed.
    # On about 1.4% of seeds sc's full-spectrum auto rank picks k=29 on the
    # 40x30 donor pre block and then fails with RankOutOfRange (ell=k > 20
    # post periods); that is a known program defect and counts as failed.
    # Predicted movement: cli.import_s, cli.import_simlab_s -> setup_s,
    # every command median, cycle_s; core.svd_s, dataio.read_s -> no change.
    design = gen_design(seed, n=200, p=50, m=50, r=10, rho=0.8,
                        rho_test=0.7, sigma=0.5)
    panel = gen_panel(seed, periods=60, donors=30, r=4, sigma=0.3, missing=0.1)
    return _cli_plan(work, design, panel, pre=40)


LAB_PS = (64, 128, 216)
LAB_SEEDS = 1


def lab_identification(work: Path, seed: int) -> Plan:
    # Why: reads no CSV; about 90% of the time is LAPACK SVD (3 per trial,
    # on tall matrices with n up to about 7700) and about 7% the Python
    # sign-convention loop. It runs the lab's thread pool (EIV_PCR_THREADS=0,
    # one worker per CPU) on top of default multithreaded BLAS, and it
    # exercises the write side of dataio (trials.csv, aggregates.json).
    # Inputs: `experiment --name identification` at the default
    # p in {64, 128, 216}, one seed (--seed mod 1e6; 24 trials, about 6 s),
    # so a run holds several experiments and their median is steady; runs
    # with different --seed cover different seeds.
    # Predicted movement: core.svd_s, core.lapack_svd_*, core.svd_wrapper_s,
    # simlab.make_trial_s, simlab.lapack_svd_calls_per_trial,
    # simlab.worker_busy_frac -> experiment_s, trials_per_s, cycle_s,
    # cycle_cpu_s (oversubscribed BLAS threads spin here); dataio.write_s
    # -> experiment_s; dataio.read_s -> no change (it reads nothing).
    out = work / "exp"
    master = seed % 1_000_000
    trials = len(LAB_PS) * len(oracle.identification_ratios()) * LAB_SEEDS
    argv = ["experiment", "--name", "identification", "--seeds", str(LAB_SEEDS),
            "--seed", str(master), "--out", str(out)]
    for p in LAB_PS:
        argv += ["--p", str(p)]
    return Plan(
        commands=[
            Command("experiment", argv, [out / "trials.csv", out / "aggregates.json"],
                    lambda: oracle.check_identification(out, LAB_PS, master, LAB_SEEDS, seed),
                    trials=trials),
        ],
        env={"EIV_PCR_THREADS": "0"},
        memory_probe=lambda: fit_peak_ratio_identification(out, max(LAB_PS), master),
    )


WORKLOADS = {
    "cli_large": cli_large,
    "cli_small": cli_small,
    "lab_identification": lab_identification,
}
