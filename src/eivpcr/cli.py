"""Command-line interface: model fitting and prediction, synthetic
controls, spectrum diagnostics, and the experiment catalog.

Exit codes are a stable contract: 0 success, 2 input/usage errors,
3 numerical failures. Per-command diagnostics go to standard output as a
single JSON line; failures put a single JSON line on standard error with
the exception class name as the machine-readable code. Tables are CSV by
default (``--format json`` switches the table-emitting commands to a JSON
array of row objects). Whenever numpy's bundled OpenBLAS is found, every
command runs on one BLAS thread, so its outputs do not depend on the
process's BLAS thread setting; ``blas_threads`` in the diagnostics line
says which (``1``, or ``null`` when the library was not found).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from ._blas import _blas_threads, _single_threaded_blas
from .core import _singular_values, rescale
from .dataio import (
    CsvMatrixSpec,
    json_default,
    read_masked_csv,
    read_model,
    read_panel_csv,
    read_response_csv,
    write_json,
    write_model,
    write_records_csv,
)
from .errors import BadParam, DegenerateSpectrum, EivPcrError, NoConverge
from .pcr import PredictionConfig, fit, predict_detailed
from .rank_selection import gap_ratios, select_rank_largest_gap
from .simlab.experiments import (
    run_experiment_identification,
    run_experiment_shift,
    run_experiment_subspace,
)
from .synthetic_control import fit_rsc

_EXIT_INPUT = 2
_EXIT_NUMERICAL = 3
_NUMERICAL_ERRORS = (DegenerateSpectrum, NoConverge)

DEFAULT_IDENTIFICATION_PS = (64, 128, 216)
DEFAULT_IDENTIFICATION_SEEDS = 20
DEFAULT_SHIFT_NOISE = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_SHIFT_SEEDS = 10
DEFAULT_SUBSPACE_NOISE = (0.2,)
DEFAULT_SUBSPACE_SEEDS = 10
DEFAULT_TRIAL_SIZE = 300


class _Parser(argparse.ArgumentParser):
    """Usage errors become machine-readable JSON on stderr, exit 2."""

    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(_EXIT_INPUT)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0)
        return int(exc.code or 0)
    try:
        # the pin is released before an error is reported, so the caller's
        # BLAS thread count comes back on every exit code
        with _single_threaded_blas():
            return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        _emit_error(type(exc).__name__, exc)
        return _EXIT_NUMERICAL
    except (EivPcrError, OSError) as exc:
        _emit_error(type(exc).__name__, exc)
        return _EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eivpcr",
        description="Principal component regression for noisy, partially observed covariates.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("fit", help="fit a rank-k model on covariate/response files")
    p.add_argument("--z", required=True, help="covariate CSV; NA marks missing cells")
    p.add_argument("--y", required=True, help="response CSV, single column (or row)")
    p.add_argument("--k", required=True, type=_k_arg,
                   help="retained rank, or 'auto' to pick the largest spectral gap")
    p.add_argument("--out", required=True, help="model JSON destination")
    p.add_argument("--has-header", action="store_true",
                   help="first row of --z holds column labels")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="apply a saved model to a test design")
    p.add_argument("--model", required=True, help="model JSON from the fit command")
    p.add_argument("--z-test", required=True, help="test covariate CSV")
    p.add_argument("--ell", required=True, type=_ell_arg,
                   help="test-side truncation rank, or 'same' to reuse the model's k")
    p.add_argument("--bound", type=float, default=None,
                   help="clamp predictions to [-bound, bound]")
    p.add_argument("--out", required=True, help="predictions table destination")
    p.add_argument("--has-header", action="store_true",
                   help="first row of --z-test holds column labels")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sc", help="counterfactual trajectory for a treated unit")
    p.add_argument("--panel", required=True,
                   help="time-by-unit outcome CSV, units as columns")
    p.add_argument("--target", required=True,
                   help="treated unit: column name (with header) or 0-based index")
    p.add_argument("--pre", required=True, type=int,
                   help="number of pre-treatment rows")
    p.add_argument("--k", type=_k_arg, default="auto",
                   help="retained rank, or 'auto' (default)")
    p.add_argument("--out", required=True, help="trajectory table destination")
    p.add_argument("--no-header", action="store_true",
                   help="panel file has no unit-name header row")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sc)

    p = sub.add_parser("spectrum", help="singular values and gap ratios of the rescaled data")
    p.add_argument("--z", required=True, help="covariate CSV; NA marks missing cells")
    p.add_argument("--out", required=True, help="spectrum table destination")
    p.add_argument("--has-header", action="store_true",
                   help="first row of --z holds column labels")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("experiment", help="run a simulation study and write its report")
    p.add_argument("--name", required=True,
                   choices=("identification", "shift", "subspace"))
    p.add_argument("--size", type=int, default=None,
                   help="n = m = p for shift/subspace trials (default 300)")
    p.add_argument("--seeds", type=int, default=None,
                   help="number of seeds (trials per configuration)")
    p.add_argument("--noise", type=float, action="append", default=None,
                   help="noise variance; repeat for a grid (shift/subspace only)")
    p.add_argument("--p", type=int, action="append", default=None,
                   help="covariate dimension; repeat for a grid (identification only)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; trials use seed, seed+1, ... (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    return parser


def cmd_fit(args) -> int:
    z = read_masked_csv(CsvMatrixSpec(path=args.z, has_header=args.has_header))
    y = read_response_csv(CsvMatrixSpec(path=args.y))
    s = _singular_values(rescale(z)[0])
    k = _auto_k(s, z.rows, z.cols) if args.k == "auto" else args.k
    model = fit(z, y, k)
    write_model(model, args.out)
    ratios = gap_ratios(s)
    _emit({
        "command": "fit",
        "rho_hat": model.rho_hat,
        "k": model.k,
        "spectrum_top10": [float(v) for v in s[:10]],
        "gap_ratio": float(ratios[model.k - 1]) if model.k - 1 < ratios.size else None,
        "out": str(args.out),
    })
    return 0


def cmd_predict(args) -> int:
    model = read_model(args.model)
    z_test = read_masked_csv(CsvMatrixSpec(path=args.z_test, has_header=args.has_header))
    ell = model.k if args.ell == "same" else args.ell
    pred = predict_detailed(model, z_test, PredictionConfig(ell=ell, bound=args.bound))
    rows = [
        {"index": i, "y_hat": float(v), "clamped": bool(c)}
        for i, (v, c) in enumerate(zip(pred.y_hat, pred.clamped))
    ]
    _write_table(rows, args.out, args.format)
    _emit({
        "command": "predict",
        "rho_hat_prime": pred.rho_hat_prime,
        "ell": pred.ell,
        "ell_effective": pred.ell_effective,
        "clamped_rows": int(np.count_nonzero(pred.clamped)),
        "out": str(args.out),
    })
    return 0


def cmd_sc(args) -> int:
    spec = CsvMatrixSpec(path=args.panel, has_header=not args.no_header)
    panel = read_panel_csv(spec, args.target, args.pre)
    result = fit_rsc(panel, k=args.k)
    rows = [
        {"time": t, "estimate": float(v)}
        for t, v in enumerate(result.trajectory, start=panel.pre_periods)
    ]
    _write_table(rows, args.out, args.format)
    diag = {"command": "sc", "target": str(args.target)}
    diag.update(result.diagnostics)
    diag["out"] = str(args.out)
    _emit(diag)
    return 0


def cmd_spectrum(args) -> int:
    z = read_masked_csv(CsvMatrixSpec(path=args.z, has_header=args.has_header))
    rescaled, rho_hat = rescale(z)
    s = _singular_values(rescaled)
    ratios = gap_ratios(s)
    rows = [
        {
            "index": i + 1,
            "singular_value": float(v),
            "gap_ratio": float(ratios[i]) if i < ratios.size else None,
        }
        for i, v in enumerate(s)
    ]
    _write_table(rows, args.out, args.format)
    _emit({
        "command": "spectrum",
        "rho_hat": rho_hat,
        "count": int(s.size),
        "suggested_k": _auto_k(s, z.rows, z.cols),
        "out": str(args.out),
    })
    return 0


def cmd_experiment(args) -> int:
    threads = _threads_from_env()
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise BadParam(f"--out {out} exists and is not a directory")
    if args.name == "identification":
        if args.size is not None:
            raise BadParam("identification sweeps its own sample sizes; --size is not applicable")
        if args.noise:
            raise BadParam("identification pins its noise level; --noise is not applicable")
        ps = args.p or list(DEFAULT_IDENTIFICATION_PS)
        seeds = _seed_range(args.seed, args.seeds, DEFAULT_IDENTIFICATION_SEEDS)
        report = run_experiment_identification(ps, seeds, threads=threads)
    else:
        if args.p:
            raise BadParam("--p applies to the identification experiment only")
        size = args.size if args.size is not None else DEFAULT_TRIAL_SIZE
        if args.name == "shift":
            noise = args.noise or list(DEFAULT_SHIFT_NOISE)
            seeds = _seed_range(args.seed, args.seeds, DEFAULT_SHIFT_SEEDS)
            report = run_experiment_shift(noise, seeds, size, threads=threads)
        else:
            noise = args.noise or list(DEFAULT_SUBSPACE_NOISE)
            seeds = _seed_range(args.seed, args.seeds, DEFAULT_SUBSPACE_SEEDS)
            report = run_experiment_subspace(noise, seeds, size, threads=threads)
    # created only once the report exists, so a rejected run leaves nothing
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(report.records, out / "trials.csv")
    write_json(
        {"name": report.name, "aggregates": list(report.aggregates)},
        out / "aggregates.json",
    )
    _emit({
        "command": "experiment",
        "name": report.name,
        "trials": len(report.records),
        "threads": threads,
        "out": str(out),
    })
    return 0


def _auto_k(s, n: int, p: int) -> int:
    # search only the top half of the spectrum: the elbow of interest sits
    # among the leading values, while trailing near-zero pairs can fake
    # arbitrarily large ratios
    if s.size < 2:
        return 1
    k_max = min(max(1, min(n, p) // 2), int(s.size) - 1)
    return select_rank_largest_gap(s, k_max)


def _rank_arg(name: str, keyword: str):
    """argparse type for a positive integer rank or ``keyword``."""

    def parse(text: str):
        if text == keyword:
            return keyword
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer or '{keyword}', got {text!r}"
            ) from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be a positive integer or '{keyword}'")
        return value

    return parse


_k_arg = _rank_arg("k", "auto")
_ell_arg = _rank_arg("ell", "same")


def _seed_range(master: int, count, default: int) -> list:
    n = default if count is None else int(count)
    if n < 1:
        raise BadParam(f"--seeds {n} must be >= 1")
    if master < 0:
        raise BadParam(f"--seed {master} must be >= 0")
    return list(range(int(master), int(master) + n))


def _threads_from_env():
    raw = os.environ.get("EIV_PCR_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise BadParam(f"EIV_PCR_THREADS={raw!r} is not an integer") from None
    if value < 0:
        raise BadParam("EIV_PCR_THREADS must be >= 0")
    return value  # 0 = one worker per CPU, resolved by the runners


def _write_table(rows, path, fmt: str) -> None:
    if fmt == "json":
        write_json(rows, path)
    else:
        write_records_csv(rows, path)


def _emit(obj) -> None:
    obj = {**obj, "blas_threads": _blas_threads()}
    sys.stdout.write(json.dumps(obj, default=json_default) + "\n")


def _emit_error(code: str, message) -> None:
    sys.stderr.write(json.dumps({"error": code, "message": str(message)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
