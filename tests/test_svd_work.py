"""LAPACK work per command: how many ``numpy.linalg.svd`` calls and QRs
each entry point makes, which SVDs compute singular vectors, and on what
shapes.

``fit`` and ``predict_detailed`` factorize only the small side of the
rescaled design: one QR in ``core._qr_r`` of ``[Z | y]`` (tall fit), ``Z``
(tall predict) or ``Z^T`` (wide), recorded as ``numpy.linalg.qr(mode="r")``
would see it, then one SVD of the square factor, so their SVDs with vectors
run on min(n, p) x min(n, p) matrices. With numpy's bundled OpenBLAS found,
that QR is LAPACK's ``dgeqrf`` called directly, never ``numpy.linalg.qr``.
Callers that read only the spectrum go through the values-only path, and
the synthetic-controls inclusion check runs on k x p row factors instead of
full reconstructions. The SVD counts stay at 2/1/1/6 per CLI command and 3
per identification trial, two of which run on r x r matrices built from the
latent's generating factors through ``numpy.linalg.qr``'s reduced QRs. Shift
and subspace trials take their train factors the same way and never factor
the n x p latent. A lab trial factors each input matrix at most twice, once
with vectors and once without: 8 calls per subspace trial and 10 per shift
trial. ``bench/test_repeat.py`` pins the same SVD counts for the
benchmark's traced runs; a test here holds both sites equal.
"""
import hashlib
import importlib.util
import json
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eivpcr import MaskedMatrix, PredictionConfig, _blas, core, fit, predict_detailed
from eivpcr.cli import main
from eivpcr.simlab import run_experiment_identification, run_experiment_shift, run_experiment_subspace
from eivpcr.simlab.experiments import IDENTIFICATION_RATIOS

_BENCH_PINS = Path(__file__).resolve().parents[1] / "bench" / "test_repeat.py"

# numpy.linalg.svd calls per CLI command: (all, with vectors)
_CLI_SVD = {"fit": (2, 1), "predict": (1, 1), "spectrum": (1, 0), "sc": (6, 3)}
# numpy.linalg.svd calls per identification trial
_IDENTIFICATION_SVD = 3


def _record(monkeypatch, name, describe):
    """Wrap numpy.linalg.<name> to record describe(input, kwargs) per call."""
    calls = []
    real = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        calls.append(describe(a, kwargs))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record (compute_uv, shape) of every numpy.linalg.svd call."""
    return _record(monkeypatch, "svd", lambda a, kw: (kw.get("compute_uv", True), np.shape(a)))


@pytest.fixture
def lapack_inputs(monkeypatch):
    """Record (compute_uv, digest of the input bytes) of every
    numpy.linalg.svd call."""
    return _record(
        monkeypatch,
        "svd",
        lambda a, kw: (
            kw.get("compute_uv", True),
            hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest(),
        ),
    )


@pytest.fixture
def qr_calls(monkeypatch):
    """Record (mode, shape) of every QR: ("r", shape) per ``core._qr_r``
    call, the shape ``numpy.linalg.qr(mode="r")`` saw before that route,
    and (mode, shape) per ``numpy.linalg.qr`` call made outside it."""
    calls = []
    inside = threading.local()
    real_qr, real_qr_r = np.linalg.qr, core._qr_r

    def qr(a, *args, **kwargs):
        if not getattr(inside, "qr_r", False):
            calls.append((kwargs.get("mode", "reduced"), np.shape(a)))
        return real_qr(a, *args, **kwargs)

    def qr_r(f):
        calls.append(("r", f.shape))
        inside.qr_r = True
        try:
            return real_qr_r(f)
        finally:
            inside.qr_r = False

    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(core, "_qr_r", qr_r)
    return calls


def _write(path, array, header=None):
    lines = [] if header is None else [",".join(header)]
    lines += [",".join("NA" if np.isnan(v) else repr(float(v)) for v in row) for row in array]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _cli_inputs(tmp_path):
    rng = np.random.default_rng(3)
    v = rng.standard_normal((40, 4))
    z = rng.standard_normal((120, 4)) @ v.T + 0.1 * rng.standard_normal((120, 40))
    z[rng.random(z.shape) < 0.1] = np.nan
    z_test = rng.standard_normal((30, 4)) @ v.T + 0.1 * rng.standard_normal((30, 40))
    panel = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 26))
    panel += 0.05 * rng.standard_normal(panel.shape)
    panel[:, 1:][rng.random((50, 25)) < 0.1] = np.nan
    return {
        "z": _write(tmp_path / "z.csv", z),
        "y": _write(tmp_path / "y.csv", rng.standard_normal((120, 1))),
        "ztest": _write(tmp_path / "ztest.csv", z_test),
        "panel": _write(tmp_path / "panel.csv", panel, [f"u{j}" for j in range(26)]),
        "out": tmp_path,
    }


def _commands(f):
    out = f["out"]
    return {
        "fit": ["fit", "--z", f["z"], "--y", f["y"], "--k", "auto", "--out", str(out / "m.json")],
        "predict": ["predict", "--model", str(out / "m.json"), "--z-test", f["ztest"],
                    "--ell", "same", "--out", str(out / "p.csv")],
        "spectrum": ["spectrum", "--z", f["z"], "--out", str(out / "s.csv")],
        "sc": ["sc", "--panel", f["panel"], "--target", "u0", "--pre", "30",
               "--out", str(out / "t.csv")],
    }


def test_cli_calls_per_command(tmp_path, lapack_calls, qr_calls, capsys):
    # fit's design is 120 x 40 (tall), predict's 30 x 40 (wide); sc's
    # donor pre block is 30 x 25 (tall) and its post block 20 x 25 (wide)
    want_qr = {
        "fit": [("r", (120, 41))],  # [Z | y]
        "predict": [("r", (40, 30))],  # Z^T
        "spectrum": [],
        "sc": [("r", (30, 26)), ("r", (25, 20))],
    }
    for name, argv in _commands(_cli_inputs(tmp_path)).items():
        lapack_calls.clear()
        qr_calls.clear()
        assert main(argv) == 0, name
        vectors = sum(1 for uv, _ in lapack_calls if uv)
        assert (len(lapack_calls), vectors) == _CLI_SVD[name], name
        assert qr_calls == want_qr[name], name
    capsys.readouterr()


def test_bench_pins_the_same_svd_counts():
    # bench/test_repeat.py, loaded by path and unchanged, checks the
    # benchmark's traced counts against its own copy of these numbers
    spec = importlib.util.spec_from_file_location("_bench_test_repeat", _BENCH_PINS)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    totals = {name: calls for name, (calls, _) in _CLI_SVD.items()}
    assert bench.CLI_BASELINE == {
        **{f"cli.{name}_lapack_svd_calls": calls for name, calls in totals.items()},
        "synthetic_control.lapack_svd_calls_per_fit": totals["sc"],
        "core.lapack_svd_calls": sum(totals.values()),
    }
    # the lab workload runs three p values at one seed
    assert bench.BASELINE == {
        "cli_small": bench.CLI_BASELINE,
        "cli_large": bench.CLI_BASELINE,
        "lab_identification": {
            "simlab.lapack_svd_calls_per_trial": _IDENTIFICATION_SVD,
            "core.lapack_svd_calls": _IDENTIFICATION_SVD * 3 * len(IDENTIFICATION_RATIOS),
        },
    }


def test_spectrum_only_callers_skip_vectors(tmp_path, lapack_calls, capsys):
    f = _cli_inputs(tmp_path)
    want = {
        # the spectrum read for rank selection comes first, values only;
        # the fit's vectors come from the 40 x 40 factor of [Z | y]
        "fit": [(False, (120, 40)), (True, (40, 40))],
        "spectrum": [(False, (120, 40))],
        # the wide test design's vectors come from the 30 x 30 factor of Z^T
        "predict": [(True, (30, 30))],
    }
    for name, calls in want.items():
        lapack_calls.clear()
        assert main(_commands(f)[name]) == 0
        assert lapack_calls == calls, name
    capsys.readouterr()


def test_sc_inclusion_check_runs_on_row_factors(tmp_path, lapack_calls, capsys):
    assert main(_commands(_cli_inputs(tmp_path))["sc"]) == 0
    k = json.loads(capsys.readouterr().out)["k"]
    # auto spectrum (values) of the 30 x 25 pre block, then fit and predict
    # (vectors) on the small-side factors of the pre and 20 x 25 post blocks
    assert lapack_calls[:3] == [(False, (30, 25)), (True, (25, 25)), (True, (20, 20))]
    # check_subspace_inclusion: train row factors (vectors), then the
    # residual's and the test row factors' spectral norms (values only)
    inclusion = lapack_calls[3:]
    assert [uv for uv, _ in inclusion] == [True, False, False]
    assert all(shape[0] <= k and shape[1] == 25 for _, shape in inclusion)


def test_identification_trial_calls(lapack_calls, qr_calls):
    report = run_experiment_identification([8], [0])
    trials = len(report.records)
    assert trials == 8
    # beta_star's projection and the fit factor with vectors; the snr
    # column reads a spectrum alone
    assert len(lapack_calls) == _IDENTIFICATION_SVD * trials
    assert sum(1 for uv, _ in lapack_calls if uv) == 2 * trials
    assert len(qr_calls) == 3 * trials
    # the train side runs on r x r matrices, never on the n x p latent,
    # through QRs of the n x r and p x r generating factors; the fit
    # factors only the small side of z_train, tall ([Z | y]) or wide (Z^T)
    want_svd, want_qr = Counter(), Counter()
    wide = 0
    for rec in report.records:
        n, p, r = rec["n"], rec["p"], rec["r"]
        wide += n <= p
        want_svd.update([(True, (r, r)), (False, (r, r)), (True, (min(n, p),) * 2)])
        want_qr.update([("reduced", (n, r)), ("reduced", (p, r)),
                        ("r", (n, p + 1) if n > p else (p, n))])
    assert 0 < wide < trials  # both routes run
    assert Counter(lapack_calls) == want_svd
    assert Counter(qr_calls) == want_qr


@pytest.mark.parametrize("run, want", [
    # train factors (vectors, r x r core), fit, two predicts; two inclusion
    # checks' spectral norms; snr and the leakage read the kept train factors
    (run_experiment_subspace, (8, 4, 5)),
    # train factors (vectors, r x r core), fit, four predicts; four test
    # snrs; snr reads the kept train factors
    (run_experiment_shift, (10, 6, 7)),
], ids=["subspace", "shift"])
def test_lab_trial_factors_each_input_once_per_kind(lapack_inputs, qr_calls, run, want):
    # noisy, so z_train and z_test differ from the latent matrices
    assert len(run([0.2], [0], 60).records) == 1
    vectors = sum(1 for uv, _ in lapack_inputs if uv)
    # one QR per generating factor (U, V), per fit and per predict
    assert (len(lapack_inputs), vectors, len(qr_calls)) == want
    # no matrix reaches LAPACK twice with vectors, or twice without
    assert max(Counter(lapack_inputs).values()) == 1


def test_fit_and_predict_bypass_numpy_qr(monkeypatch):
    found = _blas._openblas()
    if found is None or found.dgeqrf is None:
        pytest.skip("numpy's bundled OpenBLAS has no ILP64 dgeqrf")
    modes = _record(monkeypatch, "qr", lambda a, kw: kw.get("mode", "reduced"))
    draw = np.random.default_rng(4).standard_normal
    fit(MaskedMatrix.from_dense(draw((60, 12))), draw(60), 3)  # tall
    model = fit(MaskedMatrix.from_dense(draw((12, 30))), draw(12), 3)  # wide
    for m in (50, 8):  # a tall and a wide test design
        predict_detailed(model, MaskedMatrix.from_dense(draw((m, 30))), PredictionConfig(ell=3))
    assert modes == []
