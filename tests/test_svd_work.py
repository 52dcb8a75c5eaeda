"""LAPACK work per command: how many ``numpy.linalg.svd`` calls each entry
point makes, which of them compute singular vectors, and on what shapes.

Callers that read only the spectrum go through the values-only path, and the
synthetic-controls inclusion check runs on k x p row factors instead of full
reconstructions. The call counts themselves stay at 2/1/1/6 per CLI command
and 3 per identification trial. A lab trial factors each input matrix at
most twice, once with vectors and once without: 9 calls per subspace trial
and 11 per shift trial.
"""
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from eivpcr.cli import main
from eivpcr.simlab import run_experiment_identification, run_experiment_shift, run_experiment_subspace


def _record_svd(monkeypatch, describe):
    """Wrap numpy.linalg.svd to record (compute_uv, describe(input)) per call."""
    calls = []
    real = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((kwargs.get("compute_uv", True), describe(a)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record (compute_uv, shape) of every numpy.linalg.svd call."""
    return _record_svd(monkeypatch, np.shape)


@pytest.fixture
def lapack_inputs(monkeypatch):
    """Record (compute_uv, digest of the input bytes) of every
    numpy.linalg.svd call."""
    return _record_svd(
        monkeypatch,
        lambda a: hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest(),
    )


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


def test_cli_calls_per_command(tmp_path, lapack_calls, capsys):
    # (calls, calls computing vectors) per command
    want = {"fit": (2, 1), "predict": (1, 1), "spectrum": (1, 0), "sc": (6, 3)}
    for name, argv in _commands(_cli_inputs(tmp_path)).items():
        lapack_calls.clear()
        assert main(argv) == 0, name
        vectors = sum(1 for uv, _ in lapack_calls if uv)
        assert (len(lapack_calls), vectors) == want[name], name
    capsys.readouterr()


def test_spectrum_only_callers_skip_vectors(tmp_path, lapack_calls, capsys):
    f = _cli_inputs(tmp_path)
    for name in ("fit", "spectrum"):
        lapack_calls.clear()
        assert main(_commands(f)[name]) == 0
        # the spectrum read for rank selection or the table comes first
        assert lapack_calls[0] == (False, (120, 40)), name
    capsys.readouterr()


def test_sc_inclusion_check_runs_on_row_factors(tmp_path, lapack_calls, capsys):
    assert main(_commands(_cli_inputs(tmp_path))["sc"]) == 0
    k = json.loads(capsys.readouterr().out)["k"]
    # auto spectrum (values), fit and predict (vectors) on the full blocks
    assert [uv for uv, _ in lapack_calls[:3]] == [False, True, True]
    assert lapack_calls[0][1] == lapack_calls[1][1] == (30, 25)
    assert lapack_calls[2][1] == (20, 25)
    # check_subspace_inclusion: train row factors (vectors), then the
    # residual's and the test row factors' spectral norms (values only)
    inclusion = lapack_calls[3:]
    assert [uv for uv, _ in inclusion] == [True, False, False]
    assert all(shape[0] <= k and shape[1] == 25 for _, shape in inclusion)


def test_identification_trial_calls(lapack_calls):
    report = run_experiment_identification([8], [0])
    trials = len(report.records)
    assert trials == 8
    # beta_star's projection and the fit factor x_train and z_train with
    # vectors; the snr column reads x_train's spectrum alone
    assert len(lapack_calls) == 3 * trials
    assert sum(1 for uv, _ in lapack_calls if uv) == 2 * trials


@pytest.mark.parametrize("run, want", [
    # beta_star (vectors), fit, two predicts; snr; two inclusion checks'
    # spectral norms; the leakage reads the trial's kept train factors
    (run_experiment_subspace, (9, 4)),
    # beta_star (vectors), fit, four predicts; train snr and four test snrs
    (run_experiment_shift, (11, 6)),
], ids=["subspace", "shift"])
def test_lab_trial_factors_each_input_once_per_kind(lapack_inputs, run, want):
    # noisy, so z_train and z_test differ from the latent matrices
    assert len(run([0.2], [0], 60).records) == 1
    vectors = sum(1 for uv, _ in lapack_inputs if uv)
    assert (len(lapack_inputs), vectors) == want
    # no matrix reaches LAPACK twice with vectors, or twice without
    assert max(Counter(lapack_inputs).values()) == 1

