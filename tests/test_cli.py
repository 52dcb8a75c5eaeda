import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eivpcr import MaskedMatrix, _blas, cli, rescale, svd
from eivpcr.cli import _auto_k, main
from eivpcr.simlab import experiments

_SRC = str(Path(experiments.__file__).resolve().parents[2])


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def diag_of(out: str) -> dict:
    lines = out.strip().splitlines()
    assert len(lines) == 1, "diagnostics must be a single JSON line"
    return json.loads(lines[0])


def error_of(err: str) -> dict:
    lines = err.strip().splitlines()
    assert len(lines) == 1, "errors must be a single JSON line"
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


def write_csv(path, array, header=None):
    lines = [] if header is None else [",".join(header)]
    for row in np.atleast_2d(array):
        lines.append(",".join("NA" if np.isnan(v) else repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def identity_files(tmp_path):
    z = write_csv(tmp_path / "z.csv", np.eye(3))
    y = (tmp_path / "y.csv")
    y.write_text("1\n2\n3\n")
    return z, y


class TestFit:
    def test_identity_fit_writes_model_and_diagnostics(self, tmp_path, identity_files, capsys):
        z, y = identity_files
        out = tmp_path / "model.json"
        code, stdout, stderr = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "3", "--out", out], capsys
        )
        assert code == 0 and stderr == ""
        diag = diag_of(stdout)
        assert set(diag) == {
            "command", "rho_hat", "k", "spectrum_top10", "gap_ratio", "out", "blas_threads",
        }
        assert diag["command"] == "fit"
        assert diag["rho_hat"] == 1.0
        assert diag["k"] == 3
        assert diag["gap_ratio"] is None      # k is the last singular value
        doc = json.loads(out.read_text())
        assert doc["k"] == 3
        np.testing.assert_allclose(doc["beta_hat"], [1.0, 2.0, 3.0], rtol=1e-12)

    def test_auto_rank_finds_the_factor_rank(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 10)) @ rng.standard_normal((10, 100))
        z = write_csv(tmp_path / "z.csv", x + np.sqrt(0.2) * rng.standard_normal((100, 100)))
        y = write_csv(tmp_path / "y.csv", rng.standard_normal((100, 1)))
        code, stdout, _ = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "auto", "--out", tmp_path / "m.json"], capsys
        )
        assert code == 0
        assert diag_of(stdout)["k"] == 10

    def test_nonpositive_k_is_a_usage_error(self, tmp_path, identity_files, capsys):
        z, y = identity_files
        code, stdout, stderr = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "0", "--out", tmp_path / "m.json"], capsys
        )
        assert code == 2 and stdout == ""
        assert error_of(stderr)["error"] == "UsageError"

    @pytest.mark.parametrize("k, message", [
        ("many", "argument --k: expected an integer or 'auto', got 'many'"),
        ("-2", "argument --k: k must be a positive integer or 'auto'"),
    ])
    def test_bad_k_messages(self, tmp_path, identity_files, capsys, k, message):
        z, y = identity_files
        code, _, stderr = run_cli(
            ["fit", "--z", z, "--y", y, "--k", k, "--out", tmp_path / "m.json"], capsys
        )
        assert code == 2
        assert error_of(stderr) == {"error": "UsageError", "message": message}

    def test_rank_deficient_request_exits_three(self, tmp_path, capsys):
        z = (tmp_path / "z.csv")
        z.write_text("1,2\n2,4\n")
        y = (tmp_path / "y.csv")
        y.write_text("1\n2\n")
        code, stdout, stderr = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "2", "--out", tmp_path / "m.json"], capsys
        )
        assert code == 3 and stdout == ""
        assert error_of(stderr)["error"] == "DegenerateSpectrum"

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["fit", "--z", tmp_path / "ghost.csv", "--y", tmp_path / "ghost.csv",
             "--k", "1", "--out", tmp_path / "m.json"], capsys
        )
        assert code == 2
        assert error_of(stderr)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("bad", ["z", "y"])
    def test_undecodable_input_exits_two(self, tmp_path, identity_files, capsys, bad):
        z, y = identity_files
        paths = {"z": z, "y": y}
        paths[bad] = tmp_path / "bad.csv"
        paths[bad].write_bytes(b"1\n\xff\n")
        code, stdout, stderr = run_cli(
            ["fit", "--z", paths["z"], "--y", paths["y"], "--k", "1",
             "--out", tmp_path / "m.json"], capsys
        )
        assert code == 2 and stdout == ""
        err = error_of(stderr)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{paths[bad]}: not valid ")

    def test_field_over_the_csv_size_limit_exits_two(self, tmp_path, identity_files, capsys):
        _, y = identity_files
        z = tmp_path / "long_field.csv"
        z.write_text("1" * 140_000 + "\n")
        code, stdout, stderr = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "1", "--out", tmp_path / "m.json"], capsys
        )
        assert code == 2 and stdout == ""
        err = error_of(stderr)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{z}: field larger than field limit")

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code, stdout, stderr = run_cli([], capsys)
        assert code == 2 and stdout == ""
        assert error_of(stderr)["error"] == "UsageError"


class TestPredict:
    def _fit_identity(self, tmp_path, identity_files, capsys):
        z, y = identity_files
        model = tmp_path / "model.json"
        code, _, _ = run_cli(["fit", "--z", z, "--y", y, "--k", "3", "--out", model], capsys)
        assert code == 0
        return model, z

    def test_same_rank_round_trip(self, tmp_path, identity_files, capsys):
        model, z = self._fit_identity(tmp_path, identity_files, capsys)
        out = tmp_path / "pred.csv"
        code, stdout, _ = run_cli(
            ["predict", "--model", model, "--z-test", z, "--ell", "same", "--out", out], capsys
        )
        assert code == 0
        diag = diag_of(stdout)
        assert diag["ell"] == 3 and diag["ell_effective"] == 3
        assert diag["clamped_rows"] == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,y_hat,clamped"
        got = [line.split(",") for line in lines[1:]]
        assert [g[0] for g in got] == ["0", "1", "2"]
        np.testing.assert_allclose([float(g[1]) for g in got], [1.0, 2.0, 3.0], rtol=1e-10)
        assert [g[2] for g in got] == ["0", "0", "0"]

    def test_bound_clamps_and_flags(self, tmp_path, identity_files, capsys):
        model, z = self._fit_identity(tmp_path, identity_files, capsys)
        out = tmp_path / "pred.json"
        code, stdout, _ = run_cli(
            ["predict", "--model", model, "--z-test", z, "--ell", "same",
             "--bound", "2.5", "--out", out, "--format", "json"], capsys
        )
        assert code == 0
        assert diag_of(stdout)["clamped_rows"] == 1
        rows = json.loads(out.read_text())
        assert [r["index"] for r in rows] == [0, 1, 2]
        assert [r["clamped"] for r in rows] == [False, False, True]
        np.testing.assert_allclose([r["y_hat"] for r in rows], [1.0, 2.0, 2.5], rtol=1e-10)

    def test_ell_validation(self, tmp_path, identity_files, capsys):
        model, z = self._fit_identity(tmp_path, identity_files, capsys)
        code, _, stderr = run_cli(
            ["predict", "--model", model, "--z-test", z, "--ell", "none",
             "--out", tmp_path / "p.csv"], capsys
        )
        assert code == 2
        assert error_of(stderr)["error"] == "UsageError"

    @pytest.mark.parametrize("ell, message", [
        ("none", "argument --ell: expected an integer or 'same', got 'none'"),
        ("0", "argument --ell: ell must be a positive integer or 'same'"),
    ])
    def test_bad_ell_messages(self, tmp_path, identity_files, capsys, ell, message):
        model, z = self._fit_identity(tmp_path, identity_files, capsys)
        code, _, stderr = run_cli(
            ["predict", "--model", model, "--z-test", z, "--ell", ell,
             "--out", tmp_path / "p.csv"], capsys
        )
        assert code == 2
        assert error_of(stderr) == {"error": "UsageError", "message": message}


class TestColumnLabels:
    """A model fitted with --has-header matches test columns by label."""

    def _fit(self, tmp_path, capsys):
        rng = np.random.default_rng(40)
        labels = ["a", "b", "c", "d", "e", "f"]
        x = rng.standard_normal((30, 6))
        x[rng.random(x.shape) < 0.1] = np.nan
        z = write_csv(tmp_path / "z.csv", x, header=labels)
        y = write_csv(tmp_path / "y.csv", rng.standard_normal((30, 1)))
        model = tmp_path / "model.json"
        code, _, _ = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "3", "--has-header", "--out", model], capsys
        )
        assert code == 0
        assert json.loads(model.read_text())["col_labels"] == labels
        return model, rng.standard_normal((8, 6)), labels

    def _predict(self, tmp_path, capsys, model, x_test, labels, name):
        z_test = write_csv(tmp_path / f"{name}.csv", x_test, header=labels)
        out = tmp_path / f"{name}_pred.csv"
        code, _, stderr = run_cli(
            ["predict", "--model", model, "--z-test", z_test, "--ell", "same",
             "--has-header", "--out", out], capsys
        )
        return code, out, stderr

    def test_reordered_header_predicts_the_same_bytes(self, tmp_path, capsys):
        model, x_test, labels = self._fit(tmp_path, capsys)
        code, same, _ = self._predict(tmp_path, capsys, model, x_test, labels, "same")
        assert code == 0
        order = [3, 0, 5, 1, 4, 2]
        code, moved, _ = self._predict(
            tmp_path, capsys, model, x_test[:, order], [labels[j] for j in order], "moved"
        )
        assert code == 0
        assert moved.read_bytes() == same.read_bytes()

    def test_renamed_column_exits_two(self, tmp_path, capsys):
        model, x_test, labels = self._fit(tmp_path, capsys)
        code, out, stderr = self._predict(
            tmp_path, capsys, model, x_test, labels[:-1] + ["g"], "renamed"
        )
        assert code == 2
        assert error_of(stderr)["error"] == "SchemaMismatch"
        assert "no column labelled 'f'" in error_of(stderr)["message"]
        assert not out.exists()


def _panel_files(tmp_path, header=True):
    rng = np.random.default_rng(7)
    donors = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 4))
    weights = rng.standard_normal(4)
    target = donors @ weights
    table = np.column_stack([target, donors])
    table[6:, 0] = np.nan                      # post-period target unobserved
    labels = ["target", "d1", "d2", "d3", "d4"] if header else None
    path = write_csv(tmp_path / "panel.csv", table, header=labels)
    return path, donors[6:] @ weights


class TestSc:
    def test_exact_donor_combination(self, tmp_path, capsys):
        panel, expected = _panel_files(tmp_path)
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(
            ["sc", "--panel", panel, "--target", "target", "--pre", "6", "--out", out], capsys
        )
        assert code == 0
        diag = diag_of(stdout)
        assert diag["command"] == "sc" and diag["target"] == "target"
        assert diag["k"] == 2
        assert diag["subspace_leakage"] <= 1e-8
        lines = out.read_text().splitlines()
        assert lines[0] == "time,estimate"
        assert [line.split(",")[0] for line in lines[1:]] == ["6", "7", "8"]
        got = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_headerless_panel_with_index_target(self, tmp_path, capsys):
        panel, expected = _panel_files(tmp_path, header=False)
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(
            ["sc", "--panel", panel, "--target", "0", "--pre", "6",
             "--no-header", "--out", out], capsys
        )
        assert code == 0
        got = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_unknown_target_exits_two(self, tmp_path, capsys):
        panel, _ = _panel_files(tmp_path)
        code, _, stderr = run_cli(
            ["sc", "--panel", panel, "--target", "ghost", "--pre", "6",
             "--out", tmp_path / "t.csv"], capsys
        )
        assert code == 2
        assert error_of(stderr)["error"] == "UnknownUnit"

    def test_target_label_naming_two_columns_exits_two(self, tmp_path, capsys):
        panel, expected = _panel_files(tmp_path)
        lines = panel.read_text().splitlines()
        assert lines[0] == "target,d1,d2,d3,d4"
        panel.write_text("\n".join(["target,d1,d1,d2,d3", *lines[1:]]) + "\n")
        out = tmp_path / "traj.csv"
        code, stdout, stderr = run_cli(
            ["sc", "--panel", panel, "--target", "d1", "--pre", "6", "--out", out], capsys
        )
        assert code == 2 and stdout == ""
        error = error_of(stderr)
        assert error["error"] == "UnknownUnit"
        assert error["message"] == "unit 'd1' labels columns [1, 2], expected one"
        assert not out.exists()
        # the same repeated label on donors only is legal
        code, stdout, _ = run_cli(
            ["sc", "--panel", panel, "--target", "target", "--pre", "6", "--out", out], capsys
        )
        assert code == 0 and diag_of(stdout)["k"] == 2
        got = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_one_post_period(self, tmp_path, capsys):
        # 9 rows, 8 pre periods: ell defaults to min(k, 1) instead of failing
        rng = np.random.default_rng(7)
        donors = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 4))
        table = np.column_stack([donors @ rng.standard_normal(4), donors])
        table[8, 0] = np.nan
        panel = write_csv(tmp_path / "panel.csv", table, ["target", "d1", "d2", "d3", "d4"])
        out = tmp_path / "traj.csv"
        code, stdout, stderr = run_cli(
            ["sc", "--panel", panel, "--target", "target", "--pre", "8", "--k", "2",
             "--out", out], capsys
        )
        assert code == 0 and stderr == ""
        diag = diag_of(stdout)
        assert diag["k"] == 2 and diag["ell_effective"] == 1
        header, row = out.read_text().splitlines()
        assert header == "time,estimate" and row.split(",")[0] == "8"
        assert np.isfinite(float(row.split(",")[1]))

    def test_auto_rank_on_one_pre_period_is_one(self, tmp_path, capsys):
        # min(n, p) = 1: the default --k auto takes the only admissible rank
        panel, _ = _panel_files(tmp_path)
        outs = {}
        for extra in ([], ["--k", "1"]):
            out = tmp_path / f"traj{len(extra)}.csv"
            code, stdout, stderr = run_cli(
                ["sc", "--panel", panel, "--target", "target", "--pre", "1", "--out", out, *extra],
                capsys,
            )
            assert code == 0 and stderr == ""
            assert diag_of(stdout)["k"] == 1
            outs[len(extra)] = out.read_bytes()
        assert outs[0] == outs[2]

    def test_svd_failure_in_inclusion_check_exits_three(self, tmp_path, capsys, monkeypatch):
        # with k given, the first values-only SVD is the inclusion check's
        # spectral norm; LAPACK's error must surface as NoConverge, exit 3
        real = np.linalg.svd

        def values_fail(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                return real(a, *args, **kwargs)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", values_fail)
        panel, _ = _panel_files(tmp_path)
        code, stdout, stderr = run_cli(
            ["sc", "--panel", panel, "--target", "target", "--pre", "6", "--k", "2",
             "--out", tmp_path / "t.csv"], capsys
        )
        assert code == 3 and stdout == ""
        assert error_of(stderr)["error"] == "NoConverge"


class TestSpectrum:
    def test_diagonal_spectrum_table(self, tmp_path, capsys):
        z = write_csv(tmp_path / "z.csv", np.diag([3.0, 2.0, 1.0]))
        out = tmp_path / "spec.csv"
        code, stdout, _ = run_cli(["spectrum", "--z", z, "--out", out], capsys)
        assert code == 0
        diag = diag_of(stdout)
        assert diag["rho_hat"] == 1.0 and diag["count"] == 3
        assert diag["suggested_k"] == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "index,singular_value,gap_ratio"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[0] for c in cells] == ["1", "2", "3"]
        np.testing.assert_allclose([float(c[1]) for c in cells], [3.0, 2.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(float(cells[0][2]), 1.5, rtol=1e-9)
        np.testing.assert_allclose(float(cells[1][2]), 2.0, rtol=1e-9)
        assert cells[2][2] == ""               # no ratio after the last value

    def test_json_format_uses_null(self, tmp_path, capsys):
        z = write_csv(tmp_path / "z.csv", np.diag([3.0, 2.0, 1.0]))
        out = tmp_path / "spec.json"
        code, _, _ = run_cli(["spectrum", "--z", z, "--out", out, "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[-1]["gap_ratio"] is None

    def test_values_match_the_full_svd(self, tmp_path, capsys):
        # the table comes from a values-only SVD; it agrees with the
        # vectors-computing SVD to rounding
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 50))
        x += 0.5 * rng.standard_normal(x.shape)
        x[rng.random(x.shape) < 0.2] = np.nan
        z = write_csv(tmp_path / "z.csv", x)
        out = tmp_path / "spec.csv"
        code, _, _ = run_cli(["spectrum", "--z", z, "--out", out], capsys)
        assert code == 0
        got = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
        full = svd(rescale(MaskedMatrix(values=x, mask=~np.isnan(x)))[0]).singular_values
        assert got.shape == full.shape
        assert np.max(np.abs(got - full)) <= 1e-14 * full[0]

    def test_svd_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        z = write_csv(tmp_path / "z.csv", np.eye(3))
        code, _, stderr = run_cli(["spectrum", "--z", z, "--out", tmp_path / "s.csv"], capsys)
        assert code == 3
        assert error_of(stderr)["error"] == "NoConverge"


def _fixture_designs():
    """The designs the fit and spectrum tests above run on."""
    rng = np.random.default_rng(0)
    factor = rng.standard_normal((100, 10)) @ rng.standard_normal((10, 100))
    factor += np.sqrt(0.2) * rng.standard_normal((100, 100))
    return {"identity": np.eye(3), "diagonal": np.diag([3.0, 2.0, 1.0]), "factor": factor}


@pytest.mark.parametrize("name", sorted(_fixture_designs()))
def test_auto_rank_unchanged_by_values_only_spectrum(tmp_path, capsys, name):
    # fit --k auto and spectrum's suggested_k pick the rank the full SVD's
    # spectrum gives
    x = _fixture_designs()[name]
    z = write_csv(tmp_path / "z.csv", x)
    y = write_csv(tmp_path / "y.csv", np.ones((x.shape[0], 1)))
    want = _auto_k(svd(x).singular_values, *x.shape)
    code, stdout, _ = run_cli(
        ["fit", "--z", z, "--y", y, "--k", "auto", "--out", tmp_path / "m.json"], capsys
    )
    assert code == 0 and diag_of(stdout)["k"] == want
    code, stdout, _ = run_cli(["spectrum", "--z", z, "--out", tmp_path / "s.csv"], capsys)
    assert code == 0 and diag_of(stdout)["suggested_k"] == want


class TestExperiment:
    def _run(self, tmp_path, capsys, name, out, extra=()):
        argv = ["experiment", "--name", name, "--seeds", "2", "--out", out, *extra]
        if name != "identification":
            argv += ["--size", "60"]
        return run_cli(argv, capsys)

    def test_outputs_are_reproducible_bytes(self, tmp_path, capsys):
        code1, out1, _ = self._run(tmp_path, capsys, "subspace", tmp_path / "a")
        code2, out2, _ = self._run(tmp_path, capsys, "subspace", tmp_path / "b")
        assert code1 == code2 == 0
        d1, d2 = diag_of(out1), diag_of(out2)
        assert d1.pop("out") != d2.pop("out")
        assert d1 == d2
        assert d1["trials"] == 2 and d1["threads"] == 1
        assert d1["blas_threads"] == (None if _blas._openblas() is None else 1)
        for name in ("trials.csv", "aggregates.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        doc = json.loads((tmp_path / "a" / "aggregates.json").read_text())
        assert doc["name"] == "subspace"
        assert len(doc["aggregates"]) == 1

    def test_thread_count_does_not_change_results(self, tmp_path, capsys, monkeypatch):
        self._run(tmp_path, capsys, "shift", tmp_path / "serial", extra=["--noise", "0.3"])
        monkeypatch.setenv("EIV_PCR_THREADS", "2")
        _, out, _ = self._run(tmp_path, capsys, "shift", tmp_path / "par", extra=["--noise", "0.3"])
        assert diag_of(out)["threads"] == 2
        assert diag_of(out)["blas_threads"] == (None if _blas._openblas() is None else 1)
        assert (tmp_path / "serial" / "trials.csv").read_bytes() == (
            tmp_path / "par" / "trials.csv"
        ).read_bytes()

    def test_diagnostics_report_unpinned_blas(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        code, out, _ = self._run(tmp_path, capsys, "subspace", tmp_path / "x")
        assert code == 0
        assert diag_of(out)["blas_threads"] is None

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # on the process's own BLAS threading, p=128 with seed 0 differs in
        # its last bits between the first two settings
        if _blas._openblas() is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        digests = []
        for blas, workers in (("1", "1"), ("2", "0"), ("1", "0"), ("2", "1")):
            out = tmp_path / f"blas{blas}_workers{workers}"
            env = {**os.environ, "PYTHONPATH": _SRC,
                   "OPENBLAS_NUM_THREADS": blas, "EIV_PCR_THREADS": workers}
            subprocess.run(
                [sys.executable, "-m", "eivpcr.cli", "experiment", "--name", "identification",
                 "--p", "64", "--p", "128", "--seeds", "1", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            digests.append({
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("trials.csv", "aggregates.json")
            })
        assert all(d == digests[0] for d in digests)

    def test_bad_thread_env_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EIV_PCR_THREADS", "many")
        code, _, stderr = self._run(tmp_path, capsys, "subspace", tmp_path / "x")
        assert code == 2
        assert error_of(stderr)["error"] == "BadParam"

    def test_identification_rejects_size(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["experiment", "--name", "identification", "--size", "50",
             "--seeds", "1", "--out", tmp_path / "x"], capsys
        )
        assert code == 2
        assert error_of(stderr)["error"] == "BadParam"

    @pytest.mark.parametrize("argv, message", [
        (["--name", "identification", "--size", "10"],
         "identification sweeps its own sample sizes; --size is not applicable"),
        (["--name", "shift", "--size", "10", "--seeds", "1"], "size=10 must be >= 50"),
        (["--name", "subspace", "--noise", "0.1", "--noise", "0.1", "--size", "60", "--seeds", "2"],
         "noise variance 0.1 repeats 0.1"),
        (["--name", "identification", "--p", "27", "--p", "27", "--seeds", "1"],
         "dimension 27 repeats 27"),
        (["--name", "identification", "--p", "27", "--seeds", "1", "--seed", "-1"],
         "--seed -1 must be >= 0"),
        (["--name", "shift", "--noise", "10", "--noise", "10.000001", "--size", "50", "--seeds", "1"],
         "noise variance 10.000001 repeats 10.0"),
    ])
    def test_rejected_run_exits_two_and_creates_no_out_dir(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d"
        code, stdout, stderr = run_cli(["experiment", *argv, "--out", out], capsys)
        assert code == 2
        assert stdout == ""
        assert error_of(stderr) == {"error": "BadParam", "message": message}
        assert not out.exists()

    def test_negative_zero_noise_writes_the_bytes_of_zero(self, tmp_path, capsys):
        outs = []
        for noise in ("-0.0", "0"):
            out = tmp_path / noise
            code, _, _ = run_cli(
                ["experiment", "--name", "subspace", "--size", "50", "--seeds", "1",
                 "--noise", noise, "--out", out], capsys
            )
            assert code == 0
            outs.append([(out / name).read_bytes() for name in ("trials.csv", "aggregates.json")])
        assert outs[0] == outs[1]

    def test_out_naming_a_file_is_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran")

        monkeypatch.setattr(experiments, "_run_trials", no_trials)
        out = tmp_path / "taken"
        out.write_text("keep")
        code, _, stderr = self._run(tmp_path, capsys, "subspace", out)
        assert code == 2
        assert error_of(stderr)["error"] == "BadParam"
        assert out.read_text() == "keep"

    def test_identification_mini_run(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            ["experiment", "--name", "identification", "--p", "27",
             "--seeds", "2", "--out", tmp_path / "ident"], capsys
        )
        assert code == 0
        assert diag_of(stdout)["trials"] == 16
        header = (tmp_path / "ident" / "trials.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "config"


def _blas_sensitive_files(tmp_path):
    """Inputs on which every command's bytes, left on the process's BLAS
    threading, differ between one and two OpenBLAS threads (numpy 2.4.6 with
    its bundled OpenBLAS 0.3.31, 2-vCPU x86-64): 300x150 train and test
    designs of rank 5 with about 20% and 30% of cells missing, and a 180x501
    panel with 150 pre periods. They are the smallest such inputs found;
    300x120 designs and 150x301 panels gave equal bytes on both settings."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((150, 5))
    x = rng.standard_normal((300, 5)) @ v.T
    x_test = rng.standard_normal((300, 5)) @ v.T
    y = x @ rng.standard_normal(150) / np.sqrt(150) + 0.1 * rng.standard_normal(300)
    z = x + 0.5 * rng.standard_normal(x.shape)
    z[rng.random(z.shape) >= 0.8] = np.nan
    z_test = x_test + 0.5 * rng.standard_normal(x_test.shape)
    z_test[rng.random(z_test.shape) >= 0.7] = np.nan
    latent = rng.standard_normal((180, 4)) @ rng.standard_normal((500, 4)).T
    panel = np.column_stack([
        latent @ rng.standard_normal(500) / np.sqrt(500) + 0.5 * rng.standard_normal(180),
        latent + 0.5 * rng.standard_normal(latent.shape),
    ])
    panel[:, 1:][rng.random(latent.shape) < 0.1] = np.nan
    return {
        "z": write_csv(tmp_path / "z.csv", z),
        "y": write_csv(tmp_path / "y.csv", y[:, None]),
        "z_test": write_csv(tmp_path / "z_test.csv", z_test),
        "panel": write_csv(tmp_path / "panel.csv", panel,
                           ["target"] + [f"d{j}" for j in range(1, 501)]),
    }


class TestBlasPin:
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        if _blas._openblas() is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        f = _blas_sensitive_files(tmp_path)
        digests = {}
        for blas in ("1", "2"):
            out = tmp_path / f"blas{blas}"
            out.mkdir()
            commands = {
                "model.json": ["fit", "--z", f["z"], "--y", f["y"], "--k", "auto",
                               "--out", out / "model.json"],
                # both settings predict from the one-thread model, so the
                # predictions can differ only through predict's own work
                "pred.csv": ["predict", "--model", tmp_path / "blas1" / "model.json",
                             "--z-test", f["z_test"], "--ell", "same", "--out", out / "pred.csv"],
                "spectrum.csv": ["spectrum", "--z", f["z"], "--out", out / "spectrum.csv"],
                "trajectory.csv": ["sc", "--panel", f["panel"], "--target", "target",
                                   "--pre", "150", "--out", out / "trajectory.csv"],
            }
            env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": blas}
            for argv in commands.values():
                done = subprocess.run(
                    [sys.executable, "-m", "eivpcr.cli", *map(str, argv)],
                    env=env, check=True, capture_output=True, text=True, timeout=300,
                )
                assert diag_of(done.stdout)["blas_threads"] == 1
            digests[blas] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in commands
            }
        assert digests["1"] == digests["2"]

    def test_artifacts_do_not_depend_on_the_qr_route(self, tmp_path, capsys, monkeypatch):
        # in process and pinned both times; only the small-side QR moves
        # from the library's dgeqrf to numpy.linalg.qr
        found = _blas._openblas()
        if found is None or found.dgeqrf is None:
            pytest.skip("numpy's bundled OpenBLAS has no ILP64 dgeqrf")
        f = _blas_sensitive_files(tmp_path)
        digests = {}
        for route, loader in (("dgeqrf", lambda: found),
                              ("numpy", lambda: found._replace(dgeqrf=None))):
            monkeypatch.setattr(_blas, "_openblas", loader)
            out = tmp_path / route
            out.mkdir()
            # a tall fit and predict (300 x 150); sc's 150 x 500 pre and
            # 30 x 500 post blocks are wide
            commands = {
                "model.json": ["fit", "--z", f["z"], "--y", f["y"], "--k", "auto",
                               "--out", out / "model.json"],
                "pred.csv": ["predict", "--model", out / "model.json", "--z-test", f["z_test"],
                             "--ell", "same", "--out", out / "pred.csv"],
                "trajectory.csv": ["sc", "--panel", f["panel"], "--target", "target",
                                   "--pre", "150", "--out", out / "trajectory.csv"],
            }
            for argv in commands.values():
                assert run_cli(argv, capsys)[0] == 0
            digests[route] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in commands
            }
        assert digests["dgeqrf"] == digests["numpy"]

    @pytest.mark.parametrize("exit_code", [0, 2, 3])
    def test_main_restores_the_callers_thread_count(
        self, tmp_path, identity_files, capsys, monkeypatch, blas_count, exit_code
    ):
        z, y = identity_files
        if exit_code == 2:
            z = tmp_path / "ghost.csv"
        elif exit_code == 3:
            z = write_csv(tmp_path / "rank1.csv", np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
        seen = []
        read = cli.read_masked_csv

        def spy(spec):
            seen.append(blas_count())
            return read(spec)

        monkeypatch.setattr(cli, "read_masked_csv", spy)
        code, _, _ = run_cli(
            ["fit", "--z", z, "--y", y, "--k", "3", "--out", tmp_path / "m.json"], capsys
        )
        assert code == exit_code
        assert seen == [1]
        assert blas_count() == 2

    @pytest.mark.parametrize("found", [True, False], ids=["found", "not-found"])
    def test_every_command_reports_blas_threads(
        self, tmp_path, identity_files, capsys, monkeypatch, found
    ):
        expected = 1 if found and _blas._openblas() is not None else None
        if not found:
            monkeypatch.setattr(_blas, "_openblas", lambda: None)
        z, y = identity_files
        panel, _ = _panel_files(tmp_path)
        model = tmp_path / "m.json"
        commands = [
            ["fit", "--z", z, "--y", y, "--k", "3", "--out", model],
            ["predict", "--model", model, "--z-test", z, "--ell", "same",
             "--out", tmp_path / "p.csv"],
            ["spectrum", "--z", z, "--out", tmp_path / "s.csv"],
            ["sc", "--panel", panel, "--target", "target", "--pre", "6",
             "--out", tmp_path / "t.csv"],
            ["experiment", "--name", "identification", "--p", "8", "--seeds", "1",
             "--out", tmp_path / "exp"],
        ]
        for argv in commands:
            code, stdout, _ = run_cli(argv, capsys)
            assert code == 0
            diag = diag_of(stdout)
            assert diag["command"] == argv[0]
            assert diag["blas_threads"] == expected
