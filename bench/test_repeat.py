"""Checks of the benchmark itself.

Two traced runs with the same seed must agree exactly on the work
counters and on every artifact's SHA-256, and the LAPACK SVD counts must
equal the baselines measured at the seed commit by wrapping
``numpy.linalg.svd``. Run from the repository root (about two minutes):

    python -m pytest bench/test_repeat.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"

EXACT = ("core.lapack_svd_calls", "dataio.cells_read", "dataio.bytes_written")

# numpy.linalg.svd calls at the seed commit: `fit --k auto` 2, `predict` 1,
# `spectrum` 1, `sc` 6, and 3 per identification trial. Work that
# factorizes each matrix once reports against these.
CLI_BASELINE = {
    "cli.fit_lapack_svd_calls": 2,
    "cli.predict_lapack_svd_calls": 1,
    "cli.spectrum_lapack_svd_calls": 1,
    "cli.sc_lapack_svd_calls": 6,
    "synthetic_control.lapack_svd_calls_per_fit": 6,
    "core.lapack_svd_calls": 10,
}
BASELINE = {
    "cli_small": CLI_BASELINE,
    "cli_large": CLI_BASELINE,
    # 3 p values x 8 sample sizes x 1 seed = 24 trials
    "lab_identification": {"simlab.lapack_svd_calls_per_trial": 3, "core.lapack_svd_calls": 72},
}


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_counters_and_artifacts_repeat_exactly(workload):
    (report1, result1), (report2, result2) = traced_run(workload, 7), traced_run(workload, 7)
    for result in (result1, result2):
        assert result["correct"] and result["failed"] == 0
    values1 = {k: v["value"] for k, v in result1["metrics"].items()}
    values2 = {k: v["value"] for k, v in result2["metrics"].items()}
    for name in EXACT:
        assert values1[name] == values2[name], name
    assert report1["artifacts_sha256"] == report2["artifacts_sha256"]
    for name, want in BASELINE[workload].items():
        assert values1[name] == want, name


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
