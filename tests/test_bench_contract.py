"""Names the benchmark under bench/ relies on.

bench/spans.py traces eivpcr functions by module and attribute name, and
bench/oracle.py and bench/workloads.py import simlab, dataio and pcr
helpers. Renaming or deleting any of them breaks the benchmark without
failing a package test, so the lookups are repeated here. spans.py is
loaded by path, unchanged.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import eivpcr

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().TARGETS
    assert "eivpcr.simlab.experiments" in targets
    for module, funcs in targets.items():
        mod = importlib.import_module(module)
        for func in funcs:
            assert callable(getattr(mod, func, None)), f"{module}.{func}"


def test_simlab_names_used_by_the_oracle_and_workloads():
    from eivpcr.simlab import make_identification_trial
    from eivpcr.simlab.experiments import IDENTIFICATION_RATIOS

    assert len(IDENTIFICATION_RATIOS) == 8
    p, n, r, seed = 27, 30, 3, 4
    trial = make_identification_trial(p, n, r, seed)  # positionally, as the oracle does
    # the oracle refits from the masked train design and scores beta_star
    assert trial.z_train.mask.shape == trial.z_train.values.shape == (n, p)
    assert trial.z_train.mask.dtype == bool
    assert trial.y.shape == (n,)
    assert trial.beta_star.shape == (p,)


def test_cli_import_loads_every_traced_module():
    # spans.installed() imports eivpcr.cli and then reads sys.modules for
    # each TARGETS module, so none of them may be imported lazily
    code = (
        "import sys, eivpcr.cli\n"
        "print('\\n'.join(m for m in sys.argv[1:] if m not in sys.modules))\n"
    )
    src = str(Path(eivpcr.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *_load_spans().TARGETS],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.split() == []


def test_dataio_and_pcr_names_used_by_the_workloads(tmp_path):
    from eivpcr.dataio import CsvMatrixSpec, read_masked_csv, read_response_csv
    from eivpcr.pcr import fit

    (tmp_path / "z.csv").write_text("1,0\n0,NA\n1,1\n")
    (tmp_path / "y.csv").write_text("1\n0\n1\n")
    z = read_masked_csv(CsvMatrixSpec(path=tmp_path / "z.csv"))
    y = read_response_csv(CsvMatrixSpec(path=tmp_path / "y.csv"))
    assert fit(z, y, 1).k == 1  # called positionally, as the workloads do
