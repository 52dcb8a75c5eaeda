"""Names the benchmark under bench/ relies on.

bench/spans.py traces eivpcr functions by module and attribute name, and
bench/oracle.py and bench/workloads.py import simlab helpers. Renaming or
deleting any of them breaks the benchmark without failing a package test,
so the lookups are repeated here. spans.py is loaded by path, unchanged.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

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

    assert callable(make_identification_trial)
    assert len(IDENTIFICATION_RATIOS) == 8
