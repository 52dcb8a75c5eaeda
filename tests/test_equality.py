"""Equality rule of the frozen dataclasses: types that hold arrays (or a
dict) compare and hash by identity, except the lab's report, which compares
by value and is unhashable; the value-like ones compare by value."""
import numpy as np
import pytest

from eivpcr import (
    MaskedMatrix,
    PanelDataset,
    PredictionConfig,
    fit,
    fit_rsc,
    predict_detailed,
    svd,
)
from eivpcr.dataio import CsvMatrixSpec
from eivpcr.simlab import gen_panel_ife, make_identification_trial, run_experiment_subspace


def _design():
    x = np.arange(12.0).reshape(4, 3) ** 1.5
    return MaskedMatrix(values=x, mask=np.ones(x.shape, dtype=bool))


def _panel():
    return gen_panel_ife(8, 2, 4, 2, 0.1, seed=3).panel


# each builds a fresh instance; two calls give equal field values
_BUILDERS = {
    "MaskedMatrix": _design,
    "SvdFactors": lambda: svd(_design().values),
    "PcrModel": lambda: fit(_design(), [1.0, 2.0, 0.0, 1.0], 2),
    "Prediction": lambda: predict_detailed(
        fit(_design(), [1.0, 2.0, 0.0, 1.0], 2), _design(), PredictionConfig(ell=2)
    ),
    "CounterfactualResult": lambda: fit_rsc(_panel(), k=2),
    "TrialData": lambda: make_identification_trial(8, 20, 2, seed=1),
    "PanelTrial": lambda: gen_panel_ife(8, 2, 4, 2, 0.1, seed=3),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_array_holding_results_compare_and_hash_by_identity(name):
    a, b = _BUILDERS[name](), _BUILDERS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [a] and a not in [b]
    assert [a, b].index(b) == 1
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_value_like_dataclasses_compare_by_value():
    outcomes = _panel().outcomes
    d1 = PanelDataset(outcomes=outcomes, target_col=0, pre_periods=8)
    d2 = PanelDataset(outcomes=outcomes, target_col=0, pre_periods=8)
    assert d1 is not d2 and d1 == d2 and hash(d1) == hash(d2)
    assert d1 != PanelDataset(outcomes=outcomes, target_col=1, pre_periods=8)
    # the same values in another MaskedMatrix are another dataset
    copy = MaskedMatrix(values=outcomes.values, mask=outcomes.mask)
    assert d1 != PanelDataset(outcomes=copy, target_col=0, pre_periods=8)

    assert CsvMatrixSpec("z.csv", has_header=True) == CsvMatrixSpec("z.csv", True)
    assert CsvMatrixSpec("z.csv") != CsvMatrixSpec("z.csv", has_header=True)
    assert hash(CsvMatrixSpec("z.csv")) == hash(CsvMatrixSpec("z.csv"))
    assert PredictionConfig(ell=2, bound=3) == PredictionConfig(ell=2, bound=3.0)
    assert PredictionConfig(ell=2) != PredictionConfig(ell=3)
    assert hash(PredictionConfig(ell=2)) == hash(PredictionConfig(ell=2))


def test_experiment_report_compares_by_value_and_is_unhashable():
    a, b = (run_experiment_subspace([0.2], [0], 50) for _ in range(2))
    assert a is not b and a == b and not a != b
    assert a != run_experiment_subspace([0.2], [1], 50)
    assert [a, b].index(b) == 0
    for op in (hash, lambda r: {r}):
        with pytest.raises(TypeError, match="^unhashable type: 'ExperimentReport'$"):
            op(a)
