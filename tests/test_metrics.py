import math

import numpy as np
import pytest

from eivpcr import BadParam, ShapeMismatch, mean_squared_error
from eivpcr.metrics import rmse, snr_report


class TestMeanSquaredError:
    def test_identical_vectors(self):
        assert mean_squared_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_simple_value(self):
        # squared gaps: 1, 4 -> mean 2.5
        assert mean_squared_error([0.0, 0.0], [1.0, 2.0]) == 2.5

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=40), rng.normal(size=40)
        expected = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / 40
        assert mean_squared_error(a, b) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mean_squared_error([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            mean_squared_error([], [])

    def test_rmse_is_square_root(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=17), rng.normal(size=17)
        assert rmse(a, b) == pytest.approx(math.sqrt(mean_squared_error(a, b)), rel=1e-15)


class TestSnr:
    def test_exact_literal(self):
        # 1.0 * 50 / (sqrt(100) + sqrt(100)) = 50 / 20
        assert snr_report(50.0, 1.0, 100, 100) == 2.5

    def test_partial_observation_scales_linearly(self):
        full = snr_report(10.0, 1.0, 64, 49)
        assert snr_report(10.0, 0.5, 64, 49) == pytest.approx(0.5 * full, rel=1e-15)

    def test_formula(self):
        assert snr_report(7.0, 0.8, 9, 16) == pytest.approx(0.8 * 7.0 / 7.0, rel=1e-15)

    def test_bad_params(self):
        with pytest.raises(BadParam):
            snr_report(0.0, 1.0, 10, 10)
        with pytest.raises(BadParam):
            snr_report(1.0, 0.0, 10, 10)
        with pytest.raises(BadParam):
            snr_report(1.0, 1.5, 10, 10)
        with pytest.raises(BadParam):
            snr_report(1.0, 1.0, 0, 10)
