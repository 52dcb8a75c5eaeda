import numpy as np
import pytest
from hypothesis import given, strategies as st

from eivpcr import (
    AllZero,
    BadParam,
    EmptySpectrum,
    select_rank_largest_gap,
    svd,
)
from eivpcr.rank_selection import gap_ratios, select_rank_energy


class TestLargestGap:
    def test_clear_gap_at_two(self):
        assert select_rank_largest_gap([10.0, 9.5, 0.1, 0.09], k_max=3) == 2

    def test_flat_spectrum_tie_breaks_low(self):
        assert select_rank_largest_gap([5.0, 5.0, 5.0, 5.0], k_max=3) == 1

    def test_respects_k_max(self):
        s = [10.0, 9.0, 8.0, 0.001]
        assert select_rank_largest_gap(s, k_max=2) in (1, 2)

    def test_k_max_out_of_range(self):
        with pytest.raises(BadParam):
            select_rank_largest_gap([3.0, 2.0, 1.0], k_max=0)
        with pytest.raises(BadParam):
            select_rank_largest_gap([3.0, 2.0, 1.0], k_max=3)

    def test_short_or_empty_spectrum(self):
        with pytest.raises(EmptySpectrum):
            select_rank_largest_gap([], k_max=1)
        with pytest.raises(EmptySpectrum):
            select_rank_largest_gap([2.0], k_max=1)

    def test_zero_top_rejected(self):
        with pytest.raises(AllZero):
            select_rank_largest_gap([0.0, 0.0], k_max=1)

    def test_elbow_found_on_noisy_low_rank_ensemble(self):
        # rank-10 signal plus entrywise noise at 100x100: the elbow after
        # the 10th singular value should dominate for nearly every draw
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(100, 10)) @ rng.normal(size=(10, 100))
            z = x + np.sqrt(0.2) * rng.normal(size=(100, 100))
            s = svd(z).singular_values
            hits += select_rank_largest_gap(s, k_max=50) == 10
        assert hits >= 95


class TestEnergy:
    def test_single_spike(self):
        assert select_rank_energy([1.0, 0.0, 0.0], 0.9) == 1

    def test_even_split_needs_both(self):
        assert select_rank_energy([1.0, 1.0], 0.6) == 2

    def test_cumsum_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = np.sort(rng.uniform(0.01, 10.0, size=8))[::-1]
            frac = rng.uniform(0.05, 0.95)
            k = select_rank_energy(s, frac)
            total = np.sum(s**2)
            assert np.sum(s[:k] ** 2) >= frac * total
            if k > 1:
                assert np.sum(s[: k - 1] ** 2) < frac * total

    def test_fraction_out_of_range(self):
        for frac in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(BadParam):
                select_rank_energy([2.0, 1.0], frac)


class TestGapRatios:
    def test_lengths(self):
        assert gap_ratios([3.0, 2.0, 1.0]).shape == (2,)
        assert gap_ratios([3.0]).shape == (0,)

    def test_trailing_zero_stays_finite(self):
        ratios = gap_ratios([1.0, 0.0])
        assert np.isfinite(ratios).all()
        assert ratios[0] == pytest.approx(1e12)


@st.composite
def _bounded_step_spectra(draw):
    # exact rank-r spectra whose consecutive decay is bounded, so the
    # trailing-zero gap dominates any interior step
    r = draw(st.integers(min_value=1, max_value=6))
    tail = draw(st.integers(min_value=1, max_value=6))
    steps = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=10.0),
            min_size=r - 1,
            max_size=r - 1,
        )
    )
    s = [1.0]
    for step in steps:
        s.append(s[-1] / step)
    s.extend([0.0] * tail)
    k_max = draw(st.integers(min_value=r, max_value=len(s) - 1))
    return np.array(s), r, k_max


@given(_bounded_step_spectra())
def test_exact_rank_spectra_recover_r(case):
    s, r, k_max = case
    assert select_rank_largest_gap(s, k_max=k_max) == r


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.01, 5.0, size=6))[::-1]
    base = select_rank_largest_gap(s, k_max=5)
    assert select_rank_largest_gap(scale * s, k_max=5) == base
    assert 1 <= base <= 5
