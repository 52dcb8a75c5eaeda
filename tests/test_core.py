import ctypes
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from eivpcr import (
    AllMissing,
    BadParam,
    BadShape,
    MaskedMatrix,
    NoConverge,
    NonFinite,
    RankOutOfRange,
    SvdFactors,
    estimate_rho,
    rescale,
    select_rank_largest_gap,
    spectral_norm,
    svd,
    truncate_rank,
)
from eivpcr import _blas
from eivpcr.core import (
    _apply_sign_convention,
    _qr_r,
    _singular_values,
    _small_side_svd,
    _svd_of_product,
)
from eivpcr.simlab import (
    make_shift_trial, make_subspace_trial, run_experiment_identification, run_experiment_shift,
)

# Philox(12345) uniforms < 0.8 on 1000x1000; counted once with
# np.count_nonzero and frozen
_BERNOULLI_COUNT = 799_400


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestMaskedMatrix:
    def test_from_dense_fully_observed(self):
        m = MaskedMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        assert m.rows == 2 and m.cols == 2
        assert m.mask.all()
        assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_cells_hold_nan_sentinel(self):
        m = MaskedMatrix.from_dense(
            [[1.0, 2.0], [3.0, 4.0]], mask=[[True, False], [True, True]]
        )
        assert np.isnan(m.values[0, 1])
        assert m.values[1, 0] == 3.0

    def test_zero_filled_replaces_missing_with_exact_zero(self):
        # rescale zero-fills: with half the cells observed it doubles the
        # observed ones and leaves exactly 0 (not -0.0 or NaN) elsewhere
        m = MaskedMatrix.from_dense(
            [[1.0, 2.0], [3.0, 4.0]], mask=[[True, False], [False, True]]
        )
        rescaled, rho_hat = rescale(m)
        assert rho_hat == 0.5
        assert_array_equal(rescaled, [[2.0, 0.0], [0.0, 8.0]])
        assert not np.signbit(rescaled).any()

    def test_observed_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            MaskedMatrix.from_dense([[1.0, np.inf]])
        with pytest.raises(NonFinite):
            MaskedMatrix.from_dense([[np.nan, 1.0]])

    def test_unobserved_nonfinite_tolerated(self):
        m = MaskedMatrix.from_dense([[1.0, np.inf]], mask=[[True, False]])
        assert np.isnan(m.values[0, 1])

    def test_shape_mismatch(self):
        with pytest.raises(BadShape):
            MaskedMatrix(values=np.ones((2, 2)), mask=np.ones((2, 3), dtype=bool))

    def test_non_2d_rejected(self):
        with pytest.raises(BadShape):
            MaskedMatrix.from_dense([1.0, 2.0, 3.0])

    def test_bad_label_count(self):
        with pytest.raises(BadShape):
            MaskedMatrix.from_dense(np.ones((2, 3)), col_labels=("a", "b"))

    def test_caller_arrays_are_left_untouched(self):
        values = np.array([[1.0, np.inf], [3.0, 4.0]])
        mask = np.array([[True, False], [True, True]])
        before = values.copy(), mask.copy()
        m = MaskedMatrix(values=values, mask=mask)
        assert_array_equal(values, before[0])
        assert_array_equal(mask, before[1])
        assert values.flags.writeable and mask.flags.writeable
        assert not np.shares_memory(m.values, values)
        assert not np.shares_memory(m.mask, mask)
        assert np.isnan(m.values[0, 1])

    def test_arrays_are_read_only(self):
        m = MaskedMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            m.mask[0, 0] = False


class TestEstimateRho:
    def test_fully_observed(self):
        assert estimate_rho(MaskedMatrix.from_dense(np.ones((3, 3)))) == 1.0

    def test_one_missing_of_four(self):
        m = MaskedMatrix.from_dense(
            np.ones((2, 2)), mask=[[True, True], [True, False]]
        )
        assert estimate_rho(m) == 0.75

    def test_bernoulli_mask_frozen_count(self):
        rng = np.random.Generator(np.random.Philox(12345))
        mask = rng.uniform(size=(1000, 1000)) < 0.8
        assert int(np.count_nonzero(mask)) == _BERNOULLI_COUNT
        m = MaskedMatrix.from_dense(np.zeros((1000, 1000)), mask=mask)
        rho = estimate_rho(m)
        assert rho == _BERNOULLI_COUNT / 1_000_000
        assert abs(rho - 0.8) <= 0.01

    def test_all_missing(self):
        m = MaskedMatrix.from_dense(
            np.ones((2, 2)), mask=np.zeros((2, 2), dtype=bool)
        )
        with pytest.raises(AllMissing):
            estimate_rho(m)


class TestRescale:
    def test_fully_observed_is_identity(self):
        vals = _rng(1).normal(size=(4, 5))
        rescaled, rho_hat = rescale(MaskedMatrix.from_dense(vals))
        assert rho_hat == 1.0
        assert_array_equal(rescaled, vals)
        assert not rescaled.flags.writeable

    def test_half_observed_twos_become_fours(self):
        m = MaskedMatrix.from_dense(
            np.full((2, 2), 2.0), mask=[[True, False], [True, False]]
        )
        rescaled, rho_hat = rescale(m)
        assert rho_hat == 0.5
        assert_array_equal(rescaled, [[4.0, 0.0], [4.0, 0.0]])
        assert not rescaled.flags.writeable

    def test_elementwise_oracle(self):
        rng = _rng(7)
        vals = rng.normal(size=(10, 7))
        mask = rng.uniform(size=(10, 7)) < 0.6
        m = MaskedMatrix.from_dense(vals, mask=mask)
        rescaled, rho_hat = rescale(m)
        rho = np.count_nonzero(mask) / 70
        expected = np.empty((10, 7))
        for i in range(10):
            for j in range(7):
                expected[i, j] = vals[i, j] / rho if mask[i, j] else 0.0
        assert rho_hat == rho
        assert_array_equal(rescaled, expected)

    def test_all_missing(self):
        m = MaskedMatrix.from_dense(
            np.ones((3, 3)), mask=np.zeros((3, 3), dtype=bool)
        )
        with pytest.raises(AllMissing):
            rescale(m)


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert_allclose(f.singular_values, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(f.singular_values, [3.0, 2.0, 1.0], rtol=0, atol=1e-14)

    def test_gram_eigen_oracle(self):
        m = np.array(
            [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0], [4.0, 5.0, 6.0]]
        )
        eigs = np.linalg.eigvalsh(m.T @ m)[::-1]
        expected = np.sqrt(np.clip(eigs, 0.0, None))
        # the squared (Gram) route only resolves tiny singular values to
        # sqrt(eps) * s1, so the absolute floor scales with the spectrum top
        assert_allclose(
            svd(m).singular_values, expected, rtol=1e-10, atol=1e-7 * expected[0]
        )

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (8, 8), (1, 4), (6, 1)])
    def test_orthonormality_and_reconstruction(self, shape):
        m = _rng(sum(shape)).normal(size=shape)
        f = svd(m)
        q = min(shape)
        tol = 1e-10 * max(shape)
        assert f.singular_values.shape == (q,)
        assert np.abs(f.left_vectors.T @ f.left_vectors - np.eye(q)).max() <= tol
        assert np.abs(f.right_vectors.T @ f.right_vectors - np.eye(q)).max() <= tol
        rebuilt = (f.left_vectors * f.singular_values) @ f.right_vectors.T
        rel = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert rel <= tol

    def test_sign_convention(self):
        for seed in range(10):
            f = svd(_rng(seed).normal(size=(6, 4)))
            for j in range(4):
                col = f.right_vectors[:, j]
                assert col[np.argmax(np.abs(col))] >= 0

    def test_sign_tie_goes_to_the_lowest_index(self):
        # each row's largest magnitude is held by two entries of opposite sign
        vt = np.array([[-0.5, 0.5, 0.25], [0.5, -0.5, 0.0], [0.0, -0.25, 0.25]])
        u = np.arange(1.0, 10.0).reshape(3, 3)
        expected_vt, expected_u = vt * [[-1], [1], [-1]], u * [-1, 1, -1]
        _apply_sign_convention(vt, u)
        assert_array_equal(vt, expected_vt)
        assert_array_equal(u, expected_u)

    def test_empty_matrix(self):
        f = svd(np.empty((0, 3)))
        assert f.singular_values.shape == (0,)
        assert f.left_vectors.shape == (0, 0) and f.right_vectors.shape == (3, 0)

    def test_deterministic_bits(self):
        m = _rng(3).normal(size=(7, 5))
        f1, f2 = svd(m), svd(m.copy())
        assert_array_equal(f1.singular_values, f2.singular_values)
        assert_array_equal(f1.left_vectors, f2.left_vectors)
        assert_array_equal(f1.right_vectors, f2.right_vectors)

    def test_column_sign_flip_keeps_spectrum(self):
        m = _rng(4).normal(size=(6, 5))
        flipped = m.copy()
        flipped[:, 2] = -flipped[:, 2]
        assert_allclose(
            svd(m).singular_values, svd(flipped).singular_values, rtol=1e-12
        )

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(NonFinite):
            svd(bad)
        bad[0, 1] = np.inf
        with pytest.raises(NonFinite):
            svd(bad)

    def test_non_2d_rejected(self):
        with pytest.raises(BadShape):
            svd(np.ones(4))

    @pytest.mark.parametrize("s, u, v, message", [
        ([1.0], np.ones(2), np.ones((2, 1)), "factors must be (q,), (rows, q), (cols, q)"),
        ([1.0, 0.5], np.ones((3, 2)), np.ones((2, 1)),
         "factor column counts must match len(singular_values)"),
        ([0.5, 1.0], np.ones((3, 2)), np.ones((2, 2)),
         "singular values must be nonincreasing and nonnegative"),
        ([1.0, -0.5], np.ones((3, 2)), np.ones((2, 2)),
         "singular values must be nonincreasing and nonnegative"),
    ], ids=["vector-factor", "column-count", "increasing", "negative"])
    def test_factors_reject_bad_shapes(self, s, u, v, message):
        with pytest.raises(BadShape, match=f"^{re.escape(message)}$"):
            SvdFactors(singular_values=s, left_vectors=u, right_vectors=v)

    def test_fields_are_read_only_and_caller_arrays_are_copied(self):
        rng = _rng(6)
        product = _svd_of_product(rng.normal(size=(6, 2)), rng.normal(size=(5, 2)))
        for f in (product, svd(rng.normal(size=(6, 4)))):
            for a in (f.singular_values, f.left_vectors, f.right_vectors):
                assert not a.flags.writeable
        given = [np.array(a) for a in (f.singular_values, f.left_vectors, f.right_vectors)]
        built = SvdFactors(*given)
        for mine, kept in zip(given, (built.singular_values, built.left_vectors, built.right_vectors)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)
            assert_array_equal(mine, kept)

    def test_projector_idempotence(self):
        for seed in range(5):
            b = svd(_rng(seed).normal(size=(7, 3))).left_vectors
            proj = b @ b.T
            assert np.linalg.norm(proj @ proj - proj) <= 1e-9


class TestTruncateRank:
    def test_exact_rank_2_recovery(self):
        rng = _rng(11)
        m = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 6))
        out = truncate_rank(svd(m), 2)
        assert np.linalg.norm(out - m) / np.linalg.norm(m) <= 1e-10

    def test_full_rank_is_identity(self):
        m = _rng(12).normal(size=(5, 4))
        out = truncate_rank(svd(m), 4)
        assert np.linalg.norm(out - m) / np.linalg.norm(m) <= 1e-10

    def test_top_pair_power_iteration_oracle(self):
        m = _rng(13).normal(size=(5, 5))
        v = _rng(14).normal(size=5)
        v /= np.linalg.norm(v)
        for _ in range(2000):
            v = m.T @ (m @ v)
            v /= np.linalg.norm(v)
        s1 = np.linalg.norm(m @ v)
        u1 = (m @ v) / s1
        assert_allclose(truncate_rank(svd(m), 1), s1 * np.outer(u1, v), atol=1e-8)

    def test_rank_out_of_range(self):
        f = svd(np.eye(3))
        with pytest.raises(RankOutOfRange):
            truncate_rank(f, 0)
        with pytest.raises(RankOutOfRange):
            truncate_rank(f, 4)

    def test_beats_random_rank_k_candidates(self):
        # Eckart-Young: the SVD truncation minimizes Frobenius error
        rng = _rng(15)
        for _ in range(20):
            rows, cols = rng.integers(3, 9, size=2)
            k = int(rng.integers(1, min(rows, cols) + 1))
            m = rng.normal(size=(rows, cols))
            best = np.linalg.norm(truncate_rank(svd(m), k) - m)
            for _ in range(50):
                cand = rng.normal(size=(rows, k)) @ rng.normal(size=(k, cols))
                assert best <= np.linalg.norm(cand - m) + 1e-12


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_diagonal(self):
        assert_allclose(spectral_norm(np.diag([5.0, 1.0])), 5.0, rtol=1e-12)

    def test_gram_oracle(self):
        m = _rng(31).normal(size=(6, 4))
        oracle = np.sqrt(np.linalg.eigvalsh(m.T @ m).max())
        assert_allclose(spectral_norm(m), oracle, rtol=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            spectral_norm(np.array([[np.inf, 0.0]]))

    def test_non_2d_rejected(self):
        with pytest.raises(BadShape):
            spectral_norm(np.ones(3))

    def test_lapack_failure_is_no_converge(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConverge):
            spectral_norm(np.eye(2))


class TestSingularValues:
    def test_matches_full_svd(self):
        # tall, wide and square, with and without zero-filled missing cells
        rng = _rng(41)
        for shape in ((200, 50), (50, 200), (60, 60)):
            m = rng.normal(size=shape)
            m[rng.random(shape) < 0.2] = 0.0
            full = svd(m).singular_values
            s = _singular_values(m)
            assert s.shape == full.shape
            assert np.all(np.diff(s) <= 0)
            assert np.max(np.abs(s - full)) <= 1e-14 * full[0]

    def test_bad_input(self):
        with pytest.raises(BadShape):
            _singular_values(np.ones(3))
        with pytest.raises(BadShape):
            _singular_values(np.ones((2, 2, 2)))
        with pytest.raises(NonFinite):
            _singular_values(np.array([[np.nan, 1.0]]))

    def test_lapack_failure_is_no_converge(self, monkeypatch):
        calls = []

        def fail(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConverge):
            _singular_values(np.eye(3))
        assert calls == [False]


@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_weyl_singular_value_perturbation(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(rows, cols))
    gap = np.abs(svd(a).singular_values - svd(b).singular_values)
    assert gap.max() <= spectral_norm(a - b) + 1e-9


def _check_product_factors(f, left, right, rank):
    """``f`` is a thin SVD of ``left @ right.T`` with ``rank`` nonzero values,
    under svd's sign convention."""
    x = left @ right.T
    (n, r), p = left.shape, right.shape[0]
    assert f.singular_values.shape == (r,)
    assert f.left_vectors.shape == (n, r) and f.right_vectors.shape == (p, r)
    tol = 1e-12 * max(n, p)
    assert np.abs(f.left_vectors.T @ f.left_vectors - np.eye(r)).max() <= tol
    assert np.abs(f.right_vectors.T @ f.right_vectors - np.eye(r)).max() <= tol
    rebuilt = (f.left_vectors * f.singular_values) @ f.right_vectors.T
    assert np.abs(rebuilt - x).max() <= tol * max(1.0, np.abs(x).max())
    s = f.singular_values
    assert_allclose(s, svd(x).singular_values[:r], rtol=0, atol=tol * s[0])
    assert np.all(s[rank:] <= tol * s[0]) and np.all(s[:rank] > tol * s[0])
    peaks = np.abs(f.right_vectors).argmax(axis=0)
    assert np.all(f.right_vectors[peaks, np.arange(r)] >= 0)


@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.integers(min_value=1, max_value=40),
    r=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_svd_of_product_factors_a_low_rank_product(n, p, r, seed):
    r = min(r, n, p)
    rng = np.random.default_rng(seed)
    left, right = rng.normal(size=(n, r)), rng.normal(size=(p, r))
    _check_product_factors(_svd_of_product(left, right), left, right, r)


@given(
    n=st.integers(min_value=3, max_value=40),
    p=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_svd_of_product_with_a_rank_deficient_right_factor(n, p, seed):
    # a prob-PCA style Q (r x p, entries +-1/sqrt(r)) whose last row repeats
    # its first: the product has rank below r (r - 2 when the middle row is
    # parallel to them too)
    r = 3
    rng = np.random.default_rng(seed)
    q = rng.choice([-1.0, 1.0], size=(r, p)) / np.sqrt(r)
    q[-1] = q[0]
    left = rng.normal(size=(n, r))
    rank = np.linalg.matrix_rank(left @ q)
    assert rank < r
    _check_product_factors(_svd_of_product(left, q.T), left, q.T, rank)


@pytest.mark.parametrize("shape, with_y", [((80, 12), True), ((80, 12), False), ((12, 80), True)],
                         ids=["tall-y", "tall-no-y", "wide"])
def test_small_side_svd_right_vectors_follow_the_sign_convention(shape, with_y):
    rng = _rng(9)
    a = rng.normal(size=shape)
    y = rng.normal(size=shape[0]) if with_y else None
    s, v, uty = _small_side_svd(a, lambda s: 5, y)
    peaks = np.abs(v).argmax(axis=0)
    assert np.all(v[peaks, np.arange(5)] >= 0)
    # svd's top 5 under the same rule: the same vectors and U^T y to rounding
    f = svd(a)
    assert_allclose(s, f.singular_values[:5], rtol=1e-12)
    assert np.abs(v - f.right_vectors[:, :5]).max() <= 1e-10
    if with_y:
        assert_allclose(uty, f.left_vectors[:, :5].T @ y, rtol=1e-10)
    else:
        assert uty is None


class TestQrR:
    @pytest.mark.parametrize("a", [
        np.random.default_rng(1).normal(size=(50, 7)),     # tall
        np.random.default_rng(2).normal(size=(7, 50)),     # wide
        np.random.default_rng(3).normal(size=(9, 9)),      # square
        np.random.default_rng(4).normal(size=(1, 6)),
        np.random.default_rng(5).normal(size=(6, 1)),
        np.random.default_rng(6).normal(size=(300, 2)) @ np.ones((2, 40)),  # rank 2
        np.column_stack((np.random.default_rng(7).normal(size=(700, 216)), np.ones(700))),  # [Z | y]
    ], ids=["tall", "wide", "square", "1xp", "nx1", "rank2", "stacked"])
    def test_matches_numpy_bit_for_bit(self, a):
        want = np.linalg.qr(a, mode="r")
        got = _qr_r(np.array(a, order="F"))
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(80, 12), (12, 80), (30, 30)])
    @pytest.mark.parametrize("with_y", [True, False], ids=["y", "no-y"])
    def test_small_side_svd_has_the_same_bits_without_the_library(self, shape, with_y, monkeypatch):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(shape[0], 4)) @ rng.normal(size=(4, shape[1]))
        a += 0.1 * rng.normal(size=shape)
        y = rng.normal(size=shape[0]) if with_y else None
        found = _small_side_svd(a, lambda s: 4, y)
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        fallback = _small_side_svd(a, lambda s: 4, y)
        # (s_k, v_k, uty), with uty None without a response
        assert [x if x is None else x.tobytes() for x in found] == [
            x if x is None else x.tobytes() for x in fallback
        ]

    @pytest.mark.parametrize("f", [
        np.ones((4, 3)),                        # C-ordered
        np.ones((4, 3), dtype=np.float32, order="F"),
        np.ones(4),
        np.ones((8, 3), order="F")[::2],        # not contiguous
    ], ids=["c-order", "float32", "1-d", "strided"])
    def test_rejects_buffers_lapack_cannot_take_in_place(self, f):
        with pytest.raises(BadShape):
            _qr_r(f)

    def test_rejects_a_read_only_buffer(self):
        f = np.ones((4, 3), order="F")
        f.flags.writeable = False
        with pytest.raises(BadShape):
            _qr_r(f)

    def test_dgeqrf_releases_the_gil(self):
        found = _blas._openblas()
        if found is None or found.dgeqrf is None:
            pytest.skip("numpy's bundled OpenBLAS has no ILP64 dgeqrf")
        # a CDLL function; PyDLL's, which hold the GIL, carry PYTHONAPI
        assert isinstance(found.dgeqrf, ctypes._CFuncPtr)
        assert found.dgeqrf._flags_ & ctypes._FUNCFLAG_CDECL
        assert not found.dgeqrf._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        assert all(t is ctypes.POINTER(ctypes.c_int64) for t in found.dgeqrf.argtypes[:2])


_INTEGER_SITES = {
    "truncate_rank k": lambda v: truncate_rank(svd(np.eye(3)), v),
    "select_rank_largest_gap k_max": lambda v: select_rank_largest_gap([3.0, 2.0, 1.0], v),
    "runner ps": lambda v: run_experiment_identification([v], [0]),
    "runner size": lambda v: run_experiment_shift([0.1], [0], v),
    "runner seeds": lambda v: run_experiment_shift([0.1], [v], 50),
    "runner threads": lambda v: run_experiment_shift([0.1], [0], 50, threads=v),
    "shift trial size": lambda v: make_shift_trial(v, 0.1, 0),
    "subspace trial size": lambda v: make_subspace_trial(v, 0.1, 0),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("site", sorted(_INTEGER_SITES))
def test_rank_and_grid_values_must_be_integers(site, value):
    # rejected, not truncated to int(value)
    with pytest.raises(BadParam, match=re.escape(f"={value!r} must be an integer")):
        _INTEGER_SITES[site](value)
