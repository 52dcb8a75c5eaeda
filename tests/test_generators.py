import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eivpcr import BadParam, BadShape, check_subspace_inclusion
from eivpcr.simlab import (
    Role,
    Shift,
    child,
    corrupt,
    gen_factor_uv,
    gen_panel_ife,
    gen_prob_pca,
    gen_rowspan_violation,
    make_identification_trial,
    make_shift_trial,
    make_subspace_trial,
    substream,
)

# corrupt(zeros(500, 500), sigma=0.3, rho=0.7, seed=99): observed cells
# counted once with np.count_nonzero and frozen (binomial mean 175000)
_CORRUPT_COUNT = 174_943


def _numerical_rank(x):
    s = np.linalg.svd(x, compute_uv=False)
    return int(np.count_nonzero(s > 1e-9 * s[0]))


class TestStreams:
    def test_child_extends_spawn_key(self):
        ss = child(7, 3)
        assert ss.entropy == 7 and ss.spawn_key == (3,)
        ss2 = child(ss, 5)
        assert ss2.entropy == 7 and ss2.spawn_key == (3, 5)

    def test_substream_reproducible(self):
        a = substream(11, Role.NOISE).standard_normal(5)
        b = substream(11, Role.NOISE).standard_normal(5)
        assert_array_equal(a, b)

    def test_roles_are_disjoint_streams(self):
        a = substream(11, Role.NOISE).standard_normal(5)
        b = substream(11, Role.MASK).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_int_seed_equals_empty_child(self):
        pairs = zip(gen_prob_pca(6, 8, 2, 5), gen_prob_pca(6, 8, 2, child(5)), strict=True)
        for got, want in pairs:
            assert_array_equal(got, want)

    def test_negative_seed_is_rejected_by_name(self):
        for derive in (lambda: child(-1, 3), lambda: substream(-1, Role.NOISE)):
            with pytest.raises(BadParam, match=r"^seed=-1 must be >= 0$"):
                derive()

    @pytest.mark.parametrize("build", [
        lambda: make_identification_trial(8, 10, 2, -1),
        lambda: make_shift_trial(60, 0.1, -1),
        lambda: make_subspace_trial(60, 0.1, -1),
        lambda: gen_prob_pca(5, 5, 2, -3),
        lambda: gen_factor_uv(6, 6, 6, -3, r=2),
        lambda: gen_rowspan_violation(6, 6, 6, -3, r=2),
        lambda: gen_panel_ife(5, 3, 4, 2, 0.1, -3),
        lambda: corrupt(np.ones((3, 3)), 0.1, 1.0, -1),
        lambda: corrupt(np.ones((3, 3)), 0.0, 1.0, -1),  # draws no stream
    ])
    def test_builders_and_generators_reject_negative_seeds(self, build):
        with pytest.raises(BadParam, match=r"^seed=-[13] must be >= 0$"):
            build()


class TestProbPca:
    def test_shape_and_rank(self):
        x_r, q = gen_prob_pca(40, 27, 3, 0)
        assert x_r.shape == (40, 3) and q.shape == (3, 27)
        assert _numerical_rank(x_r @ q) == 3

    def test_stream_rederivation(self):
        # white box: the exact draws behind X = X_r Q
        rng = substream(17, Role.LATENT)
        x_r = rng.standard_normal((12, 4))
        q = rng.choice([-1.0, 1.0], size=(4, 9)) / math.sqrt(4)
        assert np.all(np.isin(np.abs(q * math.sqrt(4)), [1.0]))
        got_x_r, got_q = gen_prob_pca(12, 9, 4, 17)
        assert_array_equal(got_x_r, x_r)
        assert_array_equal(got_q, q)

    def test_seeds_differ(self):
        assert not np.array_equal(gen_prob_pca(8, 8, 2, 0)[0], gen_prob_pca(8, 8, 2, 1)[0])

    def test_bad_dims(self):
        with pytest.raises(BadShape):
            gen_prob_pca(4, 3, 5, 0)


@pytest.mark.parametrize("build, name", [
    (lambda: gen_prob_pca(40.5, 27, 3, 0), "n=40.5"),
    (lambda: gen_factor_uv(30, 20, 25.0, 3, r=4), "p=25.0"),
    (lambda: gen_panel_ife(20, 5, 8, True, 0.1, 0), "r=True"),
], ids=["gen_prob_pca", "gen_factor_uv", "gen_panel_ife"])
def test_generators_reject_non_integer_dims_by_name(build, name):
    with pytest.raises(BadParam, match=rf"^{name} must be an integer$"):
        build()


class TestFactorUv:
    def test_train_is_shared_across_shifts(self):
        # one n x r U and p x r V for all four shifts, each with an m x r U'
        u, v, u_tests = gen_factor_uv(30, 20, 25, 3, r=4)
        assert u.shape == (30, 4) and v.shape == (25, 4)
        assert list(u_tests) == list(Shift)
        assert all(u_te.shape == (20, 4) for u_te in u_tests.values())

    def test_test_factors_differ_across_shifts(self):
        tests = list(gen_factor_uv(30, 20, 25, 3, r=4)[2].values())
        for i in range(len(tests)):
            for j in range(i + 1, len(tests)):
                assert not np.array_equal(tests[i], tests[j])

    def test_rowspace_inclusion_for_every_shift(self):
        u, v, u_tests = gen_factor_uv(30, 20, 25, 3, r=4)
        for s, u_te in u_tests.items():
            assert check_subspace_inclusion(u @ v.T, u_te @ v.T) <= 1e-8, s

    def test_stream_rederivation(self):
        rng = substream(9, Role.LATENT)
        u = rng.standard_normal((15, 3))
        v = rng.standard_normal((10, 3))
        got_u, got_v, u_tests = gen_factor_uv(15, 12, 10, 9, r=3)
        assert_array_equal(got_u, u)
        assert_array_equal(got_v, v)
        # each shift draws from its own (seed, LATENT_TEST, shift) stream
        scale = {Shift.N1: 1.0, Shift.N2: math.sqrt(5.0)}
        for s in (Shift.N1, Shift.N2):
            rng_s = substream(9, Role.LATENT_TEST, int(s))
            assert_array_equal(u_tests[s], scale[s] * rng_s.standard_normal((12, 3)))
        for s, half in ((Shift.U1, math.sqrt(3.0)), (Shift.U2, math.sqrt(15.0))):
            rng_s = substream(9, Role.LATENT_TEST, int(s))
            assert_array_equal(u_tests[s], rng_s.uniform(-half, half, size=(12, 3)))

    def test_shift_moments_and_support(self):
        m, r = 2000, 10
        _, _, u_tests = gen_factor_uv(11, m, 11, 123, r=r)
        for s, want_var, bound in (
            (Shift.N1, 1.0, None),
            (Shift.N2, 5.0, None),
            (Shift.U1, 1.0, math.sqrt(3.0)),
            (Shift.U2, 5.0, math.sqrt(15.0)),
        ):
            u_test = u_tests[s]
            var = float(np.var(u_test))
            assert var == pytest.approx(want_var, abs=0.25), s
            if bound is not None:
                top = float(np.abs(u_test).max())
                assert top <= bound + 1e-9, s
                assert top >= 0.99 * bound, s


class TestRowspanViolation:
    def test_requires_square_split(self):
        with pytest.raises(BadShape):
            gen_rowspan_violation(10, 12, 8, 0, r=2)

    def test_inclusion_and_violation(self):
        u, v, u_ok, v_bad = gen_rowspan_violation(100, 100, 100, 5)
        assert u.shape[1] == 10  # the default factor rank
        x_tr = u @ v.T
        assert check_subspace_inclusion(x_tr, u_ok @ v.T) <= 1e-8
        assert check_subspace_inclusion(x_tr, u @ v_bad.T) > 0.5

    def test_bad_design_shares_left_factors(self):
        u, v, _, v_bad = gen_rowspan_violation(60, 60, 50, 2, r=4)
        # same column space (left factors), different row space
        assert check_subspace_inclusion((u @ v.T).T, (u @ v_bad.T).T) <= 1e-8

    def test_stream_rederivation(self):
        rng = substream(4, Role.LATENT)
        u = rng.standard_normal((20, 5))
        v = rng.standard_normal((15, 5))
        u_ok = math.sqrt(5.0) * substream(4, Role.LATENT_TEST).standard_normal((20, 5))
        v_bad = substream(4, Role.LATENT_TEST_BAD).standard_normal((15, 5))
        got = gen_rowspan_violation(20, 20, 15, 4, r=5)
        for g, want in zip(got, (u, v, u_ok, v_bad), strict=True):
            assert_array_equal(g, want)


class TestPanelIfe:
    def test_noiseless_panel_is_exactly_latent(self):
        trial = gen_panel_ife(n=12, m=6, p=8, r=3, sigma=0.0, seed=2)
        assert_array_equal(trial.panel.donors_pre().values, trial.latent_donors[:12])
        assert_array_equal(trial.panel.donors_post().values, trial.latent_donors[12:])
        assert_array_equal(
            trial.panel.target_pre(), trial.latent_donors[:12] @ trial.weights
        )
        assert_array_equal(trial.truth, trial.latent_donors[12:] @ trial.weights)

    def test_shapes_and_labels(self):
        trial = gen_panel_ife(n=10, m=4, p=6, r=2, sigma=0.3, seed=3)
        assert (trial.panel.n, trial.panel.m, trial.panel.p) == (10, 4, 6)
        assert trial.truth.shape == (4,)
        assert trial.panel.outcomes.col_labels[0] == "target"
        assert trial.panel.outcomes.col_labels[1] == "donor1"
        assert _numerical_rank(trial.latent_donors) == 2

    def test_noise_perturbs_donors(self):
        trial = gen_panel_ife(n=10, m=4, p=6, r=2, sigma=0.3, seed=3)
        assert not np.array_equal(
            trial.panel.donors_pre().values, trial.latent_donors[:10]
        )

    def test_weights_rederivation(self):
        trial = gen_panel_ife(n=5, m=3, p=7, r=2, sigma=0.1, seed=8)
        expected = substream(8, Role.WEIGHTS).standard_normal(7) / math.sqrt(7)
        assert_array_equal(trial.weights, expected)

    def test_bad_sigma(self):
        with pytest.raises(BadParam):
            gen_panel_ife(n=5, m=3, p=7, r=2, sigma=-0.1, seed=0)

    def test_no_post_period_is_a_bad_shape(self):
        with pytest.raises(BadShape, match=r"^m=0 must be >= 1$"):
            gen_panel_ife(n=5, m=0, p=7, r=2, sigma=0.1, seed=0)


class TestCorrupt:
    def test_identity_when_clean(self):
        x = np.random.default_rng(0).normal(size=(6, 5))
        z = corrupt(x, 0.0, 1.0, 3)
        assert z.mask.all()
        assert_array_equal(z.values, x)

    def test_noise_rederivation(self):
        x = np.zeros((7, 4))
        z = corrupt(x, 0.5, 1.0, 21)
        w = 0.5 * substream(21, Role.NOISE).standard_normal((7, 4))
        assert_array_equal(z.values, w)

    def test_frozen_mask_count(self):
        z = corrupt(np.zeros((500, 500)), 0.3, 0.7, 99)
        assert np.count_nonzero(z.mask) == _CORRUPT_COUNT

    def test_deterministic(self):
        x = np.random.default_rng(1).normal(size=(8, 8))
        a = corrupt(x, 0.2, 0.8, 5)
        b = corrupt(x, 0.2, 0.8, 5)
        assert_array_equal(a.values, b.values)
        assert_array_equal(a.mask, b.mask)
        c = corrupt(x, 0.2, 0.8, 6)
        assert not np.array_equal(a.mask, c.mask)

    def test_bad_params(self):
        x = np.ones((3, 3))
        with pytest.raises(BadParam):
            corrupt(x, -0.1, 1.0, 0)
        for rho in (0.0, 1.2):
            with pytest.raises(BadParam):
                corrupt(x, 0.1, rho, 0)
        with pytest.raises(BadShape):
            corrupt(np.ones(5), 0.1, 0.5, 0)
