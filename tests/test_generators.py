import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eivpcr import BadParam, BadShape, check_subspace_inclusion
from eivpcr.simlab import (
    Shift,
    corrupt,
    experiments,
    gen_factor_uv,
    gen_panel_ife,
    gen_prob_pca,
    make_identification_trial,
    make_shift_trial,
    make_subspace_trial,
)
from eivpcr.simlab.streams import Role, child, substream

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
        lambda: gen_factor_uv(10, -3),
        lambda: gen_panel_ife(5, 3, 4, 2, 0.0, -3),  # draws no noise stream
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
    (lambda: gen_factor_uv(25.0, 3), "size=25.0"),
    (lambda: gen_panel_ife(20, 5, 8, True, 0.1, 0), "r=True"),
], ids=["gen_prob_pca", "gen_factor_uv", "gen_panel_ife"])
def test_generators_reject_non_integer_dims_by_name(build, name):
    with pytest.raises(BadParam, match=rf"^{name} must be an integer$"):
        build()


@pytest.mark.parametrize("train_of", [
    pytest.param(lambda size: gen_factor_uv(size, 0)[0], id="gen_factor_uv"),
    pytest.param(lambda size: make_shift_trial(size, 0.1, 0)[Shift.N1].x_train,
                 id="make_shift_trial"),
    pytest.param(lambda size: make_subspace_trial(size, 0.1, 0)[0].x_train,
                 id="make_subspace_trial"),
])
def test_square_generators_reject_a_size_below_the_factor_rank(train_of):
    with pytest.raises(BadShape, match=r"^r=10 exceeds size=9$"):
        train_of(9)
    assert train_of(10).shape == (10, 10)


def _trial_key(size, sigma2, seed):
    # the stream key a shift or subspace builder derives for one trial
    return child(seed, experiments._sigma_key(sigma2), size)


class TestFactorUv:
    """The covariate-shift design: the train factors ``gen_factor_uv``
    draws and the four shifted test designs ``make_shift_trial`` builds
    on them."""

    def test_train_is_shared_across_shifts(self):
        # one size x r U and V, and so one train matrix, for all four shifts
        u, v = gen_factor_uv(30, _trial_key(30, 0.3, 3))
        assert u.shape == (30, 10) and v.shape == (30, 10)
        trials = make_shift_trial(30, 0.3, 3)
        assert list(trials) == list(Shift)
        for trial in trials.values():
            assert_array_equal(trial.x_train, u @ v.T)
            assert trial.x_test.shape == (30, 30)

    def test_test_factors_differ_across_shifts(self):
        tests = [t.x_test for t in make_shift_trial(30, 0.3, 3).values()]
        for i in range(len(tests)):
            for j in range(i + 1, len(tests)):
                assert not np.array_equal(tests[i], tests[j])

    def test_rowspace_inclusion_for_every_shift(self):
        for s, trial in make_shift_trial(30, 0.3, 3).items():
            assert check_subspace_inclusion(trial.x_train, trial.x_test) <= 1e-8, s

    def test_stream_rederivation(self):
        # white box: the exact draws behind X = U V^T and every X' = U' V^T
        rng = substream(9, Role.LATENT)
        u = rng.standard_normal((15, 10))
        v = rng.standard_normal((15, 10))
        got_u, got_v = gen_factor_uv(15, 9)
        assert_array_equal(got_u, u)
        assert_array_equal(got_v, v)
        key = _trial_key(15, 0.2, 9)
        u, v = gen_factor_uv(15, key)
        trials = make_shift_trial(15, 0.2, 9)
        # each shift draws U' from its own (trial, LATENT_TEST, shift) stream
        scale = {Shift.N1: 1.0, Shift.N2: math.sqrt(5.0)}
        for s in (Shift.N1, Shift.N2):
            rng_s = substream(key, Role.LATENT_TEST, int(s))
            u_te = scale[s] * rng_s.standard_normal((15, 10))
            assert_array_equal(trials[s].x_test, u_te @ v.T)
        for s, half in ((Shift.U1, math.sqrt(3.0)), (Shift.U2, math.sqrt(15.0))):
            rng_s = substream(key, Role.LATENT_TEST, int(s))
            u_te = rng_s.uniform(-half, half, size=(15, 10))
            assert_array_equal(trials[s].x_test, u_te @ v.T)

    def test_shift_moments_and_support(self):
        # U' recovered from each test design as the least-squares solution
        # of X' = U' V^T (exact up to rounding, V having full column rank)
        size = 1000
        _, v = gen_factor_uv(size, _trial_key(size, 0.0, 123))
        trials = make_shift_trial(size, 0.0, 123)
        for s, want_var, bound in (
            (Shift.N1, 1.0, None),
            (Shift.N2, 5.0, None),
            (Shift.U1, 1.0, math.sqrt(3.0)),
            (Shift.U2, 5.0, math.sqrt(15.0)),
        ):
            u_test = np.linalg.lstsq(v, trials[s].x_test.T, rcond=None)[0].T
            var = float(np.var(u_test))
            assert var == pytest.approx(want_var, abs=0.25), s
            if bound is not None:
                top = float(np.abs(u_test).max())
                assert top <= bound + 1e-9, s
                assert top >= 0.99 * bound, s


class TestRowspanViolation:
    """The subspace-inclusion design: ``make_subspace_trial``'s preserving
    test design U' V^T and violating test design U V'^T on the train
    factors ``gen_factor_uv`` draws."""

    def test_inclusion_and_violation(self):
        trial_ok, trial_bad = make_subspace_trial(100, 0.3, 5)
        # the rank of the factors
        assert trial_ok.train_factors.singular_values.shape == (10,)
        assert check_subspace_inclusion(trial_ok.x_train, trial_ok.x_test) <= 1e-8
        assert check_subspace_inclusion(trial_bad.x_train, trial_bad.x_test) > 0.5

    def test_bad_design_shares_left_factors(self):
        _, trial_bad = make_subspace_trial(60, 0.3, 2)
        # same column space (left factors), different row space
        assert check_subspace_inclusion(trial_bad.x_train.T, trial_bad.x_test.T) <= 1e-8

    def test_stream_rederivation(self):
        key = _trial_key(20, 0.2, 4)
        rng = substream(key, Role.LATENT)
        u = rng.standard_normal((20, 10))
        v = rng.standard_normal((20, 10))
        u_ok = math.sqrt(5.0) * substream(key, Role.LATENT_TEST).standard_normal((20, 10))
        v_bad = substream(key, Role.LATENT_TEST_BAD).standard_normal((20, 10))
        got = make_subspace_trial(20, 0.2, 4)
        want = (u_ok @ v.T, u @ v_bad.T)
        for trial, x_test in zip(got, want, strict=True):
            assert_array_equal(trial.x_train, u @ v.T)
            assert_array_equal(trial.x_test, x_test)


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
