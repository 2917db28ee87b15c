"""Online filter steps: full Gram-preconditioned update, selective update,
normalized baseline, and the coordinate-transform equivalence."""

import numpy as np
import pytest

from kaflab.filters import (
    FilterState,
    knlms_step,
    natural_klms_step,
    select_update_indices,
    selective_step,
)
from kaflab.kernel import Dictionary, GaussianKernel, gram, grid_dictionary, kernelized_input
from kaflab.sim import InputGenerator, SystemKind, SystemSimulator, ar1_stream, embed_input
from conftest import predict

SIGMA = 0.7


@pytest.fixture(scope="module")
def setup():
    d = grid_dictionary([-1, -1], [1, 1], 3)
    k = GaussianKernel(SIGMA)
    return d, k, gram(d, k)


class TestPredict:
    def test_zero_state(self, setup):
        d, k, _ = setup
        s = FilterState.zeros(d)
        assert predict(s, k, [0.3, -0.2]) == 0.0

    def test_unit_vector_at_center(self, setup):
        d, k, _ = setup
        alpha = np.zeros(d.size)
        alpha[1] = 1.0
        s = FilterState(alpha=alpha, dictionary=d)
        assert predict(s, k, d.centers[1]) == pytest.approx(1.0)

    def test_matches_explicit_sum(self, setup):
        d, k, _ = setup
        rng = np.random.default_rng(51)
        alpha = rng.standard_normal(d.size)
        u = rng.uniform(-1, 1, 2)
        s = FilterState(alpha=alpha, dictionary=d)
        explicit = sum(
            alpha[l] * kernelized_input(d, k, u)[l] for l in range(d.size)
        )
        assert predict(s, k, u) == pytest.approx(explicit, rel=1e-12)


class TestNaturalKlmsStep:
    def test_zero_error_leaves_state(self, setup):
        d, k, gf = setup
        rng = np.random.default_rng(52)
        alpha = rng.standard_normal(d.size)
        s = FilterState(alpha=alpha, dictionary=d)
        u = rng.uniform(-1, 1, 2)
        target = predict(s, k, u)
        rec, s2 = natural_klms_step(s, gf, k, u, target, eta=0.1)
        assert rec.prior_error == 0.0
        assert np.array_equal(s2.alpha, alpha)
        assert s2.iteration == s.iteration + 1

    def test_identity_gram_reduces_to_plain_update(self):
        # mutually far centers make G the identity, so the preconditioned
        # step collapses to alpha += eta e kappa
        d = Dictionary(np.array([[0.0, 0.0], [12.0, 0.0]]))
        k = GaussianKernel(SIGMA)
        gf = gram(d, k)
        s = FilterState.zeros(d)
        u = np.array([0.2, -0.1])
        rec, s2 = natural_klms_step(s, gf, k, u, 1.0, eta=0.5)
        kap = kernelized_input(d, k, u)
        assert np.abs(s2.alpha - 0.5 * rec.prior_error * kap).max() < 1e-12

    def test_prior_error_is_exact(self, setup):
        d, k, gf = setup
        rng = np.random.default_rng(53)
        s = FilterState(alpha=rng.standard_normal(d.size), dictionary=d)
        u = rng.uniform(-1, 1, 2)
        rec, _ = natural_klms_step(s, gf, k, u, 0.7, eta=0.1)
        assert rec.prior_error == 0.7 - predict(s, k, u)
        assert rec.prior_error == 0.7 - rec.prediction

    def test_transformed_recursion_equivalence(self, setup):
        # iterating in the transformed coordinates must match transforming
        # the iterates: G^(1/2) alpha_n == alpha_tilde_n
        d, k, gf = setup
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        rng = np.random.default_rng(54)
        n = 2000
        u = ar1_stream(gen, n + 1, rng)
        vecs = embed_input(u)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        dd = system.respond(u, rng.normal(0, 0.05, n))
        s = FilterState.zeros(d)
        alpha_t = np.zeros(d.size)
        eta = 0.075
        worst = 0.0
        for i in range(n):
            rec, s = natural_klms_step(s, gf, k, vecs[i], dd[i], eta)
            kap_t = gf.g_inv_sqrt @ kernelized_input(d, k, vecs[i])
            alpha_t = alpha_t + eta * (dd[i] - alpha_t @ kap_t) * kap_t
            worst = max(worst, np.abs(gf.g_sqrt @ s.alpha - alpha_t).max())
        assert worst < 1e-10


class TestSelectiveStep:
    def test_full_selection_matches_natural(self, setup):
        d, k, gf = setup
        rng = np.random.default_rng(55)
        s_a = FilterState.zeros(d)
        s_b = FilterState.zeros(d)
        for _ in range(200):
            u = rng.uniform(-1, 1, 2)
            dd = rng.standard_normal()
            _, s_a = natural_klms_step(s_a, gf, k, u, dd, eta=0.075)
            _, s_b = selective_step(s_b, gf, k, u, dd, eta=0.075, s_n=d.size)
            assert np.abs(s_a.alpha - s_b.alpha).max() < 1e-10

    def test_single_atom_at_center(self, setup):
        d, k, gf = setup
        s = FilterState.zeros(d)
        j = 4
        rec, s2 = selective_step(s, gf, k, d.centers[j], 1.0, eta=0.5, s_n=1)
        # G_jj = 1 and kappa_j = 1, so only alpha_j moves, by eta * e
        expected = np.zeros(d.size)
        expected[j] = 0.5 * rec.prior_error
        assert np.array_equal(s2.alpha, expected)

    def test_partial_update_touches_only_selected(self, setup):
        d, k, gf = setup
        rng = np.random.default_rng(56)
        s = FilterState(alpha=rng.standard_normal(d.size), dictionary=d)
        u = rng.uniform(-1, 1, 2)
        kap = kernelized_input(d, k, u)
        idx = select_update_indices(kap, 3)
        _, s2 = selective_step(s, gf, k, u, 2.0, eta=0.1, s_n=3)
        changed = np.flatnonzero(s2.alpha != s.alpha)
        assert set(changed) <= set(idx)

    def test_tie_break_prefers_lowest_index(self):
        # u equidistant from centers 0 and 1: equal kernel values, so the
        # selection must take index 0
        d = Dictionary(np.array([[-0.5, 0.0], [0.5, 0.0], [3.0, 3.0]]))
        k = GaussianKernel(SIGMA)
        kap = kernelized_input(d, k, [0.0, 0.0])
        assert kap[0] == kap[1]
        assert np.array_equal(select_update_indices(kap, 1), [0])
        assert np.array_equal(select_update_indices(kap, 2), [0, 1])

    def test_selection_is_deterministic(self, setup):
        d, k, _ = setup
        rng = np.random.default_rng(57)
        for _ in range(20):
            kap = kernelized_input(d, k, rng.uniform(-1, 1, 2))
            a = select_update_indices(kap, 3)
            b = select_update_indices(kap, 3)
            assert np.array_equal(a, b)
            assert np.array_equal(a, np.sort(a))

    def test_s_n_bounds(self, setup):
        d, k, gf = setup
        s = FilterState.zeros(d)
        with pytest.raises(ValueError):
            selective_step(s, gf, k, [0.0, 0.0], 1.0, eta=0.1, s_n=0)
        with pytest.raises(ValueError):
            selective_step(s, gf, k, [0.0, 0.0], 1.0, eta=0.1, s_n=d.size + 1)


class TestKnlmsStep:
    def test_zero_error_leaves_state(self, setup):
        d, k, _ = setup
        rng = np.random.default_rng(58)
        s = FilterState(alpha=rng.standard_normal(d.size), dictionary=d)
        u = rng.uniform(-1, 1, 2)
        rec, s2 = knlms_step(s, k, u, predict(s, k, u), eta=0.5, eps_reg=1e-2)
        assert rec.prior_error == 0.0
        assert np.array_equal(s2.alpha, s.alpha)

    def test_single_center_normalization(self):
        d = Dictionary(np.array([[0.3, 0.3]]))
        k = GaussianKernel(SIGMA)
        s = FilterState.zeros(d)
        rec, s2 = knlms_step(s, k, d.centers[0], 1.0, eta=0.5, eps_reg=1e-12)
        # kappa = 1 and ||kappa||^2 = 1: the update is eta * e with eps -> 0
        assert s2.alpha[0] == pytest.approx(0.5 * rec.prior_error, rel=1e-10)

    def test_short_run_stays_finite(self, setup):
        d, k, _ = setup
        rng = np.random.default_rng(59)
        s = FilterState.zeros(d)
        for _ in range(500):
            u = rng.uniform(-1, 1, 2)
            _, s = knlms_step(s, k, u, rng.standard_normal(), eta=0.075, eps_reg=1e-2)
        assert np.isfinite(s.alpha).all()
