"""Theory engine: mean recursion and its bound, the transition matrix (the
lexicographic oracle and the symmetric block the engine decomposes),
transient and steady-state MSE, complexity accounting."""

import numpy as np
import pytest

from kaflab.analysis import (
    K_CAP,
    build_k,
    complexity_report,
    mean_recursion,
    mean_square_stable,
    mean_stability_bound,
    steady_state_mse,
    transient_mse,
    transient_states,
)
from conftest import TOY_SIGMA, input_model, lex_k, toy_dictionary
from kaflab.errors import DivergenceError, KaflabError, NotStableError
from kaflab.kernel import GaussianKernel, GramFactor
from kaflab.linalg import sym_eig, unvec_lex, vec_lex
from kaflab.moments import MomentModel, fourth_tensor


def fabricate_model(r_tilde, s_tilde, j_min=0.0, alpha_star=None, d2=1.0):
    """Minimal hand-built model: only the fields the analysis reads are live."""
    r_tilde = np.asarray(r_tilde, dtype=float)
    r = r_tilde.shape[0]
    if alpha_star is None:
        alpha_star = np.zeros(r)
    eye = np.eye(r)
    gf = GramFactor(g=eye, g_sqrt=eye, g_inv_sqrt=eye, _cho=None)
    return MomentModel(
        r_kappa=r_tilde.copy(),
        p=np.zeros(r),
        d2=d2,
        r_tilde=r_tilde,
        p_tilde=np.zeros(r),
        alpha_star_tilde=np.asarray(alpha_star, dtype=float),
        j_min=j_min,
        s_tilde=np.asarray(s_tilde, dtype=float),
        gram=gf,
    )


class TestMeanStabilityBound:
    def test_identity(self):
        m = fabricate_model(np.eye(3), np.zeros((3, 3, 3, 3)))
        assert mean_stability_bound(m) == pytest.approx(2.0)

    def test_diagonal(self):
        m = fabricate_model(np.diag([0.5, 2.0]), np.zeros((2, 2, 2, 2)))
        assert mean_stability_bound(m) == pytest.approx(1.0)

    def test_experiment_eta_inside_bound(self, toy_model):
        assert 0 < 0.075 < mean_stability_bound(toy_model)


class TestMeanRecursion:
    def test_zero_start_stays_zero(self, toy_model):
        traj = mean_recursion(toy_model, 0.1, np.zeros(toy_model.dim), 20)
        assert np.array_equal(traj, np.zeros((21, toy_model.dim)))

    def test_closed_form_powers(self, toy_model):
        rng = np.random.default_rng(81)
        v0 = rng.standard_normal(toy_model.dim)
        eta = 0.2
        traj = mean_recursion(toy_model, eta, v0, 50)
        w, v = sym_eig(np.eye(toy_model.dim) - eta * toy_model.r_tilde)
        for n in (1, 10, 50):
            expected = (v * w**n) @ v.T @ v0
            assert np.abs(traj[n] - expected).max() < 1e-10

    def test_boundary_contraction_and_divergence(self, toy_model):
        bound = mean_stability_bound(toy_model)
        w, v = sym_eig(toy_model.r_tilde)
        top = v[:, -1]
        contracting = mean_recursion(toy_model, 0.99 * bound, top, 200)
        diverging = mean_recursion(toy_model, 1.01 * bound, top, 200)
        norms_c = np.linalg.norm(contracting, axis=1)
        norms_d = np.linalg.norm(diverging, axis=1)
        assert norms_c[-1] < norms_c[0]
        assert norms_d[-1] > norms_d[0]
        # divergence is monotone once the top mode dominates
        assert (np.diff(norms_d[10:]) > 0).all()


class TestBuildK:
    def test_eta_zero_gives_identity(self, toy_model):
        km = build_k(toy_model, 0.0)
        r = toy_model.dim
        assert np.array_equal(km.k_sym, np.eye(r * (r + 1) // 2))

    def test_scalar_case(self):
        m = fabricate_model(np.array([[0.5]]), np.full((1, 1, 1, 1), 0.3))
        km = build_k(m, 0.1)
        assert km.k_sym.shape == (1, 1)
        assert km.k_sym[0, 0] == pytest.approx(1 - 2 * 0.1 * 0.5 + 0.1**2 * 0.3)

    def test_reconstruction_invariant(self, toy_model):
        km = lex_k(toy_model, 0.075)
        rebuilt = (
            np.eye(toy_model.dim**2)
            - 0.075 * (km.k1 + km.k2)
            + 0.075**2 * km.k3
        )
        assert np.array_equal(km.k, rebuilt)

    def test_kron_structure(self, toy_model):
        km = lex_k(toy_model, 0.075)
        r = toy_model.dim
        assert np.array_equal(km.k1, np.kron(np.eye(r), toy_model.r_tilde))
        assert np.array_equal(km.k2, np.kron(toy_model.r_tilde, np.eye(r)))

    def test_k3_lexicographic_mapping(self, toy_model):
        km = lex_k(toy_model, 0.075)
        r = toy_model.dim
        rng = np.random.default_rng(82)
        for _ in range(30):
            l, mm, p, q = rng.integers(0, r, 4)
            assert km.k3[l + mm * r, p + q * r] == toy_model.s_tilde[l, mm, p, q]

    def test_k_encodes_matrix_recursion(self, toy_model):
        # one step of the matrix recursion equals the lexicographic map:
        # a dual-route check between the recursion and the K form
        eta = 0.075
        km = lex_k(toy_model, eta)
        rng = np.random.default_rng(83)
        a = rng.standard_normal((toy_model.dim, toy_model.dim))
        c = (a + a.T) / 2
        r_t = toy_model.r_tilde
        t = np.tensordot(toy_model.s_tilde, c, axes=([3, 2], [0, 1]))
        step = c + eta**2 * t - eta * (r_t @ c + c @ r_t)
        via_k = unvec_lex(km.k @ vec_lex(c), toy_model.dim)
        assert np.abs(step - via_k).max() < 1e-12 * max(1.0, np.abs(step).max())

    def test_size_cap(self, toy_model):
        with pytest.raises(KaflabError):
            build_k(toy_model, 0.075, k_cap=toy_model.dim**2 - 1)
        assert K_CAP == 10_000


class TestMeanSquareStable:
    def test_eta_zero_is_boundary(self, toy_model):
        stable, radius = mean_square_stable(build_k(toy_model, 0.0))
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert stable is False

    def test_small_eta_stable(self, toy_model):
        stable, radius = mean_square_stable(build_k(toy_model, 0.075))
        assert stable
        assert radius < 1

    def test_large_eta_unstable(self, toy_model):
        eta = 10.0 * mean_stability_bound(toy_model)
        stable, radius = mean_square_stable(build_k(toy_model, eta))
        assert not stable
        assert radius >= 1

    def test_antisymmetric_block_can_set_the_radius(self):
        # Gaussian fourth moments of x ~ N(0, c I): T is small, so at eta = 1.5
        # the antisymmetric eigenvalue 1 - 2 eta = -2 dominates the symmetric
        # block (-0.875 and 0.25) and must enter the radius
        c, eye = 0.5, np.eye(2)
        s = c**2 * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("ik,jl->ijkl", eye, eye)
                    + np.einsum("il,jk->ijkl", eye, eye))
        m = fabricate_model(eye, s)
        km = build_k(m, 1.5)
        assert np.abs(km.eigenvalues).max() == pytest.approx(0.875)
        assert km.radius == pytest.approx(2.0, rel=1e-12)
        assert km.radius == pytest.approx(np.abs(np.linalg.eigvals(lex_k(m, 1.5).k)).max(),
                                          rel=1e-12)


class TestTransientMse:
    def test_initial_value_is_signal_power(self, toy_model):
        curve = transient_mse(toy_model, 0.075, 5)
        assert curve.mse[0] == pytest.approx(toy_model.d2, rel=1e-12)

    def test_null_model_stays_zero(self):
        r_t = np.diag([0.5, 0.25])
        m = fabricate_model(r_t, np.zeros((2, 2, 2, 2)), j_min=0.0)
        curve = transient_mse(m, 0.1, 50, check_stability=False)
        assert np.array_equal(curve.mse, np.zeros(51))

    def test_mse_recomputable_from_state(self, toy_model):
        for state in transient_states(toy_model, 0.075, 20):
            assert state.mse == toy_model.j_min + np.trace(
                toy_model.r_tilde @ state.c_tilde
            )
            assert np.abs(state.c_tilde - state.c_tilde.T).max() == 0.0

    def test_t_linearity_against_full_contraction(self, toy_model):
        # trace-form T equals contracting the raw fourth tensor against C
        # carried into the transformed basis
        rng = np.random.default_rng(84)
        a = rng.standard_normal((toy_model.dim, toy_model.dim))
        c = (a + a.T) / 2
        w = toy_model.gram.g_inv_sqrt
        t_trace = np.einsum("lmpq,qp->lm", toy_model.s_tilde, c)
        inner = w @ c @ w
        s_tensor = fourth_tensor(toy_dictionary(), GaussianKernel(TOY_SIGMA), input_model())
        t_full = w @ np.tensordot(s_tensor, inner, axes=([2, 3], [0, 1])) @ w
        assert np.abs(t_trace - t_full).max() < 1e-10 * max(1.0, np.abs(t_full).max())

    def test_warns_when_unstable(self, toy_model):
        eta = 10.0 * mean_stability_bound(toy_model)
        with pytest.warns(UserWarning, match="spectral radius"):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    transient_mse(toy_model, eta, 500)
                except DivergenceError:
                    pass

    def test_divergence_raises(self, toy_model):
        eta = 10.0 * mean_stability_bound(toy_model)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                transient_mse(toy_model, eta, 20_000, check_stability=False)


class TestSteadyStateMse:
    def test_fixed_point_residual(self, toy_model):
        eta = 0.075
        mse_inf, c_inf = steady_state_mse(toy_model, eta)
        km = lex_k(toy_model, eta)
        c_vec = vec_lex(c_inf)
        resid = km.k @ c_vec + eta**2 * toy_model.j_min * vec_lex(toy_model.r_tilde) - c_vec
        assert np.abs(resid).max() < 1e-10 * max(np.abs(c_vec).max(), 1e-30)

    def test_zero_floor_gives_zero(self):
        r_t = np.diag([0.5, 0.25])
        m = fabricate_model(r_t, np.zeros((2, 2, 2, 2)), j_min=0.0)
        mse_inf, c_inf = steady_state_mse(m, 0.1)
        assert mse_inf == 0.0
        assert np.array_equal(c_inf, np.zeros((2, 2)))

    def test_matches_long_transient(self, toy_model):
        # the recursion route and the solve route agree at the fixed point
        eta = 0.3
        mse_inf, _ = steady_state_mse(toy_model, eta)
        curve = transient_mse(toy_model, eta, 20_000, check_stability=False)
        assert abs(curve.mse[-1] - mse_inf) / mse_inf < 1e-6

    def test_refuses_unstable(self, toy_model):
        eta = 10.0 * mean_stability_bound(toy_model)
        with pytest.raises(NotStableError) as err:
            steady_state_mse(toy_model, eta)
        assert err.value.spectral_radius >= 1


class TestComplexityReport:
    def test_reference_row(self):
        assert complexity_report(25, 2, 1) == (725, 101)

    def test_full_selection_formula(self):
        r, L = 25, 2
        full, sel = complexity_report(r, L, r)
        assert full == (L + r + 2) * r
        assert sel == (L + r + 1) * r + r**3

    def test_monotone_in_selection_size(self):
        r, L = 30, 2
        costs = [complexity_report(r, L, s)[1] for s in range(1, r + 1)]
        assert (np.diff(costs) > 0).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            complexity_report(0, 2, 1)
