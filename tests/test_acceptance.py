"""Acceptance suite: one test per exit criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy artifacts
(moment models, 300-run learning curves) are module fixtures built once and
timed, so the runtime-budget criteria can account for them.

Numbered criteria:
 1. closed-form moments vs Monte-Carlo (second moment entrywise at 1e6
    samples, 20 fourth-tensor entries at 1e7), 4 standard errors, < 5 min
 2. the general K-point moment at K = 2 reproduces the printed two-point
    closed form, 1e-10 relative, on 3 random dictionaries
 3. transformed-recursion equivalence over 1e4 steps, max deviation < 1e-8
 4. experiment 1: simulated vs theoretical transient and steady state
 5. experiment 2: same checks, steady band relaxed to 20%
 6. stability boundaries (mean bound contraction/divergence, mean-square
    flip under bisection, transient divergence above the radius threshold)
 7. steady-state self-consistency: the fixed-point linear solve vs the long
    transient recursion (1e-6 relative on a fast-mixing model) and, for the
    slow-mixing experiment-1 model, vs an independent eigen-expansion oracle
 8. selective update: 3 dB steady band vs full update, exact reproduction
    at full selection width, complexity table formulas
 9. property suite with no experiments, < 1 min, including a stream estimate of
    the cross statistics against their closed form on 100 random small cases
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kaflab.analysis import (
    build_k,
    complexity_report,
    mean_square_stable,
    mean_stability_bound,
    steady_state_mse,
    transient_mse,
)
from kaflab.cli import compare_curves
from kaflab.config import build_dictionary, build_setup, load_config
from kaflab.errors import DivergenceError
from kaflab.filters import FilterState, natural_klms_step, selective_step
from kaflab.kernel import (
    Dictionary,
    GaussianKernel,
    gram,
    grid_dictionary,
    kernelized_input,
)
from kaflab.linalg import pd_sqrt, sym_eig
from kaflab.moments import (
    InputModel,
    mc_fourth_entries,
    mc_second_moment,
    second_moment,
)
from kaflab.sim import (
    MOMENTS_CHECK_SALT,
    FilterKind,
    SystemKind,
    SystemSimulator,
    ar1_stream,
    experiment_stream,
    mc_learning_curve,
    stationary_covariance,
)
from conftest import (CONFIGS, check_cross_stats_against_closed_form, full_fourth_tensor, kron,
                      lex_k, mean_recursion, model_for, unvec_lex, vec_lex)

BUILD_SECONDS: dict[str, float] = {}


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def _timed(key, fn):
    t0 = time.perf_counter()
    out = fn()
    BUILD_SECONDS[key] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def exp1(exp1_model):
    model, stats, d = exp1_model
    cfg = load_config(CONFIGS / "experiment1.cfg")
    theory = _timed(
        "exp1_theory",
        lambda: transient_mse(model, build_k(model, cfg.eta), cfg.n_iters - 1),
    )
    mse_inf, _ = steady_state_mse(model, build_k(model, cfg.eta))
    sim = _timed(
        "exp1_sim",
        lambda: mc_learning_curve(
            build_setup(cfg, d), cfg.n_runs, cfg.n_iters, cfg.seed
        ),
    )
    return cfg, d, model, theory, mse_inf, sim


@pytest.fixture(scope="module")
def exp2(exp2_model):
    model, stats, d = exp2_model
    cfg = load_config(CONFIGS / "experiment2.cfg")
    theory = _timed(
        "exp2_theory",
        lambda: transient_mse(model, build_k(model, cfg.eta), cfg.n_iters - 1),
    )
    mse_inf, _ = steady_state_mse(model, build_k(model, cfg.eta))
    sim = _timed(
        "exp2_sim",
        lambda: mc_learning_curve(
            build_setup(cfg, d), cfg.n_runs, cfg.n_iters, cfg.seed
        ),
    )
    return cfg, d, model, theory, mse_inf, sim


def test_criterion_1_moment_formulas_vs_mc(exp1_model):
    _, _, d = exp1_model
    cfg = load_config(CONFIGS / "experiment1.cfg")
    kern = GaussianKernel(cfg.sigma)
    im = InputModel(stationary_covariance(cfg.rho, cfg.sigma_u))
    with criterion(1, "closed-form moments vs Monte-Carlo"):
        t0 = time.perf_counter()
        closed = second_moment(d, kern, im)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(cfg.seed, MOMENTS_CHECK_SALT, 0))
        )
        mc, stderr = mc_second_moment(d, kern, im, 1_000_000, rng)
        z2 = np.abs(closed - mc) / stderr
        assert z2.max() < 4.0, f"second-moment worst z = {z2.max():.2f}"

        tensor = full_fourth_tensor(d, kern, im)
        rng4 = np.random.default_rng(
            np.random.SeedSequence(entropy=(cfg.seed, MOMENTS_CHECK_SALT, 1))
        )
        entries = sorted({tuple(rng4.integers(0, d.size, 4)) for _ in range(20)})
        mc4, stderr4 = mc_fourth_entries(d, kern, im, entries, 10_000_000, rng4)
        z4 = np.array(
            [abs(tensor[e] - mc4[i]) / stderr4[i] for i, e in enumerate(entries)]
        )
        assert z4.max() < 4.0, f"fourth-moment worst z = {z4.max():.2f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"took {elapsed:.0f}s, budget 300s"
        print(
            f"  worst z: second {z2.max():.2f}, fourth {z4.max():.2f} "
            f"({len(entries)} entries); {elapsed:.0f}s"
        )


def test_criterion_2_two_point_special_case():
    def printed_two_point(c_l, c_m, sigma, r_u):
        # the two-point closed form written with the summed-center norm
        # identity and explicit inverses, as an independent route
        L = c_l.size
        ubar = c_l + c_m
        nsq = c_l @ c_l + c_m @ c_m
        det_term = np.linalg.det(np.eye(L) + (2.0 / sigma**2) * r_u) ** -0.5
        w = np.linalg.inv(np.eye(L) + (sigma**2 / 2.0) * np.linalg.inv(r_u))
        return det_term * np.exp(-(2.0 * nsq - ubar @ w @ ubar) / (4.0 * sigma**2))

    with criterion(2, "K-point moment reproduces the printed pair formula"):
        from kaflab.moments import multi_point_moment

        rng = np.random.default_rng(1002)
        r_u = stationary_covariance(0.5, 0.5)
        im = InputModel(r_u)
        kern = GaussianKernel(0.7)
        worst = 0.0
        for _ in range(3):
            centers = rng.uniform(-1, 1, size=(8, 2))
            for l in range(8):
                for m in range(8):
                    general = multi_point_moment([centers[l], centers[m]], kern, im)
                    ref = printed_two_point(centers[l], centers[m], 0.7, r_u)
                    worst = max(worst, abs(general - ref) / ref)
        assert worst < 1e-10, f"worst relative deviation {worst:.2e}"
        print(f"  worst relative deviation over 3 dictionaries: {worst:.2e}")


def test_criterion_3_transformed_recursion_equivalence(exp1_model):
    _, _, d = exp1_model
    cfg = load_config(CONFIGS / "experiment1.cfg")
    kern = GaussianKernel(cfg.sigma)
    gf = gram(d, kern)
    setup = build_setup(cfg, d)
    with criterion(3, "transformed-recursion equivalence over 1e4 steps"):
        system = SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu)
        u_vecs, dd = experiment_stream(setup.input_gen, system, 10_000, seed=(cfg.seed, 90, 0))
        state = FilterState.zeros(d)
        alpha_t = np.zeros(d.size)
        worst = 0.0
        for i in range(10_000):
            _, state = natural_klms_step(state, gf, kern, u_vecs[i], dd[i], cfg.eta)
            kap_t = gf.g_inv_sqrt @ kernelized_input(d, kern, u_vecs[i])
            alpha_t = alpha_t + cfg.eta * (dd[i] - alpha_t @ kap_t) * kap_t
            worst = max(worst, np.abs(gf.g_sqrt @ state.alpha - alpha_t).max())
        assert worst < 1e-8, f"max deviation {worst:.2e}"
        print(f"  max deviation over 1e4 steps: {worst:.2e}")


def _check_experiment(num, name, cfg, theory, mse_inf, sim, steady_band_tol):
    with criterion(num, name):
        window = sim.mse[:11]
        initial_err = abs(window.mean() - theory.mse[0]) / theory.mse[0]
        assert initial_err < 0.10, f"(a) initial-window error {initial_err:.3f}"

        band = sim.mse[-(cfg.n_iters // 10):].mean()
        band_err = abs(band - mse_inf) / mse_inf
        assert band_err < steady_band_tol, f"(b) steady-band error {band_err:.3f}"

        metrics = compare_curves(sim.mse, theory.mse)
        gap = metrics["max_log10_gap_smoothed_after_50"]
        assert gap < 0.15, f"(c) smoothed log10 gap {gap:.3f}"

        budget_keys = [k for k in BUILD_SECONDS if k.startswith(f"exp{num - 3}")]
        spent = sum(BUILD_SECONDS[k] for k in budget_keys)
        assert spent < 600, f"experiment artifacts took {spent:.0f}s, budget 600s"
        print(
            f"  (a) initial {initial_err:.3f} < 0.10; "
            f"(b) steady band {band_err:.3f} < {steady_band_tol}; "
            f"(c) smoothed log-gap {gap:.3f} < 0.15 "
            f"(raw {metrics['max_log10_gap_after_50']:.3f}); "
            f"build {spent:.0f}s"
        )


def test_criterion_4_experiment_1_theory_vs_simulation(exp1):
    cfg, _, _, theory, mse_inf, sim = exp1
    _check_experiment(4, "experiment 1 transient and steady state", cfg, theory,
                      mse_inf, sim, steady_band_tol=0.15)


def test_criterion_5_experiment_2_theory_vs_simulation(exp2):
    cfg, _, _, theory, mse_inf, sim = exp2
    _check_experiment(5, "experiment 2 transient and steady state", cfg, theory,
                      mse_inf, sim, steady_band_tol=0.20)


def test_criterion_6_stability_boundaries(exp1):
    _, _, model, _, _, _ = exp1
    with criterion(6, "stability boundaries"):
        bound = mean_stability_bound(model)
        top = sym_eig(model.r_tilde).eigenvectors[:, -1]
        contracting = mean_recursion(model, 0.99 * bound, top, 300)
        diverging = mean_recursion(model, 1.01 * bound, top, 300)
        nc = np.linalg.norm(contracting, axis=1)
        nd = np.linalg.norm(diverging, axis=1)
        assert nc[-1] < nc[0]
        assert nd[-1] > nd[0] and (np.diff(nd[10:]) > 0).all()

        run_stable, run_radius = mean_square_stable(build_k(model, 0.075))
        assert run_stable and run_radius < 1

        lo, hi = 0.01 * bound, 5.0 * bound
        assert mean_square_stable(build_k(model, lo))[0]
        assert not mean_square_stable(build_k(model, hi))[0]
        for _ in range(15):
            mid = (lo + hi) / 2
            if mean_square_stable(build_k(model, mid))[0]:
                lo = mid
            else:
                hi = mid
        flip = (lo + hi) / 2
        assert 0 < lo < hi <= 5.0 * bound

        eta_bad = 5.0 * bound
        _, radius = mean_square_stable(build_k(model, eta_bad))
        assert radius >= 1.05
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                curve = transient_mse(model, build_k(model, eta_bad), 10_000)
                tail = curve.mse[-1000:]
                assert (np.diff(tail) > 0).all() and tail[-1] > 1e6 * curve.mse[0]
                outcome = "monotone growth"
            except DivergenceError as exc:
                outcome = f"non-finite at step {exc.last_finite_step + 1}"
        print(
            f"  mean bound {bound:.4f}: contracts at 0.99x, diverges at 1.01x; "
            f"mean-square flip near eta = {flip:.4f}; "
            f"radius {radius:.1f} at 5x bound -> {outcome}"
        )


def test_criterion_7_steady_state_self_consistency(exp1):
    _, _, model, _, _, _ = exp1
    with criterion(7, "steady-state solve vs transient fixed point"):
        # fast-mixing model: the recursion reaches the solved fixed point
        # within the horizon, so the two routes must agree to 1e-6
        d_toy = grid_dictionary([-1, -1], [1, 1], 2)
        toy, _ = model_for(d_toy, 0.7, SystemKind.POLYNOMIAL, 0.05)
        eta_toy = 0.3
        km_toy = build_k(toy, eta_toy)
        mse_inf_toy, _ = steady_state_mse(toy, km_toy)
        curve_toy = transient_mse(toy, km_toy, 100_000)
        rel = abs(curve_toy.mse[-1] - mse_inf_toy) / mse_inf_toy
        assert rel < 1e-6, f"fast-mixing route disagreement {rel:.2e}"

        # slow-mixing experiment-1 model: the remaining distance to the
        # fixed point at 1e5 steps must equal the spectral prediction of the
        # transition matrix (an independent oracle), to 1e-6 of the MSE
        cfg = load_config(CONFIGS / "experiment1.cfg")
        km_sym = build_k(model, cfg.eta)
        mse_inf, c_inf = steady_state_mse(model, km_sym)
        curve = transient_mse(model, km_sym, 100_000)
        gap = curve.mse[-1] - mse_inf
        km = lex_k(model, cfg.eta)
        lam, vk = np.linalg.eig(km.k)
        r_vec = vec_lex(model.r_tilde)
        z0 = vec_lex(np.outer(model.alpha_star_tilde, model.alpha_star_tilde)) - vec_lex(c_inf)
        weights = (r_vec @ vk) * np.linalg.solve(vk, z0)
        gap_oracle = float((weights * lam**100_000).sum().real)
        oracle_err = abs(gap - gap_oracle) / mse_inf
        assert oracle_err < 1e-6, f"recursion vs eigen-oracle {oracle_err:.2e}"
        assert gap > 0 and (np.diff(curve.mse[-100:]) < 0).all()
        print(
            f"  fast-mixing model: |transient(1e5) - solve| / solve = {rel:.2e} < 1e-6; "
            f"slow-mixing model: residual gap {gap / mse_inf:.2e} matches the "
            f"eigen-expansion oracle to {oracle_err:.2e}"
        )


@pytest.fixture(scope="module")
def exp1_selective_curve(exp1):
    cfg, d, _, _, _, _ = exp1
    import dataclasses

    setup = build_setup(cfg, d)
    setup = dataclasses.replace(setup, filter_kind=FilterKind.SELECTIVE, s_n=1)
    return _timed(
        "exp1_selective",
        lambda: mc_learning_curve(setup, cfg.n_runs, cfg.n_iters, cfg.seed),
    )


def test_criterion_8_selective_update(exp1, exp1_selective_curve):
    cfg, d, _, _, _, full_curve = exp1
    with criterion(8, "selective update"):
        band = slice(-(cfg.n_iters // 10), None)
        ratio_db = 10 * np.log10(
            exp1_selective_curve.mse[band].mean() / full_curve.mse[band].mean()
        )
        assert abs(ratio_db) < 3.0, f"steady-band gap {ratio_db:.2f} dB"

        kern = GaussianKernel(cfg.sigma)
        gf = gram(d, kern)
        setup = build_setup(cfg, d)
        system = SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu)
        u_vecs, dd = experiment_stream(setup.input_gen, system, 2000, seed=(cfg.seed, 91, 0))
        s_full = FilterState.zeros(d)
        s_sel = FilterState.zeros(d)
        worst = 0.0
        for i in range(2000):
            _, s_full = natural_klms_step(s_full, gf, kern, u_vecs[i], dd[i], cfg.eta)
            _, s_sel = selective_step(s_sel, gf, kern, u_vecs[i], dd[i], cfg.eta,
                                      s_n=d.size)
            worst = max(worst, np.abs(s_full.alpha - s_sel.alpha).max())
        assert worst < 1e-10, f"full-width selective deviation {worst:.2e}"

        assert complexity_report(25, 2, 1) == ((2 + 25 + 2) * 25, (2 + 1 + 1) * 25 + 1)
        assert complexity_report(25, 2, 1) == (725, 101)
        for r, L, s in ((10, 2, 3), (31, 2, 1), (25, 4, 5)):
            assert complexity_report(r, L, s) == ((L + r + 2) * r, (L + s + 1) * r + s**3)
        print(
            f"  steady-band gap {ratio_db:.2f} dB (< 3 dB); "
            f"s_n = r deviation {worst:.2e}; complexity table exact"
        )


def test_criterion_9_property_suite():
    with criterion(9, "property suite under one minute"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1009)

        # isomorphism inner-product preservation
        for _ in range(5):
            d = Dictionary(rng.uniform(-1, 1, size=(8, 2)))
            gf = gram(d, GaussianKernel(0.7))
            a, b = rng.standard_normal(8), rng.standard_normal(8)
            lhs = (gf.g_sqrt @ a) @ (gf.g_sqrt @ b)
            rhs = a @ gf.g @ b
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

        # PD square-root round trips
        for _ in range(5):
            m = rng.standard_normal((6, 6))
            a = m @ m.T + 6 * np.eye(6)
            sq, inv, _ = pd_sqrt(a)
            assert np.linalg.norm(sq @ sq - a) / np.linalg.norm(a) < 1e-10
            assert np.linalg.norm(inv @ sq - np.eye(6)) < 1e-10

        # Kronecker mixed product
        for _ in range(5):
            a, b, c, dd = (rng.standard_normal((3, 3)) for _ in range(4))
            assert np.abs(kron(a, b) @ kron(c, dd) - kron(a @ c, b @ dd)).max() < 1e-12

        # lexicographic round trip
        for _ in range(5):
            c = rng.standard_normal((9, 9))
            assert np.array_equal(unvec_lex(vec_lex(c), 9), c)

        # fourth-tensor permutation symmetry (closed form, small dictionary)
        d_small = grid_dictionary([-1, -1], [1, 1], 2)
        tensor = full_fourth_tensor(
            d_small, GaussianKernel(0.7), InputModel(stationary_covariance(0.5, 0.5))
        )
        for perm in itertools.permutations(range(4)):
            assert np.array_equal(tensor, tensor.transpose(perm))

        # seed determinism: streams and learning curves
        from kaflab.sim import InputGenerator

        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        assert np.array_equal(ar1_stream(gen, 2000, np.random.default_rng(5)),
                              ar1_stream(gen, 2000, np.random.default_rng(5)))
        cfg = load_config(CONFIGS / "null.cfg")
        setup = build_setup(cfg, build_dictionary(cfg)[0])
        c1 = mc_learning_curve(setup, 3, 100, seed=cfg.seed)
        c2 = mc_learning_curve(setup, 3, 100, seed=cfg.seed)
        assert np.array_equal(c1.mse, c2.mse)

        # a stream estimate of the cross statistics against their closed form, 100 random
        # small cases
        check_cross_stats_against_closed_form()

        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
        print(f"  all property checks in {elapsed:.1f}s")
