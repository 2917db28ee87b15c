"""Closed-form Gaussian kernel moments, their Monte-Carlo oracles, the exact cross
statistics against stream estimates, and moment-model assembly."""

import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaflab import linalg, moments, sim
from kaflab.analysis import build_k
from kaflab.config import build_dictionary, build_input_model, build_system, load_config
from kaflab.errors import NotPositiveDefiniteError
from kaflab.kernel import Dictionary, GaussianKernel, gram, grid_dictionary, kernelized_input
from kaflab.moments import (
    CrossStats,
    InputModel,
    build_model,
    estimate_cross_stats,
    exact_cross_stats,
    fluid_flow_covariance,
    fourth_tensor,
    load_moment_model,
    mc_fourth_entries,
    mc_second_moment,
    multi_point_moment,
    save_moment_model,
    second_moment,
)
from kaflab.sim import InputGenerator, SystemKind, SystemSimulator, stationary_covariance
from conftest import (CONFIGS, EXP1_SEED, expand_pairs, fourth_tensor_tolerance,
                      fourth_tensor_whole, full_fourth_tensor, input_model, k_sym_whole,
                      one_block_cross_stats, peak_growth_mb, s_tilde, sym_congruence_whole,
                      t_sym_whole)


def two_point_reference(c_l, c_m, sigma, r_u):
    """Independent closed form for a pair of centers.

    Written directly from the summed-center identity: with ubar the center
    sum and nsq the sum of squared center norms,

        |I + (2/s^2) R|^(-1/2)
            * exp(-(2 nsq - ubar' (I + (s^2/2) R^-1)^-1 ubar) / (4 s^2)).

    Uses explicit inverses on purpose, as a separate route from the library.
    """
    c_l = np.asarray(c_l, float)
    c_m = np.asarray(c_m, float)
    L = c_l.size
    ubar = c_l + c_m
    nsq = c_l @ c_l + c_m @ c_m
    det_term = np.linalg.det(np.eye(L) + (2.0 / sigma**2) * r_u) ** -0.5
    w = np.linalg.inv(np.eye(L) + (sigma**2 / 2.0) * np.linalg.inv(r_u))
    return det_term * np.exp(-(2.0 * nsq - ubar @ w @ ubar) / (4.0 * sigma**2))


EXP1_RU = 0.25 * np.array([[1.0, 0.5], [0.5, 1.0]])


class TestMultiPointMoment:
    def test_two_point_matches_reference_formula(self):
        rng = np.random.default_rng(31)
        im = InputModel(EXP1_RU)
        k = GaussianKernel(0.7)
        for _ in range(3):
            centers = rng.uniform(-1, 1, size=(6, 2))
            for l in range(6):
                for m in range(6):
                    general = multi_point_moment([centers[l], centers[m]], k, im)
                    ref = two_point_reference(centers[l], centers[m], 0.7, EXP1_RU)
                    assert general == pytest.approx(ref, rel=1e-10)

    def test_deterministic_limit(self):
        # u ~ N(0, eps I) collapses onto the origin
        im = InputModel(1e-12 * np.eye(2))
        k = GaussianKernel(0.7)
        rng = np.random.default_rng(32)
        centers = rng.uniform(-1, 1, size=(3, 2))
        val = multi_point_moment(centers, k, im)
        expected = np.prod(
            [np.exp(-(c @ c) / (2 * 0.49)) for c in centers]
        )
        assert val == pytest.approx(expected, rel=1e-6)

    def test_four_point_against_mc(self):
        rng = np.random.default_rng(33)
        im = InputModel(EXP1_RU)
        k = GaussianKernel(0.7)
        centers = rng.uniform(-1, 1, size=(4, 2))
        closed = multi_point_moment(centers, k, im)
        n = 2_000_000
        u = rng.standard_normal((n, 2)) @ np.linalg.cholesky(EXP1_RU).T
        prod = np.ones(n)
        for c in centers:
            prod *= np.exp(-((u - c) ** 2).sum(axis=1) / (2 * 0.49))
        mean = prod.mean()
        stderr = prod.std() / np.sqrt(n)
        assert abs(closed - mean) < 4 * stderr

    def test_single_point_against_mc(self):
        rng = np.random.default_rng(34)
        im = InputModel(EXP1_RU)
        k = GaussianKernel(0.7)
        c = np.array([0.3, -0.4])
        closed = multi_point_moment([c], k, im)
        n = 1_000_000
        u = rng.standard_normal((n, 2)) @ np.linalg.cholesky(EXP1_RU).T
        vals = np.exp(-((u - c) ** 2).sum(axis=1) / (2 * 0.49))
        assert abs(closed - vals.mean()) < 4 * vals.std() / np.sqrt(n)

    def test_requires_pd_covariance(self):
        with pytest.raises(NotPositiveDefiniteError):
            InputModel(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestSecondMoment:
    def test_single_center_at_origin(self):
        s2 = 0.3
        im = InputModel(s2 * np.eye(2))
        k = GaussianKernel(0.7)
        d = Dictionary(np.array([[0.0, 0.0]]))
        r = second_moment(d, k, im)
        expected = (1.0 + 2.0 * s2 / 0.49) ** -1.0  # |I + (2/s^2) R|^-1/2, L=2
        assert r[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_positive_definite_and_symmetric(self):
        d = grid_dictionary([-1, -1], [1, 1], 4)
        r = second_moment(d, GaussianKernel(0.7), InputModel(EXP1_RU))
        assert np.abs(r - r.T).max() == 0.0
        assert (r > 0).all()
        assert np.linalg.eigvalsh(r)[0] > 0

    def test_entries_match_mc(self):
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k = GaussianKernel(0.7)
        im = InputModel(EXP1_RU)
        closed = second_moment(d, k, im)
        rng = np.random.default_rng(35)
        mc, stderr = mc_second_moment(d, k, im, 400_000, rng)
        z = np.abs(closed - mc) / stderr
        assert z.max() < 4.0

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
    def test_oracle_memory_is_under_four_chunk_arrays(self):
        """Two chunks of draws on a 7 x 7 grid (r = 49) raise the peak resident set by less
        than 3.5 (n, r) arrays of doubles, n = MC_MOMENT_CHUNK (262 MB): the last chunk's
        values and their squares, the next chunk's values, filled a budget-sized block at a
        time. The whole chunk's values formed at once, beside their r x n work array, read
        about four (311 MB)."""
        n, r = moments.MC_MOMENT_CHUNK, 49
        growth_mb = peak_growth_mb("""
            import numpy as np
            from kaflab.kernel import GaussianKernel, grid_dictionary
            from kaflab.moments import MC_MOMENT_CHUNK, InputModel, mc_second_moment
            from kaflab.sim import stationary_covariance

            d = grid_dictionary([-1, -1], [1, 1], 7)
            k, im = GaussianKernel(0.7), InputModel(stationary_covariance(0.5, 0.5))
        """, "mc_second_moment(d, k, im, 2 * MC_MOMENT_CHUNK, np.random.default_rng(0))")
        assert growth_mb < 3.5 * n * r * 8 / 2**20, f"peak resident set grew by {growth_mb:.0f} MB"


class TestFourthTensor:
    def test_repeated_index_structural_identity(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        im = InputModel(EXP1_RU)
        s = full_fourth_tensor(d, k, im)
        for i in range(d.size):
            c = d.centers[i]
            assert s[i, i, i, i] == pytest.approx(
                multi_point_moment([c, c, c, c], k, im), rel=1e-12
            )

    def test_permutation_symmetry_exact(self):
        """The library's tensor is exactly symmetric in its pairs and within each pair; the
        form by index multisets is also exactly equal across pairings."""
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k, im = GaussianKernel(0.7), InputModel(EXP1_RU)
        s = full_fourth_tensor(d, k, im)
        s_whole = expand_pairs(fourth_tensor_whole(d, k, im), d.size)
        rng = np.random.default_rng(36)
        for _ in range(50):
            i, j, a, b = rng.integers(0, d.size, 4)
            assert s[i, j, a, b] == s[a, b, i, j]
            assert s[i, j, a, b] == s[j, i, b, a]
            assert s[i, j, a, b] == s[b, a, j, i]
            assert s_whole[i, j, a, b] == s_whole[i, a, j, b]

    @pytest.mark.parametrize("name", ["null", "experiment1", "experiment2", "grid4"])
    def test_within_rounding_of_the_multiset_form(self, name):
        """Entry by entry within ``16 eps (1 + T) S + tiny`` of the form by index multisets, T
        the four centers' summed squared norms over 2 sigma^2, on the shipped configs and on a
        2 x 2 grid at +-4 with sigma = 0.2. There the cross term ``x_a'M x_b / sigma^4`` reaches
        779, so a form that exponentiates it apart, ``D_g exp(...) D_g``, gives inf and nan."""
        if name == "grid4":
            d, k, im = grid_dictionary([-4, -4], [4, 4], 2), GaussianKernel(0.2), input_model()
        else:
            cfg = load_config(CONFIGS / f"{name}.cfg")
            d, k, im = build_dictionary(cfg)[0], GaussianKernel(cfg.sigma), build_input_model(cfg)
        s, s_whole = fourth_tensor(d, k, im), fourth_tensor_whole(d, k, im)
        assert np.isfinite(s).all()
        bound = fourth_tensor_tolerance(d, k) * s_whole + np.finfo(float).tiny
        assert (np.abs(s - s_whole) <= bound).all()

    def test_entries_match_mc(self):
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k = GaussianKernel(0.7)
        im = InputModel(EXP1_RU)
        s = full_fourth_tensor(d, k, im)
        rng = np.random.default_rng(37)
        entries = [tuple(rng.integers(0, d.size, 4)) for _ in range(5)]
        mc, stderr = mc_fourth_entries(d, k, im, entries, 1_000_000, rng)
        for e_i, e in enumerate(entries):
            assert abs(s[e] - mc[e_i]) < 4 * stderr[e_i]

    @pytest.mark.parametrize("n_samples", [250_000, 200_001])
    def test_entries_keep_the_centers_major_bits(self, n_samples):
        """A draw count that leaves a short last chunk gives the sums of each chunk copied whole
        centers-major, bit for bit."""
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k, im = GaussianKernel(0.7), InputModel(EXP1_RU)
        entries = [(0, 1, 2, 3), (4, 4, 8, 0), (5, 6, 7, 8), (2, 2, 2, 2)]
        s1, s2 = np.zeros(len(entries)), np.zeros(len(entries))
        chunks = moments._mc_kernel_chunks(d, k, im, n_samples, np.random.default_rng(38))
        for km in chunks:
            kt = np.ascontiguousarray(km.T)
            for e_i, (i, j, s, t) in enumerate(entries):
                prod = kt[i] * kt[j] * kt[s] * kt[t]
                s1[e_i] += prod.sum()
                s2[e_i] += (prod**2).sum()
        mc = mc_fourth_entries(d, k, im, entries, n_samples, np.random.default_rng(38))
        for got, want in zip(mc, moments._mean_and_stderr(s1, s2, n_samples)):
            assert np.array_equal(got, want)


def assert_blocked_forms_keep_their_bits(d, k, im, eta):
    """The fourth moments at this block budget equal those at a budget that holds all m rows,
    and the blocked congruence matrices, the model's ``t_sym`` and K's symmetric block formed
    in place equal their whole-array forms, bit for bit. A Gram matrix that is not positive
    definite ends the check after the first three."""
    r = d.size
    a, b = np.random.default_rng(r).standard_normal((2, r, r))
    m = r * (r + 1) // 2
    with mock.patch.object(linalg, "WORK_BYTES", 8 * m * m):
        one_block = fourth_tensor(d, k, im)
    assert np.array_equal(fourth_tensor(d, k, im), one_block)
    assert np.array_equal(linalg.sym_congruence(a), sym_congruence_whole(a))
    assert np.array_equal(linalg.sym_congruence(a, b), sym_congruence_whole(a, b))
    alpha = np.full(r, 0.1)
    p = second_moment(d, k, im) @ alpha
    try:
        model = build_model(d, k, im, p, float(p @ alpha) + 1.0)
    except NotPositiveDefiniteError:
        return
    assert np.array_equal(model.t_sym, t_sym_whole(d, k, im))
    assert np.array_equal(build_k(model, eta).k_sym, k_sym_whole(model, eta))


class TestBlockedFormsKeepTheirBits:
    """The m x m builders (``fourth_tensor``, ``sym_congruence``, ``build_model``'s B S Bᵀ and
    ``build_k``'s K) against the whole-array forms they replaced, in ``tests/conftest.py``."""

    @pytest.mark.parametrize("budget", [linalg.WORK_BYTES, 1])
    @pytest.mark.parametrize("name", ["null", "experiment1", "experiment2"])
    def test_shipped_dictionaries(self, name, budget):
        """At the shipped block budget (several congruence blocks for r = 25 and 31, two
        fourth-moment blocks for r = 31) and at one row per block."""
        cfg = load_config(CONFIGS / f"{name}.cfg")
        d, _ = build_dictionary(cfg)
        with mock.patch.object(linalg, "WORK_BYTES", budget):
            assert_blocked_forms_keep_their_bits(d, GaussianKernel(cfg.sigma),
                                                 build_input_model(cfg), cfg.eta)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(r=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           sigma=st.floats(0.2, 0.8), eta=st.floats(0.01, 0.5),
           budget=st.one_of(st.just(1), st.integers(1, 2**21)))
    @example(r=1, seed=0, sigma=0.5, eta=0.075, budget=2**20)
    @example(r=40, seed=1, sigma=0.3, eta=0.075, budget=1)  # one row per block
    # r = 13, m = 91: blocks of 24 fourth-moment rows and of 6 congruence rows, neither dividing m
    @example(r=13, seed=2, sigma=0.4, eta=0.075, budget=3 * 64 * 91)
    def test_drawn_dictionaries(self, r, seed, sigma, eta, budget):
        """r centers drawn uniformly over [-2, 2]^2, at any block budget."""
        d = Dictionary(np.random.default_rng(seed).uniform(-2.0, 2.0, (r, 2)))
        with mock.patch.object(linalg, "WORK_BYTES", budget):
            assert_blocked_forms_keep_their_bits(d, GaussianKernel(sigma), input_model(), eta)


class _KernelPlant:
    """Test double:  d_n is the kernel value against one fixed center."""

    def __init__(self, center, sigma):
        self.center = np.asarray(center, float)
        self.sigma = sigma
        self.noise_sigma = 0.0
        self.warmup_samples = 0

    def respond(self, u, noise, state=None):
        u = np.asarray(u, float)
        vecs = np.stack([u[1:], u[:-1]], axis=-1)
        d = np.exp(-((vecs - self.center) ** 2).sum(axis=-1) / (2 * self.sigma**2)) + noise
        return d if state is None else (d, state)


class TestEstimateCrossStats:
    """The stream estimate of the test oracles, :func:`one_block_cross_stats`, which the
    exact cross statistics replaced: its bounds and its agreement with the closed forms."""

    @pytest.mark.parametrize("kind", [SystemKind.POLYNOMIAL, SystemKind.NULL])
    def test_matches_the_closed_form_cross_statistics(self, kind):
        """Experiment 1's dictionary and input at 10^6 samples. The bound, fixed in
        advance, is 4 standard errors widened by sqrt((1 + rho) / (1 - rho)), because
        the AR(1) samples are correlated; the polynomial plant read max |z| 1.25 for p
        and 0.17 for E[d^2]."""
        d = grid_dictionary([-1, -1], [1, 1], 5)
        k, im, rho = GaussianKernel(0.7), input_model(), 0.5
        system = SystemSimulator(kind=kind, noise_sigma=0.05)
        est, p_stderr, est_d2, d2_stderr = one_block_cross_stats(
            system, InputGenerator(rho=rho, sigma_u=0.5), d, k, 1_000_000, EXP1_SEED)
        p, d2 = exact_cross_stats(system, d, k, im)
        bound = 4.0 * np.sqrt((1.0 + rho) / (1.0 - rho))
        assert (np.abs(est - p) <= bound * p_stderr).all()
        assert abs(est_d2 - d2) <= bound * d2_stderr

    def test_null_system_noise_floor(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.NULL, noise_sigma=0.05)
        p, p_stderr, d2, d2_stderr = one_block_cross_stats(system, gen, d, k, 100_000, 101)
        assert (np.abs(p) < 4 * p_stderr).all()
        assert d2 == pytest.approx(0.0025, abs=4 * d2_stderr)

    def test_matches_closed_form_for_kernel_plant(self):
        k = GaussianKernel(0.7)
        d = grid_dictionary([-1, -1], [1, 1], 2)
        plant = _KernelPlant(d.centers[0], 0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        p, p_stderr, _, _ = one_block_cross_stats(plant, gen, d, k, 200_000, 102)
        im = InputModel(stationary_covariance(0.5, 0.5))
        for j in range(d.size):
            expected = multi_point_moment([d.centers[0], d.centers[j]], k, im)
            assert abs(p[j] - expected) < 4 * p_stderr[j]

    def test_seed_stability(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        _, _, d2_1, stderr_1 = one_block_cross_stats(system, gen, d, k, 100_000, 1)
        _, _, d2_2, stderr_2 = one_block_cross_stats(system, gen, d, k, 100_000, 2)
        joint = np.hypot(stderr_1, stderr_2)
        assert abs(d2_1 - d2_2) < 4 * joint

    def test_deterministic_given_seed(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        a = one_block_cross_stats(system, gen, d, k, 20_000, 7)
        b = one_block_cross_stats(system, gen, d, k, 20_000, 7)
        assert np.array_equal(a[0], b[0])
        assert a[2] == b[2]

class TestCrossStatsDispatch:
    """``estimate_cross_stats`` gives the exact cross statistics."""

    @pytest.mark.parametrize("kind", [SystemKind.POLYNOMIAL, SystemKind.NULL])
    def test_memoryless_plants_are_exact(self, kind):
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k = GaussianKernel(0.7)
        system = SystemSimulator(kind=kind, noise_sigma=0.05)
        stats = estimate_cross_stats(system, input_model(), d, k)
        p, d2 = exact_cross_stats(system, d, k, input_model())
        assert np.array_equal(stats.p, p) and stats.d2 == d2

    def test_the_fluid_flow_plant_is_exact(self):
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k = GaussianKernel(0.7)
        system = SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.05)
        stats = estimate_cross_stats(system, input_model(), d, k)
        p, d2 = exact_cross_stats(system, d, k, input_model())
        assert np.array_equal(stats.p, p) and stats.d2 == d2

    @pytest.mark.parametrize("kind", [SystemKind.POLYNOMIAL, SystemKind.NULL])
    def test_exact_cross_stats_match_quadrature(self, kind):
        """Gauss-Hermite quadrature over the 2-D input law, with the plant's own
        ``respond`` at each node: 60 nodes per axis resolve the kernel weight to
        rounding, and ``E[d^2]``, a polynomial of degree 6, exactly."""
        d = Dictionary(np.array([[-1.0, 0.5], [0.0, 0.0], [0.8, -0.9], [2.0, 1.5]]))
        k, im = GaussianKernel(0.6), InputModel(stationary_covariance(0.7, 0.8))
        system = SystemSimulator(kind=kind, noise_sigma=0.1)
        z, w = np.polynomial.hermite_e.hermegauss(60)
        z1, z2 = (a.ravel() for a in np.meshgrid(z, z))
        weights = np.outer(w, w).ravel() / (2.0 * np.pi)
        u = np.stack([z1, z2], axis=1) @ np.linalg.cholesky(im.r_u).T  # rows (u_n, u_n-1)
        dd = system.respond(u[:, ::-1].T, np.zeros((1, u.shape[0])))[0]
        p, d2 = exact_cross_stats(system, d, k, im)
        assert np.allclose(p, (weights * dd) @ kernelized_input(d, k, u), rtol=1e-12,
                           atol=1e-15)
        assert d2 == pytest.approx(weights @ dd**2 + 0.01, rel=1e-12)


# Three fixed input laws and kernel widths (rho, sigma_u, sigma) for the fluid-flow plant,
# besides the second experiment's, on a 3 x 3 grid over +-1.5 sigma_u.
FLUID_FLOW_CASES = [(0.0, 1.0, 1.0), (0.7, 0.3, 0.4), (0.9, 0.8, 0.6)]


def fluid_flow_cases():
    """``(system, gen, d, k)`` of the second experiment and of ``FLUID_FLOW_CASES``."""
    cfg = load_config(CONFIGS / "experiment2.cfg")
    yield (SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=cfg.sigma_nu),
           InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u), build_dictionary(cfg)[0],
           GaussianKernel(cfg.sigma))
    for rho, sigma_u, sigma in FLUID_FLOW_CASES:
        yield (SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.1),
               InputGenerator(rho=rho, sigma_u=sigma_u),
               grid_dictionary([-1.5 * sigma_u] * 2, [1.5 * sigma_u] * 2, 3),
               GaussianKernel(sigma))


def exact_for(system, gen, d, k):
    return exact_cross_stats(system, d, k,
                             InputModel(stationary_covariance(gen.rho, gen.sigma_u)))


class TestFluidFlowCrossStats:
    """The fluid-flow plant's exact cross statistics: the stationary covariance of its
    state, the trapezoid rule's step, and many independent streams."""

    @pytest.mark.parametrize("rho,sigma_u", [(0.5, 0.5), (0.0, 1.0), (0.7, 0.3), (0.9, 0.8),
                                             (0.3, 1e3)])
    def test_covariance_is_that_of_the_impulse_responses(self, rho, sigma_u):
        """``u_n``, ``u_{n-1}`` and ``y_n`` are sums of the innovations weighted by the
        impulse responses of the AR(1) input and of the plant, so their covariance is
        the innovations' variance times the sums of products of those responses (2000
        steps leave the tails below rounding)."""
        r_u = stationary_covariance(rho, sigma_u)
        state = fluid_flow_covariance(r_u)
        impulse = np.zeros(2000)
        impulse[0] = 1.0
        h_u = sim.all_pole(impulse, -rho)
        h_u1 = np.concatenate([[0.0], h_u[:-1]])
        a0, a1 = sim.FLUID_FLOW_TAPS
        h = np.stack([h_u, h_u1, sim.all_pole(a0 * h_u + a1 * h_u1, *sim.FLUID_FLOW_POLES)])
        expected = sigma_u**2 * (1.0 - rho**2) * (h @ h.T)
        assert np.abs(state[:3, :3] - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.abs(state[:2, :2] - r_u).max() <= 1e-13 * np.abs(r_u).max()
        assert np.array_equal(state, state.T)

    @pytest.mark.parametrize("power", [1, 2])
    def test_saturation_means_match_a_fine_rule_in_y(self, power):
        """``E[f(Y)^power]`` against the trapezoid rule in y over 40 standard deviations
        either side of the mean, at a step of 0.002 of the smaller of s and the branch
        points' distance 1/3, normalized by its weights' sum: a separate route that needs
        many more nodes once s exceeds 1/3."""
        g, (s0, s1) = sim.FLUID_FLOW_GAIN, sim.FLUID_FLOW_SATURATION
        for m, s in [(0.0, 0.379), (0.2, 0.3), (-0.5, 0.05), (1.0, 2.0), (0.3, 5.0),
                     (0.0, 10.0), (2.0, 0.01), (0.0, 0.001), (1e-3, 1e-4), (0.5, 0.7)]:
            z = np.linspace(-40.0, 40.0, round(80 * s / (0.002 * min(s, 1 / 3))) + 1)
            y, weights = m + s * z, np.exp(-0.5 * z * z)
            expected = (g * y / np.sqrt(s0 + s1 * y * y)) ** power @ weights / weights.sum()
            got = moments._saturation_mean(power, m, s)
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-15), (m, s)
        assert moments._saturation_mean(power, np.array([0.2, -0.5]), 0.3) == pytest.approx(
            [moments._saturation_mean(power, 0.2, 0.3), moments._saturation_mean(power, -0.5, 0.3)],
            rel=1e-15)

    def test_halving_the_step_moves_nothing_beyond_the_tolerance(self, monkeypatch):
        """``QUADRATURE_STEP`` states that halving it moves p and E[d^2] by under 1e-12
        relative, whatever the input's scale: also at sigma_u = 5 and 100."""
        cases = list(fluid_flow_cases()) + [
            (SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.1),
             InputGenerator(rho=0.5, sigma_u=sigma_u),
             grid_dictionary([-1.5 * sigma_u] * 2, [1.5 * sigma_u] * 2, 3),
             GaussianKernel(sigma_u)) for sigma_u in (5.0, 100.0)]
        exact = [exact_for(*case) for case in cases]
        monkeypatch.setattr(moments, "QUADRATURE_STEP", moments.QUADRATURE_STEP / 2)
        for case, (p, d2) in zip(cases, exact):
            p_half, d2_half = exact_for(*case)
            assert np.abs(p_half - p).max() < 1e-12 * np.abs(p).max()
            assert abs(d2_half - d2) < 1e-12 * d2

    def test_within_four_standard_errors_of_many_independent_streams(self):
        """128 seeds drawn through ``stream_blocks``, all stepped in lockstep, 8000
        stationary samples each after 1000 discarded: the per-seed means of d kappa and
        d^2 are independent, so their spread gives the standard error of their mean, the
        streams' autocorrelation included. Every component of p, and E[d^2], lies within
        4 of those standard errors of the exact values, on the second experiment's
        dictionary and on ``FLUID_FLOW_CASES``, in under 20 s (about 3 s here)."""
        n, n_seeds, start = 8000, 128, time.perf_counter()
        for system, gen, d, k in fluid_flow_cases():
            seeds = [(1032, j) for j in range(n_seeds)]
            dk, dd2 = np.zeros((n_seeds, d.size)), np.zeros(n_seeds)
            for u, dd in sim.stream_blocks(gen, system, n, seeds, warmup=1000, block=256):
                dk += np.einsum("tm,tmr->mr", dd, kernelized_input(d, k, u))
                dd2 += np.square(dd).sum(axis=0)
            p, d2 = exact_for(system, gen, d, k)
            for means, exact in ((dk / n, p), (dd2 / n, d2)):
                stderr = means.std(axis=0, ddof=1) / np.sqrt(n_seeds)
                z = (means.mean(axis=0) - exact) / stderr
                assert np.abs(z).max() <= 4.0, (gen, z)
        assert time.perf_counter() - start < 20


def small_model():
    d = grid_dictionary([-1, -1], [1, 1], 2)
    k = GaussianKernel(0.7)
    im = InputModel(stationary_covariance(0.5, 0.5))
    system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
    stats = estimate_cross_stats(system, im, d, k)
    return d, k, im, stats, build_model(d, k, im, stats.p, stats.d2)


class TestBuildModel:
    def test_identity_gram_limit(self):
        # mutually far centers: G is the identity to machine precision, so
        # the transform is a no-op; a wide input law keeps every center
        # excited so the autocorrelation stays PD
        d = Dictionary(np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]]))
        k = GaussianKernel(0.7)
        im = InputModel(100.0 * np.eye(2))
        p = np.array([0.001, 0.002, 0.003])
        m = build_model(d, k, im, p, d2=1.0)
        assert np.abs(m.gram.g - np.eye(3)).max() < 1e-15
        assert np.abs(m.r_tilde - m.r_kappa).max() < 1e-12
        assert np.abs(m.p_tilde - p).max() < 1e-12
        assert np.abs(s_tilde(m) - full_fourth_tensor(d, k, im)).max() < 1e-12

    def test_j_min_noise_floor_for_null_system(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        im = InputModel(stationary_covariance(0.5, 0.5))
        system = SystemSimulator(kind=SystemKind.NULL, noise_sigma=0.05)
        stats = estimate_cross_stats(system, im, d, k)
        m = build_model(d, k, im, stats.p, stats.d2)
        assert m.j_min == pytest.approx(0.0025, rel=0.05)
        assert m.j_min <= stats.d2

    def test_contraction_order_oracle(self):
        d, k, im, _, m = small_model()
        w = m.gram.g_inv_sqrt
        direct = np.einsum(
            "la,mb,pc,qd,abcd->lmpq", w, w, w, w, full_fourth_tensor(d, k, im), optimize=True
        )
        assert np.abs(s_tilde(m) - direct).max() < 1e-10

    def test_s_tilde_symmetry_pairs(self):
        _, _, _, _, m = small_model()
        s_t = s_tilde(m)
        rng = np.random.default_rng(45)
        for _ in range(20):
            l, mm, p, q = rng.integers(0, m.dim, 4)
            assert s_t[l, mm, p, q] == pytest.approx(
                s_t[mm, l, q, p], rel=1e-9, abs=1e-12
            )

    def test_transformed_autocorrelation_matches_mc(self):
        d, k, im, _, m = small_model()
        rng = np.random.default_rng(46)
        mc, stderr = mc_second_moment(d, k, im, 400_000, rng)
        w = m.gram.g_inv_sqrt
        mc_tilde = w @ mc @ w
        band = np.abs(w) @ stderr @ np.abs(w)  # conservative error propagation
        assert (np.abs(m.r_tilde - mc_tilde) < 4 * band + 1e-12).all()

    def test_j_min_matches_mc_mse_of_optimal_filter(self):
        d, k, im, stats, m = small_model()
        alpha_star = m.gram.g_inv_sqrt @ m.alpha_star_tilde
        # fresh stream, different seed: measure the fixed filter's MSE
        from kaflab.sim import experiment_stream

        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        u_vecs, dd = experiment_stream(gen, system, 200_000, seed=48, warmup=1000)
        km = np.exp(
            -((u_vecs[:, None, :] - d.centers[None, :, :]) ** 2).sum(-1) / (2 * 0.49)
        )
        err = dd - km @ alpha_star
        mse = (err**2).mean()
        stderr = (err**2).std() / np.sqrt(err.size)
        assert abs(m.j_min - mse) < 4 * stderr

    def test_initial_mse_identity(self):
        # j_min + p_tilde' r_tilde^-1 p_tilde recovers the raw signal power
        _, _, _, stats, m = small_model()
        assert m.j_min + m.p_tilde @ m.alpha_star_tilde == pytest.approx(
            stats.d2, rel=1e-12
        )


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        _, _, _, stats, _ = small_model()
        path = tmp_path / "cross_stats.json"
        save_moment_model(stats, path)
        loaded = load_moment_model(path, stats.p.size)
        assert isinstance(loaded, CrossStats)
        assert np.array_equal(loaded.p, stats.p)
        assert loaded.d2 == stats.d2
        # the record is small and the temporary file is gone
        assert [f.name for f in tmp_path.iterdir()] == ["cross_stats.json"]
        assert path.stat().st_size < 10_000

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_cross_stats.json"
        path.write_text("n,mse\n0,1.0\n")
        with pytest.raises(ValueError):
            load_moment_model(path, 4)
        path.write_text('{"format": "something-else", "p": [1.0]}')
        with pytest.raises(ValueError):
            load_moment_model(path, 1)
        # records of the first and the third format, whose p and d2 were stream estimates
        for version in (1, 3):
            path.write_text(f'{{"format": "kaflab-cross-stats-v{version}", "p": [1.0], '
                            '"d2": 1.0, "p_stderr": [0.1], "d2_stderr": 0.1, '
                            '"n_samples": 10000}')
            with pytest.raises(ValueError):
                load_moment_model(path, 1)

    @pytest.mark.parametrize("name, record", [("null", "cross_stats_0a57a018259c5f20.json"),
                                              ("experiment1", "cross_stats_d4ad682c3dd9310f.json"),
                                              ("experiment2", "cross_stats_a51bcf26d6c41275.json")])
    def test_record_names_are_pinned(self, name, record):
        """A record's name hashes its format version and the statistics' inputs in one order:
        another byte or order would make every cache already written a miss."""
        cfg = load_config(CONFIGS / f"{name}.cfg")
        d, _ = build_dictionary(cfg)
        assert moments.record_name(build_system(cfg), d, GaussianKernel(cfg.sigma),
                                   build_input_model(cfg)) == record

    def test_rejects_truncated_and_wrong_length_records(self, tmp_path):
        _, _, _, stats, _ = small_model()
        path = tmp_path / "cross_stats.json"
        save_moment_model(stats, path)
        with pytest.raises(ValueError):
            load_moment_model(path, stats.p.size + 1)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError):
            load_moment_model(path, stats.p.size)
