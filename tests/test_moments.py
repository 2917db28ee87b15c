"""Closed-form Gaussian kernel moments, their Monte-Carlo oracles, the cross
statistics (exact for the memoryless plants, stream-estimated otherwise), and
moment-model assembly."""

import functools
import sys
from unittest import mock

import numpy as np
import pytest

from kaflab import moments, sim
from kaflab.errors import NotPositiveDefiniteError
from kaflab.kernel import Dictionary, GaussianKernel, gram, grid_dictionary, kernelized_input
from kaflab.moments import (
    CROSS_STATS_BURN_IN,
    CROSS_STATS_CHUNK,
    CrossStats,
    InputModel,
    build_model,
    estimate_cross_stats,
    exact_cross_stats,
    load_moment_model,
    mc_fourth_entries,
    mc_second_moment,
    multi_point_moment,
    save_moment_model,
    second_moment,
    stream_cross_stats,
)
from kaflab.sim import InputGenerator, SystemKind, SystemSimulator, stationary_covariance
from conftest import (CONFIGS, EXP1_SEED, full_fourth_tensor, input_model, peak_growth_mb,
                      s_tilde, whole_stream)


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
        d = grid_dictionary([-1, -1], [1, 1], 3)
        s = full_fourth_tensor(d, GaussianKernel(0.7), InputModel(EXP1_RU))
        rng = np.random.default_rng(36)
        for _ in range(50):
            i, j, a, b = rng.integers(0, d.size, 4)
            assert s[i, j, a, b] == s[a, b, i, j]
            assert s[i, j, a, b] == s[j, i, b, a]
            assert s[i, j, a, b] == s[b, a, j, i]
            assert s[i, j, a, b] == s[i, a, j, b]

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


def one_block_cross_stats(system, gen, d, k, n_samples, seed):
    """``(p, p_stderr, d2, d2_stderr)`` reduced as before sub-blocks: the whole stream,
    one kernel block per ``CROSS_STATS_CHUNK`` samples, the blocks' column sums added
    in turn."""
    u, dd = whole_stream(gen, system, n_samples, [(seed, sim.CROSS_STATS_SALT, 0)],
                         warmup=CROSS_STATS_BURN_IN)
    s_dk, s_dk2 = np.zeros(d.size), np.zeros(d.size)
    for i in range(0, n_samples, CROSS_STATS_CHUNK):
        dk = kernelized_input(d, k, u[i:i + CROSS_STATS_CHUNK, 0]) * dd[i:i + CROSS_STATS_CHUNK]
        s_dk += dk.sum(axis=0)
        s_dk2 += np.square(dk).sum(axis=0)
    p = s_dk / n_samples
    d2 = float((dd**2).sum()) / n_samples
    d4 = float(np.square(np.square(dd)).sum())  # as the estimator forms it, in place
    return (p, np.sqrt(np.maximum(s_dk2 / n_samples - p**2, 0.0) / n_samples), d2,
            float(np.sqrt(max(d4 / n_samples - d2**2, 0.0) / n_samples)))


@functools.cache
def estimator_peak_growth_mb() -> float:
    """Peak growth of a fresh interpreter over 2 x 10^6 samples on the second
    experiment's dictionary (r = 31), measured once for both memory guards."""
    return peak_growth_mb(f"""
        from kaflab.config import build_dictionary, build_system, load_config
        from kaflab.kernel import GaussianKernel
        from kaflab.moments import stream_cross_stats
        from kaflab.sim import InputGenerator

        cfg = load_config({str(CONFIGS / "experiment2.cfg")!r})
        d, _ = build_dictionary(cfg)
        gen = InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u)
    """, "stream_cross_stats(build_system(cfg), gen, d, GaussianKernel(cfg.sigma), "
         "2_000_000, cfg.seed)")


class TestEstimateCrossStats:
    @pytest.mark.parametrize("kind", [SystemKind.POLYNOMIAL, SystemKind.FLUID_FLOW])
    @pytest.mark.parametrize("r,work_bytes", [(25, None), (31, None), (25, 3000)],
                             ids=["r25", "r31", "r25-15-row-blocks"])
    def test_sub_blocks_keep_the_bits_of_one_block_per_chunk(self, kind, r, work_bytes):
        """Two full chunks and a half one, against one kernel block per chunk. The
        kernel sub-blocks hold 5000 rows at r = 25, 4000 at r = 31 and 10 under a
        3000-byte budget, and the stream blocks 16 of them, so a chunk is cut into many
        sub-blocks, and stream blocks of 80,000 and 64,000 rows end inside a chunk: the
        bits do not depend on the sub-block size. Stream blocks that straddle a
        sub-block are covered by ``test_the_record_does_not_depend_on_the_stream_block``."""
        d = (grid_dictionary([-1, -1], [1, 1], 5) if r == 25
             else Dictionary(np.random.default_rng(31).uniform(-1, 1, (r, 2))))
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=kind, noise_sigma=0.05)
        with mock.patch.object(sim, "MC_WORK_BYTES", work_bytes or sim.MC_WORK_BYTES):
            stats = stream_cross_stats(system, gen, d, k, 250_000, seed=9)
        p, p_stderr, d2, d2_stderr = one_block_cross_stats(system, gen, d, k, 250_000, 9)
        assert np.array_equal(stats.p, p) and np.array_equal(stats.p_stderr, p_stderr)
        assert stats.d2 == d2 and stats.d2_stderr == d2_stderr

    @pytest.mark.parametrize("r,sub", [(25, 5000), (31, 4000), (81, 1250), (100, 1250)])
    def test_sub_blocks_lie_on_a_grid_that_divides_the_chunk(self, r, sub):
        """A kernel sub-block holds the largest divisor of ``CROSS_STATS_CHUNK`` whose
        r kernel values fit ``sim.MC_WORK_BYTES``, so every chunk starts on the grid of
        sub-blocks: 10^4 samples are sub-blocks of ``sub`` samples and a shorter last one."""
        d = Dictionary(np.random.default_rng(r).uniform(-1, 1, (r, 2)))
        system = SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.05)
        lengths = []

        def recorded(d, k, u, **kwargs):
            lengths.append(len(u))
            return kernelized_input(d, k, u, **kwargs)

        with mock.patch.object(moments, "kernelized_input", recorded):
            stream_cross_stats(system, InputGenerator(rho=0.5, sigma_u=0.5), d,
                               GaussianKernel(0.7), 10_000, seed=1)
        assert CROSS_STATS_CHUNK % sub == 0
        assert lengths == [sub] * (10_000 // sub) + [10_000 % sub] * (10_000 % sub > 0)

    def test_the_record_does_not_depend_on_the_stream_block(self):
        """The fluid-flow plant at r = 31, its stream drawn in blocks of one kernel
        sub-block, of a size no sub-block or chunk divides, of 2^16 samples and of the
        default 16 sub-blocks: the first block's largest |d_n| picks d_n's scale, which
        changes with the block and leaves every bit of the record as it is."""
        d = Dictionary(np.random.default_rng(31).uniform(-1, 1, (31, 2)))
        k, gen = GaussianKernel(0.7), InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.05)
        stream_blocks = sim.stream_blocks
        records = [stream_cross_stats(system, gen, d, k, 250_000, seed=9)]
        for block in (4228, 3 * 4228 + 7, 65_536):
            def blocks_of(*args, block=block, **kwargs):
                return stream_blocks(*args, **{**kwargs, "block": block})
            with mock.patch.object(sim, "stream_blocks", blocks_of):
                records.append(stream_cross_stats(system, gen, d, k, 250_000, seed=9))
        for rec in records[1:]:
            assert np.array_equal(rec.p, records[0].p)
            assert np.array_equal(rec.p_stderr, records[0].p_stderr)
            assert rec.d2 == records[0].d2 and rec.d2_stderr == records[0].d2_stderr

    @pytest.mark.parametrize("sigma_u,name", [(1e-200, "p_stderr"), (1e-120, "d2_stderr")])
    def test_standard_errors_of_a_small_signal_do_not_underflow(self, sigma_u, name):
        """A noiseless fluid-flow plant driven at 1e-200 (1e-120): d_n kappa_n squared
        (d_n^4) underflows to zero, and its standard error with it, unless d_n is
        scaled first."""
        d = grid_dictionary([-1, -1], [1, 1], 2)
        system = SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.0)
        stats = stream_cross_stats(system, InputGenerator(rho=0.5, sigma_u=sigma_u), d,
                                   GaussianKernel(0.7), 20_000, seed=3)
        assert (np.asarray(getattr(stats, name)) > 0).all()

    @pytest.mark.parametrize("kind", [SystemKind.POLYNOMIAL, SystemKind.NULL])
    def test_matches_the_closed_form_cross_statistics(self, kind):
        """Experiment 1's dictionary and input at 10^6 samples. The bound, fixed in
        advance, is 4 standard errors widened by sqrt((1 + rho) / (1 - rho)), because
        the AR(1) samples are correlated; the polynomial plant read max |z| 1.25 for p
        and 0.17 for E[d^2]."""
        d = grid_dictionary([-1, -1], [1, 1], 5)
        k, im, rho = GaussianKernel(0.7), input_model(), 0.5
        system = SystemSimulator(kind=kind, noise_sigma=0.05)
        stats = stream_cross_stats(system, InputGenerator(rho=rho, sigma_u=0.5), d, k,
                                   1_000_000, seed=EXP1_SEED)
        p, d2 = exact_cross_stats(system, d, k, im)
        bound = 4.0 * np.sqrt((1.0 + rho) / (1.0 - rho))
        assert (np.abs(stats.p - p) <= bound * stats.p_stderr).all()
        assert abs(stats.d2 - d2) <= bound * stats.d2_stderr

    def test_null_system_noise_floor(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.NULL, noise_sigma=0.05)
        stats = stream_cross_stats(system, gen, d, k, 100_000, seed=101)
        assert (np.abs(stats.p) < 4 * stats.p_stderr).all()
        assert stats.d2 == pytest.approx(0.0025, abs=4 * stats.d2_stderr)

    def test_matches_closed_form_for_kernel_plant(self):
        k = GaussianKernel(0.7)
        d = grid_dictionary([-1, -1], [1, 1], 2)
        plant = _KernelPlant(d.centers[0], 0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        stats = stream_cross_stats(plant, gen, d, k, 200_000, seed=102)
        im = InputModel(stationary_covariance(0.5, 0.5))
        for j in range(d.size):
            expected = multi_point_moment([d.centers[0], d.centers[j]], k, im)
            assert abs(stats.p[j] - expected) < 4 * stats.p_stderr[j]

    def test_seed_stability(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        s1 = stream_cross_stats(system, gen, d, k, 100_000, seed=1)
        s2 = stream_cross_stats(system, gen, d, k, 100_000, seed=2)
        joint = np.hypot(s1.d2_stderr, s2.d2_stderr)
        assert abs(s1.d2 - s2.d2) < 4 * joint

    def test_deterministic_given_seed(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k = GaussianKernel(0.7)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        a = stream_cross_stats(system, gen, d, k, 20_000, seed=7)
        b = stream_cross_stats(system, gen, d, k, 20_000, seed=7)
        assert np.array_equal(a.p, b.p)
        assert a.d2 == b.d2

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
    def test_memory_grows_with_the_block_not_the_stream(self):
        """In a fresh interpreter, 2 x 10^6 samples on the second experiment's
        dictionary (r = 31) raise the peak resident set by less than 130 MB: the
        stream is drawn in blocks and only d_n is kept whole. The whole stream and its
        full-length temporaries took over 170 MB."""
        growth_mb = estimator_peak_growth_mb()
        assert growth_mb < 130, f"peak resident set grew by {growth_mb:.0f} MB"

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
    def test_memory_grows_with_the_sub_block_not_the_chunk(self):
        """In a fresh interpreter, 2 x 10^6 samples at r = 31 raise the peak resident
        set by less than 25 MB (19 MB measured): the stream is drawn and its kernel
        values formed in blocks within the engine's byte budget, and d_n (16 MB) is
        squared in place, so d_n is the only array that grows with the stream. Drawing
        10^5-sample blocks and taking d_n's powers into new arrays took 42 MB, and one
        kernel block per 10^5-sample chunk 97 MB."""
        growth_mb = estimator_peak_growth_mb()
        assert growth_mb < 25, f"peak resident set grew by {growth_mb:.0f} MB"

    def test_rejects_small_sample_count(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.NULL, noise_sigma=0.05)
        with pytest.raises(ValueError):
            stream_cross_stats(system, gen, d, GaussianKernel(0.7), 5000, seed=1)


class TestCrossStatsDispatch:
    """``estimate_cross_stats`` is exact for the memoryless plants and the stream estimate
    for any other."""

    @pytest.mark.parametrize("kind", [SystemKind.POLYNOMIAL, SystemKind.NULL])
    def test_memoryless_plants_are_exact(self, kind):
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k, gen = GaussianKernel(0.7), InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=kind, noise_sigma=0.05)
        laps = sim.Laps()
        stats = estimate_cross_stats(system, gen, d, k, 10_000, seed=3, laps=laps)
        p, d2 = exact_cross_stats(system, d, k, input_model())
        assert stats.n_samples == 0 and laps.seconds == laps.counts == {}
        assert not stats.p_stderr.any() and stats.d2_stderr == 0.0
        assert np.array_equal(stats.p, p) and stats.d2 == d2

    @pytest.mark.parametrize("plant", ["fluid_flow", "kernel"])
    def test_other_plants_take_the_stream(self, plant):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        k, gen = GaussianKernel(0.7), InputGenerator(rho=0.5, sigma_u=0.5)
        system = (SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.05)
                  if plant == "fluid_flow" else _KernelPlant(d.centers[0], 0.7))
        a = estimate_cross_stats(system, gen, d, k, 20_000, seed=5)
        b = stream_cross_stats(system, gen, d, k, 20_000, seed=5)
        assert a.n_samples == b.n_samples == 20_000
        for name in ("p", "d2", "p_stderr", "d2_stderr"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

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


def small_model(seed=41, n_samples=100_000):
    d = grid_dictionary([-1, -1], [1, 1], 2)
    k = GaussianKernel(0.7)
    im = InputModel(stationary_covariance(0.5, 0.5))
    gen = InputGenerator(rho=0.5, sigma_u=0.5)
    system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
    stats = estimate_cross_stats(system, gen, d, k, n_samples, seed=seed)
    return d, k, im, stats, build_model(d, k, im, stats.p, stats.d2,
                                        d2_stderr=stats.d2_stderr)


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
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.NULL, noise_sigma=0.05)
        stats = estimate_cross_stats(system, gen, d, k, 200_000, seed=43)
        m = build_model(d, k, im, stats.p, stats.d2, d2_stderr=stats.d2_stderr)
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
        d, k, im, stats, m = small_model(seed=47, n_samples=200_000)
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
        assert np.array_equal(loaded.p_stderr, stats.p_stderr)
        assert loaded.d2 == stats.d2
        assert loaded.d2_stderr == stats.d2_stderr
        assert loaded.n_samples == stats.n_samples
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
        # a record of the first format, whose d2_stderr took d_n**4 in one rounding
        path.write_text('{"format": "kaflab-cross-stats-v1", "p": [1.0], "d2": 1.0, '
                        '"p_stderr": [0.1], "d2_stderr": 0.1, "n_samples": 10000}')
        with pytest.raises(ValueError):
            load_moment_model(path, 1)

    def test_rejects_truncated_and_wrong_length_records(self, tmp_path):
        _, _, _, stats, _ = small_model()
        path = tmp_path / "cross_stats.json"
        save_moment_model(stats, path)
        with pytest.raises(ValueError):
            load_moment_model(path, stats.p.size + 1)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError):
            load_moment_model(path, stats.p.size)
