"""Input streams, benchmark plants, and the Monte-Carlo engine."""

import contextlib
import dataclasses
import json
import os
import pickle
import re
import signal
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaflab.sim as sim
from kaflab import linalg
from kaflab.cli import EXIT_OK, main
from kaflab.errors import (
    ArtifactError,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    EigenSolverError,
    InvariantError,
    KaflabError,
    NotPositiveDefiniteError,
    NotStableError,
)
from kaflab.filters import FilterState, knlms_step, natural_klms_step, selective_step
from kaflab.kernel import GaussianKernel, gram, grid_dictionary
from kaflab.sim import (
    MC_RUN_SALT,
    ExperimentSetup,
    FilterKind,
    InputGenerator,
    LearningCurve,
    SystemKind,
    SystemSimulator,
    ar1_stream,
    embed_input,
    experiment_stream,
    load_learning_curve,
    mc_learning_curve,
    save_learning_curve,
    stationary_covariance,
    stream_blocks,
    write_atomic,
)
from conftest import CONFIGS, whole_stream


class TestAr1Stream:
    def test_white_case_variance(self):
        gen = InputGenerator(rho=0.0, sigma_u=0.5)
        rng = np.random.default_rng(61)
        u = ar1_stream(gen, 1_000_000, rng)
        var = u.var()
        stderr = 0.25 * np.sqrt(2 / u.size)
        assert abs(var - 0.25) < 4 * stderr

    def test_lag_one_autocorrelation(self):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        rng = np.random.default_rng(62)
        u = ar1_stream(gen, 1_000_000, rng)
        corr = np.corrcoef(u[1:], u[:-1])[0, 1]
        assert abs(corr - 0.5) < 4 / np.sqrt(u.size)

    def test_stationary_variance_under_correlation(self):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        rng = np.random.default_rng(63)
        u = ar1_stream(gen, 1_000_000, rng)
        assert u.var() == pytest.approx(0.25, rel=0.02)

    def test_deterministic_given_seed(self):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        assert np.array_equal(ar1_stream(gen, 1000, np.random.default_rng(77)),
                              ar1_stream(gen, 1000, np.random.default_rng(77)))

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            InputGenerator(rho=1.0, sigma_u=0.5)


class TestEmbedInput:
    def test_constant_stream(self):
        v = embed_input(np.full(5, 3.0))
        assert np.array_equal(v, np.full((4, 2), 3.0))

    def test_small_stream(self):
        v = embed_input(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(v, [[2.0, 1.0], [3.0, 2.0]])

    def test_covariance_matches_closed_form(self):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        rng = np.random.default_rng(64)
        v = embed_input(ar1_stream(gen, 1_000_000, rng))
        emp = (v.T @ v) / v.shape[0]
        expected = stationary_covariance(0.5, 0.5)
        stderr = np.abs(expected) * np.sqrt(2 / v.shape[0]) + 1e-4
        assert (np.abs(emp - expected) < 4 * stderr).all()


class TestStationaryCovariance:
    def test_white(self):
        assert np.array_equal(stationary_covariance(0.0, 0.5), 0.25 * np.eye(2))

    def test_reference_values(self):
        assert np.allclose(
            stationary_covariance(0.5, 0.5),
            [[0.25, 0.125], [0.125, 0.25]],
        )

    def test_longer_embedding(self):
        r = stationary_covariance(0.5, 1.0, L=3)
        assert r[0, 2] == pytest.approx(0.25)


class TestPolynomialSystem:
    def test_zero_input(self):
        s = SystemSimulator(kind=SystemKind.POLYNOMIAL)
        assert s.respond([0.0, 0.0], [0.0])[0] == 0.0

    def test_scalar_oracle(self):
        # u_n = 1, u_{n-1} = 0: x = 0.5, d = 0.5 - 0.5 * 0.25 + 0.1 * 0.125 = 0.3875
        s = SystemSimulator(kind=SystemKind.POLYNOMIAL)
        assert s.respond([0.0, 1.0], [0.0])[0] == pytest.approx(0.3875, rel=1e-15)

    def test_noise_standard_deviation(self):
        s = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        rng = np.random.default_rng(65)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        u = ar1_stream(gen, 200_001, rng)
        noise = rng.normal(0, 0.05, 200_000)
        d = s.respond(u, noise)
        clean = SystemSimulator(kind=SystemKind.POLYNOMIAL).respond(u, np.zeros(200_000))
        resid = d - clean
        assert resid.std() == pytest.approx(0.05, rel=0.02)

    def test_step_matches_respond(self):
        """The batch output against the plant stepped one sample at a time."""
        rng = np.random.default_rng(66)
        u = rng.standard_normal(101)
        noise = rng.standard_normal(100)
        sim = SystemSimulator(kind=SystemKind.POLYNOMIAL)
        batch = sim.respond(u, noise)
        stepped = np.empty(100)
        for i in range(100):
            x = 0.5 * u[i + 1] - 0.3 * u[i]
            stepped[i] = x - 0.5 * x**2 + 0.1 * x**3 + noise[i]
        assert np.abs(batch - stepped).max() < 1e-12


class TestFluidFlowSystem:
    def test_zero_input(self):
        s = SystemSimulator(kind=SystemKind.FLUID_FLOW)
        assert s.respond([0.0, 0.0], [0.0])[0] == 0.0

    def test_impulse_oracle(self):
        s = SystemSimulator(kind=SystemKind.FLUID_FLOW)
        d = s.respond([0.0, 1.0, 0.0], [0.0, 0.0])  # a unit impulse at n = 1
        x1 = 0.1044
        expected = 0.3163 * x1 / np.sqrt(0.1 + 0.9 * x1**2)
        assert d[0] == pytest.approx(expected, rel=1e-14)
        # next step sees the impulse through u_{n-1} and the plant state
        x2 = 0.0883 + 1.4138 * x1
        expected2 = 0.3163 * x2 / np.sqrt(0.1 + 0.9 * x2**2)
        assert d[1] == pytest.approx(expected2, rel=1e-14)

    def test_plant_poles_inside_unit_circle(self):
        roots = np.roots([1.0, -1.4138, 0.6065])
        assert (np.abs(roots) < 1.0).all()

    def test_bounded_response(self):
        rng = np.random.default_rng(67)
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        u = ar1_stream(gen, 100_001, rng)
        sim = SystemSimulator(kind=SystemKind.FLUID_FLOW)
        d = sim.respond(u, np.zeros(100_000))
        assert np.isfinite(d).all()
        # the saturation bounds |d| by 0.3163 / sqrt(0.9)
        assert np.abs(d).max() <= 0.3163 / np.sqrt(0.9) + 1e-12

    def test_step_matches_respond(self):
        """The batch output against the plant stepped one sample at a time, its state
        ``(x_{n-1}, x_{n-2})`` starting at rest."""
        rng = np.random.default_rng(68)
        u = rng.standard_normal(201)
        noise = rng.standard_normal(200)
        sim = SystemSimulator(kind=SystemKind.FLUID_FLOW)
        batch = sim.respond(u, noise)
        stepped, x_prev, x_prev2 = np.empty(200), 0.0, 0.0
        for i in range(200):
            x = 0.1044 * u[i + 1] + 0.0883 * u[i] + 1.4138 * x_prev - 0.6065 * x_prev2
            x_prev2, x_prev = x_prev, x
            stepped[i] = 0.3163 * x / np.sqrt(0.1 + 0.9 * x**2) + noise[i]
        assert np.abs(batch - stepped).max() < 1e-10


class TestExperimentStream:
    def test_lengths_and_determinism(self):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05)
        v1, d1 = experiment_stream(gen, system, 500, seed=(9, 1, 0))
        v2, d2 = experiment_stream(gen, system, 500, seed=(9, 1, 0))
        assert v1.shape == (500, 2)
        assert d1.shape == (500,)
        assert np.array_equal(v1, v2)
        assert np.array_equal(d1, d2)

    def test_fluid_flow_warmup_applied(self):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.0)
        # with the default warmup the first measured samples have stationary
        # power; with warmup forced to zero the plant starts from rest and
        # the early output is visibly smaller
        n_runs, first = 400, 3
        warm = np.empty((n_runs, first))
        cold = np.empty((n_runs, first))
        for i in range(n_runs):
            _, d_w = experiment_stream(gen, system, first, seed=(10, 0, i))
            _, d_c = experiment_stream(gen, system, first, seed=(10, 0, i), warmup=0)
            warm[i] = d_w
            cold[i] = d_c
        assert cold.var() < 0.5 * warm.var()


def tiny_setup(filter_kind=FilterKind.NATURAL_KLMS, system=SystemKind.POLYNOMIAL,
               noise=0.05, eta=0.075):
    d = grid_dictionary([-1, -1], [1, 1], 3)
    k = GaussianKernel(0.7)
    return ExperimentSetup(
        kernel=k,
        dictionary=d,
        gram=gram(d, k),
        input_gen=InputGenerator(rho=0.5, sigma_u=0.5),
        system=SystemSimulator(kind=system, noise_sigma=noise),
        filter_kind=filter_kind,
        eta=eta,
    )


class TestMcLearningCurve:
    def test_null_system_no_noise_is_identically_zero(self):
        setup = tiny_setup(system=SystemKind.NULL, noise=0.0)
        curve = mc_learning_curve(setup, n_runs=3, n_iters=50, seed=1)
        assert np.array_equal(curve.mse, np.zeros(50))

    def test_single_run_equals_manual_stepping(self):
        setup = tiny_setup()
        curve = mc_learning_curve(setup, n_runs=1, n_iters=100, seed=5)
        u_vecs, dd = experiment_stream(setup.input_gen, setup.system, 100, seed=(5, 1, 0))
        state = FilterState.zeros(setup.dictionary)
        expected = np.empty(100)
        for i in range(100):
            rec, state = natural_klms_step(
                state, setup.gram, setup.kernel, u_vecs[i], dd[i], setup.eta
            )
            expected[i] = rec.prior_error**2
        assert np.array_equal(curve.mse, expected)

    def test_deterministic_and_worker_invariant(self):
        setup = tiny_setup()
        a = mc_learning_curve(setup, n_runs=4, n_iters=60, seed=9)
        b = mc_learning_curve(setup, n_runs=4, n_iters=60, seed=9)
        assert np.array_equal(a.mse, b.mse)

    def test_learning_brings_mse_below_start(self):
        setup = tiny_setup()
        curve = mc_learning_curve(setup, n_runs=20, n_iters=600, seed=11)
        assert curve.mse[-100:].mean() < curve.mse[0]

    def test_selective_and_knlms_run(self):
        for kind in (FilterKind.SELECTIVE, FilterKind.KNLMS):
            setup = tiny_setup(filter_kind=kind)
            curve = mc_learning_curve(setup, n_runs=2, n_iters=200, seed=3)
            assert np.isfinite(curve.mse).all()

    def test_divergence_raises_with_diagnostics(self):
        setup = tiny_setup(eta=500.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                mc_learning_curve(setup, n_runs=1, n_iters=2000, seed=13)
        assert err.value.last_finite_step is not None
        i, norm, last_e = stepped_divergence(setup, 13, 0, 2000)
        assert err.value.last_finite_step == i - 1
        assert str(err.value) == (
            f"run 0 produced a non-finite error at iteration {i} "
            f"(||alpha|| = {norm:.6g}, last finite error {last_e:.6g})"
        )

    def test_divergence_names_the_lowest_diverging_run(self):
        # every run diverges, run 1 first in time, yet run 0 is reported,
        # as when the runs were stepped one after another
        setup = tiny_setup(eta=3.0)
        stepped = [stepped_divergence(setup, 13, run, 2000) for run in range(4)]
        assert min(s[0] for s in stepped) < stepped[0][0]
        with pytest.raises(DivergenceError) as err:
            mc_learning_curve(setup, n_runs=4, n_iters=2000, seed=13)
        i, norm, last_e = stepped[0]
        assert err.value.last_finite_step == i - 1
        found = re.fullmatch(
            r"run 0 produced a non-finite error at iteration (\d+) "
            r"\(\|\|alpha\|\| = (\S+), last finite error (\S+)\)", str(err.value))
        assert found is not None, str(err.value)
        assert int(found[1]) == i
        assert float(found[2]) == pytest.approx(norm, rel=1e-5)
        assert float(found[3]) == pytest.approx(last_e, rel=1e-5)


class TestDivergenceInBlocks:
    """Divergence is looked for once per block, and a block where a run first diverges
    is stepped again: the message is the same wherever in a block that falls. At
    eta = 500 and seed 13, run 0 first diverges at iteration 65 and runs 1-3 at 64, 63
    and 63, stepped alone."""

    @staticmethod
    def run_in_blocks(setup, n_runs, block, chunk=None):
        """The engine's error on ``n_runs`` runs, in kernel blocks of ``block`` steps and,
        unless ``chunk`` is given, one chunk."""
        chunk = n_runs if chunk is None else chunk
        with mock.patch.object(linalg, "WORK_BYTES", block * 8 * chunk * setup.dictionary.size), \
                mock.patch.object(sim, "run_chunk_size", lambda r: chunk), \
                np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            mc_learning_curve(setup, n_runs=n_runs, n_iters=200, seed=13)
        return err.value

    @pytest.mark.parametrize("block", [13, 10, 8, 1], ids=["first_step", "mid_block",
                                                           "second_step", "one_step_blocks"])
    def test_one_run_gives_the_oracle_message(self, block):
        setup = tiny_setup(eta=500.0)
        i, norm, last_e = stepped_divergence(setup, 13, 0, 200)
        assert i == 65
        err = self.run_in_blocks(setup, 1, block)
        assert err.last_finite_step == i - 1
        assert str(err) == (f"run 0 produced a non-finite error at iteration {i} "
                            f"(||alpha|| = {norm:.6g}, last finite error {last_e:.6g})")

    @pytest.mark.parametrize("block", [32, 16, 13], ids=["two_runs_in_one_block",
                                                         "mid_block", "first_step"])
    def test_runs_in_lockstep_give_the_message_of_one_step_blocks(self, block):
        # blocks of 32 steps hold runs 0 and 1's first divergences, 16 puts run 1's at
        # a block's first step and run 0's at its second, 13 puts run 0's at a first step
        setup = tiny_setup(eta=500.0)
        stepped = [stepped_divergence(setup, 13, run, 200)[0] for run in range(4)]
        assert stepped == [65, 64, 63, 63]
        err = self.run_in_blocks(setup, 4, block)
        assert str(err) == str(self.run_in_blocks(setup, 4, 1))
        assert err.last_finite_step == 64
        i, norm, last_e = stepped_divergence(setup, 13, 0, 200)
        found = re.fullmatch(
            r"run 0 produced a non-finite error at iteration (\d+) "
            r"\(\|\|alpha\|\| = (\S+), last finite error (\S+)\)", str(err))
        assert found is not None, str(err)
        assert int(found[1]) == i
        assert float(found[2]) == pytest.approx(norm, rel=1e-5)
        assert float(found[3]) == pytest.approx(last_e, rel=1e-5)


class TestStackedProduct:
    """A block's stacked ``kappa G^-1`` products equal the per-step products bit for bit,
    on the block shapes the engine forms: runs m per chunk, steps WORK_BYTES // (8 m r)
    per block, for the shipped dictionary sizes and the tests' own."""

    @pytest.mark.parametrize("r", [4, 9, 25, 31])
    @pytest.mark.parametrize("m", [1, 2, 4, 64, 192, 300])
    def test_equals_the_per_step_products(self, m, r):
        rng = np.random.default_rng(m * r)
        d = grid_dictionary([-1, -1], [1, 1], 2) if r == 4 else (
            grid_dictionary([-1, -1], [1, 1], 3) if r == 9 else None)
        if d is None:
            d = sim.Dictionary(rng.uniform(-1, 1, (r, 2)))
        g_inv = gram(d, GaussianKernel(0.7 if r != 31 else 0.3)).g_inv
        block = max(1, linalg.WORK_BYTES // (8 * m * r))
        kap = rng.uniform(0.0, 1.0, (block, m, r))
        out = np.empty_like(kap)
        stacked = np.matmul(kap, g_inv, out=out)
        assert all(np.array_equal(stacked[i], kap[i] @ g_inv) for i in range(block))
        # the last block of a stream block is shorter
        assert all(np.array_equal(p, k @ g_inv)
                   for p, k in zip(np.matmul(kap[:3], g_inv, out=out[:3]), kap[:3]))


STEPS = {
    FilterKind.NATURAL_KLMS: lambda s, setup, u, d: natural_klms_step(
        s, setup.gram, setup.kernel, u, d, setup.eta),
    FilterKind.SELECTIVE: lambda s, setup, u, d: selective_step(
        s, setup.gram, setup.kernel, u, d, setup.eta, setup.s_n),
    FilterKind.KNLMS: lambda s, setup, u, d: knlms_step(
        s, setup.kernel, u, d, setup.eta, setup.eps_reg),
}


def stepped_run(setup, seed, run, n_iters):
    """Squared a-priori errors of one run stepped alone by the step functions."""
    u, d = experiment_stream(setup.input_gen, setup.system, n_iters,
                             seed=(seed, MC_RUN_SALT, run))
    state = FilterState.zeros(setup.dictionary)
    e2 = np.empty(n_iters)
    for i in range(n_iters):
        rec, state = STEPS[setup.filter_kind](state, setup, u[i], d[i])
        e2[i] = rec.prior_error * rec.prior_error
    return e2


def stepped_divergence(setup, seed, run, n_iters):
    """First iteration with a non-finite squared error of a run stepped alone,
    with ``||alpha||`` there and the error before it."""
    u, d = experiment_stream(setup.input_gen, setup.system, n_iters,
                             seed=(seed, MC_RUN_SALT, run))
    state, last = FilterState.zeros(setup.dictionary), None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_iters):
            rec, after = STEPS[setup.filter_kind](state, setup, u[i], d[i])
            if not np.isfinite(rec.prior_error * rec.prior_error):
                return i, float(np.linalg.norm(state.alpha)), last
            state, last = after, rec.prior_error
    raise AssertionError(f"run {run} did not diverge")


class TestEngineProperties:
    """The lockstep engine against the step functions, run by run."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(FilterKind)),
        s_n=st.integers(1, 9),
        eta=st.floats(0.01, 0.5),
        system=st.sampled_from([SystemKind.POLYNOMIAL, SystemKind.FLUID_FLOW]),
        seed=st.integers(0, 2**32 - 1),
        n_runs=st.integers(2, 5),
        n_iters=st.integers(1, 40),
    )
    def test_engine_matches_step_functions(self, kind, s_n, eta, system, seed, n_runs,
                                           n_iters):
        """On one CPU, so every chunk steps whole in this process: TestTwoProcesses and
        TestPipeline find each of the two-process modes equal to it."""
        setup = tiny_setup(filter_kind=kind, system=system, eta=eta)
        setup = dataclasses.replace(setup, s_n=s_n)
        stepped = np.array([stepped_run(setup, seed, run, n_iters) for run in range(n_runs)])
        # one run is stepped exactly as the step functions step it
        for run in range(n_runs):
            assert np.array_equal(sim._run_single(setup, seed, run, n_iters), stepped[run])
        with cpus(1):
            assert np.array_equal(mc_learning_curve(setup, 1, n_iters, seed).mse, stepped[0])
            # in a chunk, a row's matrix product may round differently
            curve = mc_learning_curve(setup, n_runs, n_iters, seed).mse
        mean = stepped.mean(axis=0)
        assert (np.abs(curve - mean) <= 1e-12 * mean).all()
        # streams drawn three steps at a time give the same bits
        with mock.patch.object(sim, "MC_STREAM_STEPS", 3), cpus(1):
            assert np.array_equal(mc_learning_curve(setup, n_runs, n_iters, seed).mse, curve)
        # one-run chunks and one-step blocks: the sum of the runs stepped alone
        with mock.patch.object(linalg, "WORK_BYTES", 1), cpus(1):
            alone = mc_learning_curve(setup, n_runs, n_iters, seed).mse
        total = np.zeros(n_iters)
        for e2 in stepped:
            total += e2
        assert np.array_equal(alone, total / n_runs)


class TestEngineWorkingSet:
    """``_run_chunk`` holds a fixed working set besides its curve ``total``: its two
    kernel-block buffers with the block's desired values, the arrays of one stream block and
    the runs' generators.
    Python's own allocations, numpy's included, are traced; a later per-step or
    per-block array that is kept, or a larger buffer, fails here."""

    @staticmethod
    def peak_beyond_total(setup, runs, n_iters):
        tracemalloc.start()
        try:
            total = sim._run_chunk(setup, 3, runs, n_iters, sim.Laps())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - total.nbytes

    def test_working_set_does_not_grow_with_the_iterations(self):
        setup, runs = tiny_setup(), range(64)
        self.peak_beyond_total(setup, range(2), 300)  # numpy's first-call caches
        short, long = (self.peak_beyond_total(setup, runs, n) for n in (2000, 4000))
        assert abs(long - short) <= 64 * 1024
        budget = (2 * linalg.WORK_BYTES + 8 * sim.MC_STREAM_STEPS * len(runs) * 8
                  + 4096 * len(runs))
        assert max(short, long) <= budget


def assert_no_child():
    """No process forked here is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def cpus(n):
    """The CPU set of this process patched to ``n`` CPUs, so that the CPUs of the machine do
    not matter; yields the CPU sets of every ``os.sched_setaffinity`` call, which are not
    applied: the engine makes none."""
    pinned = []
    with mock.patch.object(sim.os, "sched_getaffinity", lambda pid: set(range(n))), \
            mock.patch.object(sim.os, "sched_setaffinity", lambda pid, s: pinned.append(set(s))):
        yield pinned


def curve_on(setup, n_runs, n_iters, seed, n_cpus, laps=None):
    """The engine's curve on ``n_cpus`` CPUs, and the processes that stepped it."""
    counters = {}
    with cpus(n_cpus):
        mse = mc_learning_curve(setup, n_runs, n_iters, seed, laps, counters).mse
    assert_no_child()
    return mse, counters["mc_processes"]


class TestTwoProcesses:
    """A chunk of more than 128 runs is always two parts, either side of numpy's root split
    of the sum: on two CPUs they step in this process and a forked child, on one in turn,
    with the same bits."""

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(list(FilterKind)),
        system=st.sampled_from([SystemKind.POLYNOMIAL, SystemKind.FLUID_FLOW]),
        eta=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32 - 1),
        n_runs=st.integers(129, 400),
        n_iters=st.integers(1, 12),
    )
    def test_two_processes_give_the_bits_of_one(self, kind, system, eta, seed, n_runs,
                                                n_iters):
        setup = tiny_setup(filter_kind=kind, system=system, eta=eta)
        one, alone = curve_on(setup, n_runs, n_iters, seed, 1)
        two, split = curve_on(setup, n_runs, n_iters, seed, 2)
        assert (alone, split) == (1, 2)
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("case", [25, 31, 81, 100, "experiment1-300", "experiment2-300",
                                      "experiment2-64"])
    def test_engine_chunks_keep_their_bits(self, tmp_path, case):
        """At the engine's own chunk sizes (655, 528, 202 and 163 runs for r = 25, 31, 81
        and 100), two processes give one's bits. At r = 25 and 31, where the parts' stacked
        products equal the whole chunk's, both are also the bits of the chunk stepped whole.
        ``simulate`` on the shipped experiments at their 300 runs (parts of 144 and 156) and
        on the second at 64 (a pipeline on two CPUs), at 600 steps, past a 512-step stream
        block, writes the same ``simulated.csv`` on one CPU as on two."""
        if isinstance(case, str):
            name, n_runs = case.split("-")
            text = (CONFIGS / f"{name}.cfg").read_text()
            assert text.count("n_runs = 300") == text.count("n_iters = 10000") == 1
            cfg = tmp_path / f"{case}.cfg"
            cfg.write_text(text.replace("n_runs = 300", f"n_runs = {n_runs}")
                           .replace("n_iters = 10000", "n_iters = 600"))

            def on(n_cpus):  # simulated.csv's bytes and the processes that stepped it
                out = tmp_path / str(n_cpus)
                with cpus(n_cpus):
                    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
                assert_no_child()
                manifest = json.loads((out / "manifest.json").read_text())
                return (out / "simulated.csv").read_bytes(), manifest["counters"]["mc_processes"]
        else:
            side = {25: 5, 81: 9, 100: 10}.get(case)
            d = (grid_dictionary([-1, -1], [1, 1], side) if side else
                 sim.Dictionary(np.random.default_rng(7).uniform(-1, 1, (case, 2))))
            k = GaussianKernel(0.7 if case == 25 else 0.3)
            setup = dataclasses.replace(tiny_setup(), dictionary=d, kernel=k, gram=gram(d, k))
            m, n_iters = sim.run_chunk_size(case), 6

            def on(n_cpus):
                mse, processes = curve_on(setup, m, n_iters, 3, n_cpus)
                return mse.tobytes(), processes
        (one, alone), (two, split) = on(1), on(2)
        assert (alone, split) == (1, 2)
        assert one == two
        if case in (25, 31):
            whole = sim._run_chunk(setup, 3, range(m), n_iters, sim.Laps())
            assert one == (whole / m).tobytes()

    def test_numpy_sums_split_at_the_root(self):
        """numpy's pairwise sum of m > 128 contiguous doubles is the sum of its parts
        either side of ``root_split``, added; a split 8 later is not, for some m. A chunk
        of at most 128 runs does not split."""
        rng = np.random.default_rng(1400)
        assert [sim.root_split(m) for m in range(1, 129)] == [0] * 128
        elsewhere = []
        for m in range(129, 1401):
            a = rng.standard_normal((2, m)) * 10.0 ** rng.uniform(-6, 6, (2, m))
            n2 = sim.root_split(m)
            assert 0 < n2 < m and n2 % 8 == 0
            assert np.array_equal(a.sum(axis=1), a[:, :n2].sum(axis=1) + a[:, n2:].sum(axis=1))
            elsewhere.append(np.array_equal(a.sum(axis=1),
                                            a[:, :n2 + 8].sum(axis=1) + a[:, n2 + 8:].sum(axis=1)))
        assert not all(elsewhere)

    def test_child_laps_are_added(self):
        """The child's stream blocks, kernel blocks and steps are counted with this
        process's: two parts of one kernel block each count two of every stage, as on one
        CPU."""
        one, two = sim.Laps(), sim.Laps()
        curve_on(tiny_setup(), 150, 30, 5, 1, one)
        curve_on(tiny_setup(), 150, 30, 5, 2, two)
        assert one.counts == two.counts == {"stream": 2, "kernel_values": 2, "steps": 2}

    def test_one_cpu_steps_the_parts_in_turn(self):
        """On one CPU a chunk of 150 runs steps its parts of 72 and 78 runs one after the
        other in this process, lapping each stage once a part, with the bits of two CPUs."""
        setup, laps = tiny_setup(), sim.Laps()
        two, _ = curve_on(setup, 150, 30, 5, 2)
        with mock.patch.object(sim, "_run_chunk", wraps=sim._run_chunk) as stepped, \
                mock.patch.object(sim.os, "fork", side_effect=AssertionError("forked")):
            one, processes = curve_on(setup, 150, 30, 5, 1, laps)
        assert [c.args[2] for c in stepped.call_args_list] == [range(72), range(72, 150)]
        assert processes == 1
        assert laps.counts == {"stream": 2, "kernel_values": 2, "steps": 2}
        assert np.array_equal(one, two)

    def test_each_process_steps_on_cpus_of_its_own(self):
        """Neither process is pinned: both run where the scheduler puts them, and this
        process keeps its CPU set."""
        with cpus(3) as pinned:
            mc_learning_curve(tiny_setup(), 150, 30, 5)
        assert pinned == []
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU: no chunk is split")
        before, counters = os.sched_getaffinity(0), {}
        mc_learning_curve(tiny_setup(), 150, 30, 5, counters=counters)
        assert_no_child()
        assert counters["mc_processes"] == 2
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("module, call, n_runs, n_iters", [
        (sim.os, "fork", 150, 30), (sim.os, "pipe", 150, 30), (sim.os, "fork", 7, 1500),
        (sim.os, "pipe", 7, 1500), (sim.mmap, "mmap", 7, 1500),
    ], ids=["fork", "pipe", "fork-pipeline", "pipe-pipeline", "mmap-pipeline"])
    def test_fork_failure_steps_the_chunk_whole(self, module, call, n_runs, n_iters):
        """A ``fork``, ``pipe`` or shared ``mmap`` that raises ``OSError`` steps the chunk
        here as one CPU does: a split one (150 runs) its parts in turn, a pipelined one (7
        runs of three kernel blocks) whole."""
        setup = tiny_setup()
        one, _ = curve_on(setup, n_runs, n_iters, 5, 1)
        with mock.patch.object(module, call,
                               side_effect=OSError(24, "Too many open files")) as failed:
            two, processes = curve_on(setup, n_runs, n_iters, 5, 2)
        assert failed.called
        assert processes == 1
        assert np.array_equal(one, two)

    N2 = sim.root_split(130)

    @staticmethod
    @contextlib.contextmanager
    def patched_chunk(child, here=None):
        """``_run_chunk`` as ``child(real, *args)`` in a forked child and as
        ``here(real, *args)`` (default: itself) in this process; yields the runs of the
        parts stepped here."""
        real, parent, calls = sim._run_chunk, os.getpid(), []

        def run_chunk(*args):
            if os.getpid() != parent:
                return child(real, *args)
            calls.append(args[2])
            return (here or (lambda real, *args: real(*args)))(real, *args)

        with mock.patch.object(sim, "_run_chunk", run_chunk):
            yield calls

    def test_child_without_an_answer_makes_the_parts_step_in_turn(self):
        """A child that ends before its answer leaves the chunk to this process, which steps
        both parts in turn once its own part is done, as on one CPU; the clock counts those
        two parts only."""
        setup, alone, declined = tiny_setup(), sim.Laps(), sim.Laps()
        one, _ = curve_on(setup, 130, 30, 5, 1, alone)
        with self.patched_chunk(lambda *args: os._exit(1)) as calls:
            two, processes = curve_on(setup, 130, 30, 5, 2, declined)
        assert calls == [range(self.N2), range(self.N2), range(self.N2, 130)]
        assert processes == 1
        assert np.array_equal(one, two)
        assert declined.counts == alone.counts

    def test_divergence_in_the_child_is_raised_as_in_one_process(self):
        diverging = tiny_setup(eta=500.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as alone:
                sim._run_chunk(diverging, 13, range(self.N2, 130), 200, sim.Laps())
            with self.patched_chunk(lambda real, s, *args: real(diverging, *args)) as calls, \
                    cpus(2), pytest.raises(DivergenceError) as err:
                mc_learning_curve(tiny_setup(), 130, 200, 13)
        assert_no_child()
        assert calls == [range(self.N2)]
        assert str(err.value) == str(alone.value)
        assert err.value.last_finite_step == alone.value.last_finite_step
        i, norm, last_e = stepped_divergence(diverging, 13, self.N2, 200)
        assert err.value.last_finite_step == i - 1
        found = re.fullmatch(
            rf"run {self.N2} produced a non-finite error at iteration (\d+) "
            r"\(\|\|alpha\|\| = (\S+), last finite error (\S+)\)", str(err.value))
        assert found is not None, str(err.value)
        assert int(found[1]) == i
        assert float(found[2]) == pytest.approx(norm, rel=1e-5)
        assert float(found[3]) == pytest.approx(last_e, rel=1e-5)

    def test_divergence_in_this_process_kills_the_child(self):
        """The lower runs' divergence is the one to report: the child, here asleep for a
        minute, is killed and reaped at once."""
        diverging = tiny_setup(eta=500.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as alone:
                sim._run_chunk(diverging, 13, range(self.N2), 200, sim.Laps())
            start = time.monotonic()
            with self.patched_chunk(lambda *args: time.sleep(60),
                                    lambda real, s, *args: real(diverging, *args)) as calls, \
                    cpus(2) as pinned, pytest.raises(DivergenceError) as err:
                mc_learning_curve(tiny_setup(), 130, 200, 13)
        assert time.monotonic() - start < 30
        assert_no_child()
        assert calls == [range(self.N2)]
        assert pinned == []
        assert str(err.value) == str(alone.value)
        assert err.value.last_finite_step == alone.value.last_finite_step


def blocks_of(n_runs, r, n_iters):
    """Kernel blocks of a chunk of ``n_runs`` runs over ``r`` centers."""
    return len(range(0, n_iters, sim.kernel_block(n_runs, r, n_iters)))


class TestPipeline:
    """A chunk that does not split and has more than one kernel block steps as a two-stage
    pipeline: a forked child forms the kernel blocks into a shared ring, this process steps
    them, with the bits of one process."""

    DICTIONARIES = {"grid25": (grid_dictionary([-1, -1], [1, 1], 5), GaussianKernel(0.7)),
                    "drawn31": (sim.Dictionary(np.random.default_rng(7).uniform(-1, 1, (31, 2))),
                                GaussianKernel(0.3))}

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(list(FilterKind)),
        system=st.sampled_from(list(SystemKind)),
        dictionary=st.sampled_from(sorted(DICTIONARIES)),
        eta=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32 - 1),
        n_runs=st.integers(1, 128),
        blocks=st.integers(2, 6),
        share=st.floats(0.0, 1.0),
    )
    def test_pipeline_gives_the_bits_of_one_process(self, kind, system, dictionary, eta, seed,
                                                     n_runs, blocks, share):
        d, k = self.DICTIONARIES[dictionary]
        setup = dataclasses.replace(tiny_setup(filter_kind=kind, system=system, eta=eta),
                                    dictionary=d, kernel=k, gram=gram(d, k))
        block = sim.kernel_block(n_runs, d.size, sim.MC_STREAM_STEPS)
        n_iters = (blocks - 1) * block + 1 + int(share * (block - 1))
        assert blocks_of(n_runs, d.size, n_iters) == blocks
        whole = sim._run_chunk(setup, seed, range(n_runs), n_iters, sim.Laps())
        piped, processes = curve_on(setup, n_runs, n_iters, seed, 2)
        assert processes == 2
        assert np.array_equal(piped, whole / n_runs)

    def test_divergence_gives_the_message_of_one_process(self):
        """The divergence that every block checks (blocks of 16 steps here) is raised with
        the message and last finite step of one process, and no child is left."""
        setup = tiny_setup(eta=500.0)
        errors = []
        for n_cpus in (1, 2):
            with mock.patch.object(sim, "MC_STREAM_STEPS", 16), cpus(n_cpus), \
                    mock.patch.object(sim, "_step_in_pipeline",
                                      wraps=sim._step_in_pipeline) as piped, \
                    np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DivergenceError) as err:
                mc_learning_curve(setup, 4, 200, 13)
            assert_no_child()
            assert piped.called == (n_cpus == 2)
            errors.append(err.value)
        assert str(errors[1]) == str(errors[0])
        assert errors[1].last_finite_step == errors[0].last_finite_step == 64

    def test_child_killed_after_its_second_block_gives_the_curve_of_one_process(self):
        setup, parent, real = tiny_setup(), os.getpid(), sim._kernel_blocks

        def killed_after_two(*args):
            for n, block in enumerate(real(*args)):
                if os.getpid() != parent and n == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield block

        one, _ = curve_on(setup, 7, 1500, 5, 1)
        with mock.patch.object(sim, "_kernel_blocks", killed_after_two):
            two, processes = curve_on(setup, 7, 1500, 5, 2)
        assert processes == 1
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("cut", [0, -1], ids=["no_answer", "answer_cut_short"])
    def test_child_ended_after_its_last_block_gives_the_curve_of_one_process(self, cut):
        """A child that ends once its last block is handed over, before its answer is whole,
        makes the chunk step whole here: every block was stepped, but the chunk counts as
        one process's, in its curve and on its clock."""
        setup, parent, alone, declined = tiny_setup(), os.getpid(), sim.Laps(), sim.Laps()

        def dump(obj, file):  # the child's answer, cut at ``cut``
            assert os.getpid() != parent
            file.write(pickle.dumps(obj)[:cut])
            os._exit(0)

        one, _ = curve_on(setup, 7, 1500, 5, 1, alone)
        with mock.patch.object(sim.pickle, "dump", dump), \
                mock.patch.object(sim, "_run_chunk", wraps=sim._run_chunk) as whole:
            two, processes = curve_on(setup, 7, 1500, 5, 2, declined)
        assert whole.call_count == 1
        assert processes == 1
        assert np.array_equal(one, two)
        assert declined.counts == alone.counts == {"stream": 3, "kernel_values": 3, "steps": 3}

    def test_child_laps_are_added(self):
        """The child's stream and kernel-value laps are added to this process's steps: the
        counts of one process, four stream blocks and eleven kernel blocks here."""
        one, two = sim.Laps(), sim.Laps()
        assert blocks_of(100, 9, 1500) == 11
        curve_on(tiny_setup(), 100, 1500, 5, 1, one)
        curve_on(tiny_setup(), 100, 1500, 5, 2, two)
        assert one.counts == two.counts == {"stream": 4, "kernel_values": 11, "steps": 11}
        assert all(t > 0 for t in two.seconds.values())

    @pytest.mark.parametrize("n_cpus, n_runs, n_iters", [
        (1, 7, 1500), (1, 150, 30), (1, 7, 300), (2, 7, 300),
    ], ids=["one_cpu-pipeline", "one_cpu-split", "one_cpu-one_block", "one_block"])
    def test_steps_whole_without_a_fork(self, n_cpus, n_runs, n_iters):
        """On one CPU no chunk forks, and a chunk of one kernel block, which has nothing to
        overlap, steps whole on two."""
        assert n_cpus == 1 or blocks_of(n_runs, 9, n_iters) == 1
        with mock.patch.object(sim.os, "fork", side_effect=AssertionError("forked")) as fork:
            _, processes = curve_on(tiny_setup(), n_runs, n_iters, 5, n_cpus)
        assert not fork.called
        assert processes == 1


ERRORS = [KaflabError("a"), NotPositiveDefiniteError("b", smallest_eigenvalue=-1e-3),
          EigenSolverError("c"), DimensionMismatchError("d"),
          DivergenceError("e", last_finite_step=41), NotStableError("f", spectral_radius=1.5),
          InvariantError("g"), ConfigError("h"), ArtifactError("i")]


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
def test_errors_survive_pickling_whole(error):
    """Each error class comes back from ``pickle`` with its message and its attributes, as
    a divergence in the forked half of a split chunk is sent to this process."""
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert (back.args, vars(back)) == (error.args, vars(error))


def test_every_error_class_is_pickled():
    import kaflab.errors

    classes = {c for c in vars(kaflab.errors).values()
               if isinstance(c, type) and issubclass(c, KaflabError)}
    assert classes == {type(error) for error in ERRORS}


class TestLearningCurveCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        curve = LearningCurve(mse=rng.uniform(0, 1, 50))
        path = tmp_path / "curve.csv"
        save_learning_curve(curve, path)
        loaded = load_learning_curve(path)
        assert np.array_equal(loaded.mse, curve.mse)
        assert path.read_text().splitlines()[0] == "n,mse"

    def test_rejects_non_finite(self):
        with pytest.raises(DivergenceError):
            LearningCurve(mse=np.array([1.0, np.nan]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LearningCurve(mse=np.array([1.0, -0.1]))


class TestLaps:
    """The one clock of the commands, the engine and the estimator."""

    def test_laps_add_up_per_stage_and_are_counted(self):
        """Each lap adds the seconds since the last one to its stage and counts it;
        a stage named when the clock is made stays at 0.0 until it is lapped."""
        readings = iter([10.0, 10.5, 11.0, 12.25, 12.5])
        with mock.patch.object(sim.time, "perf_counter", lambda: next(readings)):
            laps = sim.Laps("idle", "a")
            for stage in ("a", "b", "a", "b"):
                laps.lap(stage)
        assert laps.seconds == {"idle": 0.0, "a": 0.5 + 1.25, "b": 0.5 + 0.25}
        assert laps.counts == {"idle": 0, "a": 2, "b": 2}

    def test_merge_adds_the_other_clock_and_restarts_this_one(self):
        """Another process's laps add stage by stage, and the time since this clock's last
        lap, spent waiting for them, goes to no stage."""
        other = sim.Laps()
        other.seconds, other.counts = {"a": 2.0, "b": 3.0}, {"a": 1, "b": 2}
        readings = iter([0.0, 1.0, 5.0, 5.5])
        with mock.patch.object(sim.time, "perf_counter", lambda: next(readings)):
            laps = sim.Laps("idle")
            laps.lap("a")
            laps.merge(other)
            laps.lap("b")
        assert laps.seconds == {"idle": 0.0, "a": 1.0 + 2.0, "b": 3.0 + 0.5}
        assert laps.counts == {"idle": 0, "a": 2, "b": 3}

    def test_rounded_gives_six_digits(self):
        readings = iter([0.0, 0.1234564999, 1.0])
        with mock.patch.object(sim.time, "perf_counter", lambda: next(readings)):
            laps = sim.Laps("idle")
            laps.lap("a")
            laps.lap("b")
        assert laps.rounded() == {"idle": 0.0, "a": 0.123456, "b": 0.876544}


class TestWriteAtomic:
    """A write that fails leaves the previous file as it was and no temporary file."""

    def test_failing_chunks_keep_the_previous_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("n,mse\n0,1\n")

        def chunks():
            yield "n,mse\n"
            raise RuntimeError("stream broke")

        with pytest.raises(RuntimeError, match="stream broke"):
            write_atomic(path, chunks())
        assert path.read_text() == "n,mse\n0,1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_failing_rename_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.mkdir()  # os.replace cannot put a file in a directory's place
        (path / "kept.csv").write_text("n,mse\n0,1\n")
        with pytest.raises(IsADirectoryError):
            write_atomic(path, ["n,mse\n"])
        assert [p.name for p in path.iterdir()] == ["kept.csv"]
        assert (path / "kept.csv").read_text() == "n,mse\n0,1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_file_has_the_mode_of_a_plain_open(self, tmp_path):
        (tmp_path / "plain.csv").write_text("n,mse\n")
        write_atomic(tmp_path / "atomic.csv", iter(["n,", "mse\n"]))
        assert (tmp_path / "atomic.csv").read_bytes() == b"n,mse\n"
        assert (tmp_path / "atomic.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode


class TestWriteTable:
    """One ``%`` operation formats a block of rows to the bytes of the rows' own f-strings."""

    EXTREMES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
                1 / 3, -2.5e-10, 123456789.0]

    def test_rows_have_the_bytes_of_f_strings(self, tmp_path):
        """Extreme doubles, and ints of alternating sign up to 10^32, past 2^63."""
        values = np.array(self.EXTREMES)
        counts = [(-1) ** k * 10 ** (4 * k) for k in range(values.size)]
        sim.write_table(tmp_path / "t.csv", "n,a,b", "%d,%.17g,%d", range(values.size), values,
                        counts)
        assert (tmp_path / "t.csv").read_text() == "n,a,b\n" + "".join(
            f"{n},{a:.17g},{b}\n" for n, a, b in zip(range(values.size), values, counts))

    def test_empty_curve_writes_the_header_only(self, tmp_path):
        """As ``analyze`` writes theory.csv when the transient diverges."""
        save_learning_curve(LearningCurve(mse=np.empty(0)), tmp_path / "theory.csv")
        assert (tmp_path / "theory.csv").read_bytes() == b"n,mse\n"

    def test_long_table_is_written_in_blocks(self, tmp_path):
        """A budget of two rows a block formats 10 rows in 5 blocks, each a chunk of its
        own, to the bytes of the rows formatted one at a time."""
        values = np.random.default_rng(3).uniform(0, 1, 10) * 10.0 ** np.arange(-5, 5)
        chunks = []

        def collect(path, parts):
            chunks.extend(parts)
            write_atomic(path, chunks)

        with mock.patch.object(linalg, "WORK_BYTES", 2 * 80 * 2), \
                mock.patch.object(sim, "write_atomic", collect):
            save_learning_curve(LearningCurve(mse=values), tmp_path / "curve.csv")
        assert len(chunks) == 1 + 5
        assert (tmp_path / "curve.csv").read_text() == "n,mse\n" + "".join(
            f"{n},{v:.17g}\n" for n, v in enumerate(values))


@pytest.fixture(scope="module")
def lfilter():
    """scipy's filter, the oracle of the recurrences; the package itself needs no scipy."""
    return pytest.importorskip("scipy.signal").lfilter


FLUID_POLES = [1.0, *sim.FLUID_FLOW_POLES]


class TestRecurrencesMatchLfilter:
    """The pure-Python recurrences equal ``lfilter`` to the last bit."""

    @pytest.mark.parametrize("n", [10_000, 1_000_000])
    def test_ar1_stream(self, lfilter, n):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        u = ar1_stream(gen, n, np.random.default_rng(81))
        rng = np.random.default_rng(81)  # the same draws, in the same order
        u0 = rng.normal(0.0, gen.sigma_u)
        scaled = gen.sigma_u * np.sqrt(1.0 - gen.rho**2) * rng.standard_normal(n - 1)
        rest, _ = lfilter([1.0], [1.0, -gen.rho], scaled, zi=np.array([gen.rho * u0]))
        assert np.array_equal(u, np.concatenate([[u0], rest]))

    @pytest.mark.parametrize("n", [10_000, 1_000_000])
    def test_fluid_flow_plant(self, lfilter, n):
        v = np.random.default_rng(82).standard_normal(n)
        x, _ = lfilter([1.0], FLUID_POLES, v, zi=np.zeros(2))
        assert np.array_equal(sim.all_pole(v, *FLUID_POLES[1:]), x)

    def test_fluid_flow_respond(self, lfilter):
        rng = np.random.default_rng(83)
        u, noise = rng.standard_normal(10_001), rng.normal(0.0, 0.05, 10_000)
        x, _ = lfilter([1.0], FLUID_POLES, 0.1044 * u[1:] + 0.0883 * u[:-1], zi=np.zeros(2))
        expected = 0.3163 * x / np.sqrt(0.1 + 0.9 * x**2) + noise
        d = SystemSimulator(kind=SystemKind.FLUID_FLOW).respond(u, noise)
        assert np.array_equal(d, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(1, 199), max_size=6),
        poles=st.sampled_from([[1.0, -0.5], FLUID_POLES]),
        columns=st.sampled_from([(), (1,), (3,)]),
    )
    def test_state_carried_across_splits(self, lfilter, seed, cuts, poles, columns):
        x = np.random.default_rng(seed).standard_normal((200, *columns))
        state, pieces = np.zeros((2, *columns)), []
        for piece in np.split(x, sorted(set(cuts))):
            y, state = sim.all_pole(piece, *poles[1:], state=state)
            pieces.append(y)
        whole = sim.all_pole(x, *poles[1:])
        assert np.array_equal(np.concatenate(pieces), whole)
        assert np.array_equal(state, whole[:-3:-1])
        expected, _ = lfilter([1.0], poles, x, axis=0, zi=np.zeros((len(poles) - 1, *columns)))
        assert np.array_equal(whole, expected)

    @pytest.mark.parametrize("poles", [[1.0, -0.5], FLUID_POLES])
    def test_time_major_chunk(self, lfilter, poles):
        x = np.random.default_rng(84).standard_normal((10_000, 7))
        y, _ = lfilter([1.0], poles, x, axis=0, zi=np.zeros((len(poles) - 1, 7)))
        assert np.array_equal(sim.all_pole(x, *poles[1:]), y)
        # a single column goes through the scalar path, with the same bytes
        assert np.array_equal(sim.all_pole(x[:, 3:4], *poles[1:]), y[:, 3:4])


class TestChunkedExperimentStream:
    """Streams drawn together, time-major, equal each seed's stream drawn alone."""

    @pytest.mark.parametrize("system", [
        SystemSimulator(kind=SystemKind.POLYNOMIAL, noise_sigma=0.05),
        SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.05),
        SystemSimulator(kind=SystemKind.FLUID_FLOW, noise_sigma=0.0),
        SystemSimulator(kind=SystemKind.NULL, noise_sigma=0.05),
    ], ids=["polynomial", "fluid_flow", "fluid_flow_noiseless", "null"])
    @pytest.mark.parametrize("runs", [(0, 1, 5, 2), (3,)], ids=["four_runs", "one_run"])
    def test_columns_equal_single_streams(self, system, runs):
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        seeds = [(17, MC_RUN_SALT, run) for run in runs]
        u, d = next(stream_blocks(gen, system, 300, seeds))
        assert u.shape == (300, len(runs), 2) and d.shape == (300, len(runs))
        for j, seed in enumerate(seeds):
            u_j, d_j = experiment_stream(gen, system, 300, seed=seed)
            assert np.array_equal(u[:, j], u_j)
            assert np.array_equal(d[:, j], d_j)


class TestStreamBlocks:
    """Streams drawn a block at a time equal the streams drawn whole."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 50),
        block_share=st.floats(0.0, 1.0),
        warmup=st.sampled_from([0, 7, 200]),  # a leading piece shorter and longer than a block
        kind=st.sampled_from([SystemKind.POLYNOMIAL, SystemKind.FLUID_FLOW]),
        noise_sigma=st.sampled_from([0.0, 0.05]),
        n_seeds=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_concatenate_to_the_whole_stream(self, n, block_share, warmup, kind,
                                                   noise_sigma, n_seeds, seed):
        block = 1 + round(block_share * (n - 1))  # 1..n
        gen = InputGenerator(rho=0.5, sigma_u=0.5)
        system = SystemSimulator(kind=kind, noise_sigma=noise_sigma)
        seeds = [(seed, MC_RUN_SALT, j) for j in range(n_seeds)]
        u_ref, d_ref = whole_stream(gen, system, n, seeds, warmup)
        blocks = list(stream_blocks(gen, system, n, seeds, warmup, block))
        assert [len(d) for _, d in blocks] == [min(block, n - t) for t in range(0, n, block)]
        assert np.array_equal(np.concatenate([u for u, _ in blocks]), u_ref)
        assert np.array_equal(np.concatenate([d for _, d in blocks]), d_ref)
        u, d = next(stream_blocks(gen, system, n, seeds, warmup))
        assert np.array_equal(u, u_ref) and np.array_equal(d, d_ref)
        u, d = experiment_stream(gen, system, n, seeds[0], warmup)
        assert np.array_equal(u, u_ref[:, 0]) and np.array_equal(d, d_ref[:, 0])

    def test_rejects_empty_stream(self):
        system = SystemSimulator(kind=SystemKind.POLYNOMIAL)
        with pytest.raises(ValueError):
            next(stream_blocks(InputGenerator(rho=0.5, sigma_u=0.5), system, 0, [(1, 2, 3)]))
