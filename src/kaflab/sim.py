"""Signal generation and the Monte-Carlo learning-curve harness.

Streams are fully determined by ``(master seed, configuration)``: every run,
estimation shard and calibration stream derives its generator from a
``SeedSequence`` keyed on the master seed, a purpose salt and an index, and
aggregation sums per-run curves in fixed run order. Runs are embarrassingly
parallel; ``KAFLAB_THREADS`` (or the ``workers`` argument) fans them out over
processes without changing the result.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import lfilter

from .errors import DimensionMismatchError, DivergenceError
from .filters import FilterState, knlms_step, natural_klms_step, selective_step
from .kernel import Dictionary, GaussianKernel, GramFactor

# Purpose salts folded into SeedSequence entropy so that concurrent uses of
# one master seed (runs, estimation shards, calibration) never share streams.
MC_RUN_SALT = 1
CROSS_STATS_SALT = 2
CALIBRATION_SALT = 3
MOMENTS_CHECK_SALT = 4

# Samples prepended to each run so a recursive plant forgets its zero initial
# state before measurement starts (poles of the fluid-flow plant have modulus
# ~0.78, so 200 samples leave no measurable transient).
FLUID_FLOW_WARMUP = 200


class SystemKind(Enum):
    POLYNOMIAL = "polynomial"
    FLUID_FLOW = "fluid_flow"
    NULL = "null"


class FilterKind(Enum):
    NATURAL_KLMS = "natural_klms"
    SELECTIVE = "selective"
    KNLMS = "knlms"


class CurveKind(Enum):
    SIMULATED = "simulated"
    THEORETICAL = "theoretical"


@dataclass(frozen=True)
class InputGenerator:
    """First-order autoregressive scalar input with stationary variance sigma_u^2."""

    rho: float
    sigma_u: float
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.sigma_u > 0:
            raise ValueError(f"sigma_u must be positive, got {self.sigma_u}")


def ar1_stream(g: InputGenerator, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """``u_n = rho u_{n-1} + sigma_u sqrt(1 - rho^2) w_n`` with a stationary start.

    ``u_0`` is drawn from N(0, sigma_u^2) so the whole stream is stationary.
    """
    if n < 1:
        raise ValueError(f"stream length must be >= 1, got {n}")
    if rng is None:
        rng = np.random.default_rng(g.seed)
    u0 = rng.normal(0.0, g.sigma_u)
    if n == 1:
        return np.array([u0])
    w = rng.standard_normal(n - 1)
    scale = g.sigma_u * np.sqrt(1.0 - g.rho**2)
    rest, _ = lfilter([1.0], [1.0, -g.rho], scale * w, zi=np.array([g.rho * u0]))
    return np.concatenate([[u0], rest])


def embed_input(u: np.ndarray) -> np.ndarray:
    """Two-tap embedding: row n is ``[u_n, u_{n-1}]`` for n = 1..len(u)-1."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size < 2:
        raise DimensionMismatchError("embedding needs a stream of length >= 2")
    return np.stack([u[1:], u[:-1]], axis=1)


def stationary_covariance(rho: float, sigma_u: float, L: int = 2) -> np.ndarray:
    """Stationary covariance of the embedded input: entry (a, b) is sigma_u^2 rho^|a-b|."""
    if not abs(rho) < 1:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    lags = np.abs(np.arange(L)[:, None] - np.arange(L)[None, :])
    return sigma_u**2 * rho**lags


@dataclass
class SystemSimulator:
    """Plant producing the desired signal ``d_n`` from the scalar input stream.

    ``POLYNOMIAL``: memoryless cubic distortion of a two-tap FIR output.
    ``FLUID_FLOW``: saturated output of a second-order IIR plant; carries the
    plant state ``(x_{n-1}, x_{n-2})``, zero-initialized.
    ``NULL``: pure noise.
    """

    kind: SystemKind
    noise_sigma: float = 0.0
    x_prev: float = 0.0
    x_prev2: float = 0.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    def reset(self) -> None:
        self.x_prev = 0.0
        self.x_prev2 = 0.0

    @property
    def warmup_samples(self) -> int:
        """Measurement delay needed for the plant output to be stationary."""
        return FLUID_FLOW_WARMUP if self.kind is SystemKind.FLUID_FLOW else 0

    def step(self, u_n: float, u_prev: float, noise: float = 0.0) -> float:
        """Advance the plant by one sample and return ``d_n``."""
        if self.kind is SystemKind.POLYNOMIAL:
            x = 0.5 * u_n - 0.3 * u_prev
            return x - 0.5 * x**2 + 0.1 * x**3 + noise
        if self.kind is SystemKind.FLUID_FLOW:
            x = 0.1044 * u_n + 0.0883 * u_prev + 1.4138 * self.x_prev - 0.6065 * self.x_prev2
            self.x_prev2 = self.x_prev
            self.x_prev = x
            return 0.3163 * x / np.sqrt(0.1 + 0.9 * x**2) + noise
        return float(noise)

    def respond(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Vectorized run over a scalar stream, from a rested plant.

        ``u`` has length m+1 (one priming sample); returns ``d`` of length m
        for the pairs ``(u_n, u_{n-1})``, n = 1..m. Leaves the plant state at
        the end-of-stream values.
        """
        u = np.asarray(u, dtype=float).ravel()
        noise = np.asarray(noise, dtype=float).ravel()
        if u.size < 2 or noise.size != u.size - 1:
            raise DimensionMismatchError(
                f"need len(noise) == len(u) - 1 >= 1, got {noise.size} and {u.size}"
            )
        self.reset()
        if self.kind is SystemKind.POLYNOMIAL:
            x = 0.5 * u[1:] - 0.3 * u[:-1]
            return x - 0.5 * x**2 + 0.1 * x**3 + noise
        if self.kind is SystemKind.FLUID_FLOW:
            v = 0.1044 * u[1:] + 0.0883 * u[:-1]
            x, _ = lfilter([1.0], [1.0, -1.4138, 0.6065], v, zi=np.zeros(2))
            if x.size >= 2:
                self.x_prev, self.x_prev2 = x[-1], x[-2]
            elif x.size == 1:
                self.x_prev = x[-1]
            return 0.3163 * x / np.sqrt(0.1 + 0.9 * x**2) + noise
        return noise.copy()


@dataclass(frozen=True)
class LearningCurve:
    """MSE-versus-iteration series, simulated (MC-averaged) or theoretical."""

    mse: np.ndarray
    n_runs: int
    kind: CurveKind

    def __post_init__(self):
        mse = np.asarray(self.mse, dtype=float).ravel()
        if not np.isfinite(mse).all():
            raise DivergenceError("learning curve contains non-finite entries")
        if (mse < 0).any():
            raise ValueError("learning curve contains negative MSE entries")
        object.__setattr__(self, "mse", mse)

    def __len__(self) -> int:
        return self.mse.size


def save_learning_curve(curve: LearningCurve, path) -> None:
    """CSV with header ``n,mse``, one row per iteration, full double precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("n,mse\n")
        for n, v in enumerate(curve.mse):
            f.write(f"{n},{v:.17g}\n")


def load_learning_curve(path, kind: CurveKind = CurveKind.SIMULATED, n_runs: int = 0) -> LearningCurve:
    """Read an ``n,mse`` CSV; ``ValueError`` naming the file if it holds no curve."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file is reported below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path} is not an 'n,mse' CSV: {exc}") from exc
    if data.shape[0] < 1 or data.shape[1] < 2:
        raise ValueError(
            f"{path} holds no learning curve: expected a header and rows of 'n,mse', "
            f"read {data.shape[0]} rows of {data.shape[1]} columns"
        )
    return LearningCurve(mse=data[:, 1], n_runs=n_runs, kind=kind)


# ---------------------------------------------------------------------------
# Stream assembly and the Monte-Carlo harness
# ---------------------------------------------------------------------------


def experiment_stream(
    input_gen: InputGenerator,
    system: SystemSimulator,
    n: int,
    seed,
    warmup: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (input vectors, desired signal) stream of length ``n``.

    ``seed`` may be an int or a tuple of ints (SeedSequence entropy). The
    stream carries ``warmup`` extra leading samples (default: the plant's own
    requirement) that are run through the plant and then discarded, so the
    returned pairs are stationary.
    """
    if warmup is None:
        warmup = system.warmup_samples
    ss = np.random.SeedSequence(entropy=seed)
    rng_input, rng_noise = (np.random.default_rng(s) for s in ss.spawn(2))
    total = n + warmup
    u = ar1_stream(input_gen, total + 1, rng_input)
    noise = (
        rng_noise.normal(0.0, system.noise_sigma, total)
        if system.noise_sigma > 0
        else np.zeros(total)
    )
    d = system.respond(u, noise)
    return embed_input(u)[warmup:], d[warmup:]


@dataclass(frozen=True)
class ExperimentSetup:
    """Frozen bundle of everything one Monte-Carlo run needs.

    The dictionary and Gram factorization are built once, up front, and shared
    read-only by all runs.
    """

    kernel: GaussianKernel
    dictionary: Dictionary
    gram: GramFactor
    input_gen: InputGenerator
    system_kind: SystemKind
    noise_sigma: float
    filter_kind: FilterKind
    eta: float
    s_n: int = 1
    eps_reg: float = 1e-2


def _run_single(setup: ExperimentSetup, seed: int, run_idx: int, n_iters: int) -> np.ndarray:
    """Squared a-priori error sequence of one independently seeded run."""
    system = SystemSimulator(kind=setup.system_kind, noise_sigma=setup.noise_sigma)
    u_vecs, d = experiment_stream(
        setup.input_gen, system, n_iters, seed=(seed, MC_RUN_SALT, run_idx)
    )
    state = FilterState.zeros(setup.dictionary)
    e2 = np.empty(n_iters)
    for i in range(n_iters):
        if setup.filter_kind is FilterKind.NATURAL_KLMS:
            rec, state = natural_klms_step(
                state, setup.gram, setup.kernel, u_vecs[i], d[i], setup.eta
            )
        elif setup.filter_kind is FilterKind.SELECTIVE:
            rec, state = selective_step(
                state, setup.gram, setup.kernel, u_vecs[i], d[i], setup.eta, setup.s_n
            )
        else:
            rec, state = knlms_step(
                state, setup.kernel, u_vecs[i], d[i], setup.eta, setup.eps_reg
            )
        e2[i] = rec.prior_error * rec.prior_error
        if not np.isfinite(e2[i]):
            raise DivergenceError(
                f"run {run_idx} produced a non-finite error at iteration {i}",
                last_finite_step=i - 1,
            )
    return e2


def _worker_count(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get("KAFLAB_THREADS", "1"))
    return max(1, workers)


def mc_learning_curve(
    setup: ExperimentSetup,
    n_runs: int,
    n_iters: int,
    seed: int,
    workers: int | None = None,
) -> LearningCurve:
    """Pointwise average of squared a-priori errors over independent runs.

    Each run derives its generators from ``(seed, run index)``; curves are
    summed in run-index order, so the result is bit-identical for a given
    ``(seed, setup, n_runs, n_iters)`` regardless of worker count.
    """
    if n_runs < 1 or n_iters < 1:
        raise ValueError("n_runs and n_iters must be >= 1")
    workers = _worker_count(workers)
    if workers == 1:
        curves = [_run_single(setup, seed, i, n_iters) for i in range(n_runs)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            curves = list(
                pool.map(
                    _run_single,
                    [setup] * n_runs,
                    [seed] * n_runs,
                    range(n_runs),
                    [n_iters] * n_runs,
                    chunksize=max(1, n_runs // (4 * workers)),
                )
            )
    total = np.zeros(n_iters)
    for c in curves:
        total += c
    return LearningCurve(mse=total / n_runs, n_runs=n_runs, kind=CurveKind.SIMULATED)
