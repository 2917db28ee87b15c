"""Signal generation and the Monte-Carlo learning-curve engine.

Streams are fully determined by ``(master seed, configuration)``: every run,
the cross-statistics stream and the calibration stream take their generators
from a ``SeedSequence`` keyed on the master seed, a purpose salt and an index. The
AR(1) input and the recursive plant are one all-pole recurrence in plain
Python, bit-identical to scipy's ``lfilter``, so numpy is the only dependency.
:func:`stream_blocks` draws the streams of many seeds a block of time steps
at a time, carrying every generator and recurrence state across blocks, so
neither the Monte-Carlo engine nor the cross-statistics estimator holds a
whole stream. The engine steps a chunk of independent runs in lockstep over
those blocks, one row per run, through :func:`kaflab.filters.update`, and
adds the chunks' summed squared errors in run order. Chunk and block sizes
follow from one byte budget and the dictionary size, so the curve is fixed by
configuration and seed.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .filters import FilterKind, update
from .kernel import Dictionary, GaussianKernel, GramFactor, kernelized_input

# Unused here, like ``_run_single`` below: perfbench/tracing.py wraps them by name.
from .filters import knlms_step, natural_klms_step, selective_step  # noqa: F401

# Purpose salts folded into SeedSequence entropy so that concurrent uses of
# one master seed (runs, cross statistics, calibration) never share streams.
MC_RUN_SALT = 1
CROSS_STATS_SALT = 2
CALIBRATION_SALT = 3
MOMENTS_CHECK_SALT = 4

# Working memory of the Monte-Carlo engine, none of which grows with the
# number of iterations. A chunk of runs draws its streams MC_STREAM_STEPS steps
# at a time, enough that each run's two generator calls per block cost little
# next to its steps. The kernel values of all the chunk's runs are formed for a
# block of those steps at a time, in one reused buffer of at most
# MC_WORK_BYTES (steps x runs x r doubles): with the evaluation's temporary of
# the same size, that stays within a core's cache, and a larger block was
# slower. A chunk holds as many runs as leave a block MC_BLOCK_STEPS steps
# (655 runs at r = 25, 528 at r = 31), so one pass of the per-step Python
# overhead of the stream recurrences and of the filter loop serves every run
# of the shipped configs. It also bounds kaflab.moments' cross-statistics blocks.
MC_WORK_BYTES = 2**20
MC_BLOCK_STEPS = 8
MC_STREAM_STEPS = 256

# Samples prepended to each run so a recursive plant forgets its zero initial
# state before measurement starts (poles of the fluid-flow plant have modulus
# ~0.78, so 200 samples leave no measurable transient).
FLUID_FLOW_WARMUP = 200

# The polynomial plant: x = a0 u_n + a1 u_{n-1}, d = c1 x + c2 x^2 + c3 x^3 + noise.
POLYNOMIAL_TAPS = (0.5, -0.3)
POLYNOMIAL_COEFFS = (1.0, -0.5, 0.1)


class SystemKind(Enum):
    POLYNOMIAL = "polynomial"
    FLUID_FLOW = "fluid_flow"
    NULL = "null"


@dataclass(frozen=True)
class InputGenerator:
    """First-order autoregressive scalar input with stationary variance sigma_u^2."""

    rho: float
    sigma_u: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.sigma_u > 0:
            raise ValueError(f"sigma_u must be positive, got {self.sigma_u}")


def all_pole(x: np.ndarray, a1: float, a2: float = 0.0, state: np.ndarray | None = None):
    """``y_n = x_n - a1 y_{n-1} - a2 y_{n-2}`` along axis 0.

    The filter ``1 / (1 + a1 z^-1 + a2 z^-2)``. ``x`` is one stream of shape
    (T,), stepped over Python floats, or a time-major chunk (T, m) of
    independent streams, stepped one row of m columns at a time.

    Without ``state`` the filter starts at rest and ``y`` is returned. Given
    ``state``, the two outputs ``(y_{-1}, y_{-2})`` before the first, an array
    (2, ...) of one row's shape, it continues from them and returns ``y`` with
    the state after its last output, so a stream filtered block by block, the
    state carried across, equals the stream filtered whole.

    Each output is ``((-(a2 y_{n-2}) + 0.0) - a1 y_{n-1}) + x_n``, rounded after
    every operation. That is the order in which the direct-form-II-transposed
    ``lfilter([1], [1, a1, a2], x)`` computes it, and keeping it is what makes
    the result equal to that filter's bit for bit, in either layout: a
    reassociated or fused form would round differently.
    """
    x = np.asarray(x, dtype=float)
    start = np.zeros((2, *x.shape[1:])) if state is None else np.asarray(state, dtype=float)

    def outputs(rows, y1, y2):
        for xn in rows:
            y1, y2 = ((-(a2 * y2) + 0.0) - a1 * y1) + xn, y1
            yield y1

    if x.size == x.shape[0]:  # one stream, also in a (T, 1) chunk
        y = np.fromiter(outputs(x.ravel().tolist(), *start.ravel().tolist()), float, x.size)
        y = y.reshape(x.shape)
    else:
        y = np.fromiter(outputs(x, *start), np.dtype((float, x.shape[1:])), x.shape[0])
    if state is None:
        return y
    return y, np.concatenate([y[:-3:-1], start])[:2]


def ar1_stream(g: InputGenerator, n: int, rng: np.random.Generator) -> np.ndarray:
    """``u_n = rho u_{n-1} + sigma_u sqrt(1 - rho^2) w_n`` with a stationary start.

    ``u_0`` is drawn from N(0, sigma_u^2) so the whole stream is stationary;
    the stream is :func:`all_pole` with ``a1 = -rho`` over ``u_0`` and the
    innovations.
    """
    if n < 1:
        raise ValueError(f"stream length must be >= 1, got {n}")
    drives = np.empty(n)
    drives[0] = rng.normal(0.0, g.sigma_u)
    drives[1:] = g.sigma_u * np.sqrt(1.0 - g.rho**2) * rng.standard_normal(n - 1)
    return all_pole(drives, -g.rho)


def embed_input(u: np.ndarray) -> np.ndarray:
    """Two-tap embedding: row n is ``[u_n, u_{n-1}]`` for n = 1..len(u)-1.

    A time-major chunk ``u`` of shape (T, m) embeds to (T - 1, m, 2).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] < 2:
        raise DimensionMismatchError("embedding needs a stream of length >= 2")
    return np.stack([u[1:], u[:-1]], axis=-1)


def stationary_covariance(rho: float, sigma_u: float, L: int = 2) -> np.ndarray:
    """Stationary covariance of the embedded input: entry (a, b) is sigma_u^2 rho^|a-b|."""
    if not abs(rho) < 1:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    lags = np.abs(np.arange(L)[:, None] - np.arange(L)[None, :])
    return sigma_u**2 * rho**lags


@dataclass(frozen=True)
class SystemSimulator:
    """Plant producing the desired signal ``d_n`` from the scalar input stream.

    ``POLYNOMIAL``: memoryless cubic distortion of a two-tap FIR output.
    ``FLUID_FLOW``: saturated output of a second-order IIR plant, whose state
    ``(x_{n-1}, x_{n-2})`` :meth:`respond` takes and returns.
    ``NULL``: pure noise.
    """

    kind: SystemKind
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    @property
    def warmup_samples(self) -> int:
        """Measurement delay needed for the plant output to be stationary."""
        return FLUID_FLOW_WARMUP if self.kind is SystemKind.FLUID_FLOW else 0

    def respond(self, u: np.ndarray, noise: np.ndarray, state: np.ndarray | None = None):
        """The plant's output over a scalar stream.

        ``u`` has length m+1 (one priming sample); returns ``d`` of length m
        for the pairs ``(u_n, u_{n-1})``, n = 1..m. A time-major chunk of
        streams, ``u`` of shape (m+1, runs) and ``noise`` of (m, runs), gives
        one column of ``d`` per stream. The simulator holds no state, so one
        serves any number of independent streams.

        The fluid-flow plant starts at rest, or, given ``state``, from its
        :func:`all_pole` state; ``d`` is then returned with the state after the
        last pair (for the memoryless plants, ``state`` itself). The cube is
        ``x * (x * x)``, the same bits on every CPU and faster than ``x**3``.
        """
        u = np.asarray(u, dtype=float)
        noise = np.asarray(noise, dtype=float)
        if u.ndim not in (1, 2) or u.shape[0] < 2 or noise.shape != (len(u) - 1, *u.shape[1:]):
            raise DimensionMismatchError(
                f"need len(noise) == len(u) - 1 >= 1, got shapes {noise.shape} and {u.shape}"
            )
        after = state
        if self.kind is SystemKind.POLYNOMIAL:
            (a0, a1), (c1, c2, c3) = POLYNOMIAL_TAPS, POLYNOMIAL_COEFFS
            x = a0 * u[1:] + a1 * u[:-1]
            d = c1 * x + c2 * x**2 + c3 * (x * (x * x)) + noise
        elif self.kind is SystemKind.FLUID_FLOW:
            x, after = all_pole(0.1044 * u[1:] + 0.0883 * u[:-1], -1.4138, 0.6065,
                                np.zeros((2, *u.shape[1:])) if state is None else state)
            d = 0.3163 * x / np.sqrt(0.1 + 0.9 * x**2) + noise
        else:
            d = noise.copy()
        return d if state is None else (d, after)


@dataclass(frozen=True)
class LearningCurve:
    """MSE-versus-iteration series, simulated (MC-averaged) or theoretical."""

    mse: np.ndarray

    def __post_init__(self):
        mse = np.asarray(self.mse, dtype=float).ravel()
        if not np.isfinite(mse).all():
            raise DivergenceError("learning curve contains non-finite entries")
        if (mse < 0).any():
            raise ValueError("learning curve contains negative MSE entries")
        object.__setattr__(self, "mse", mse)

    def __len__(self) -> int:
        return self.mse.size


def write_atomic(path, chunks) -> None:
    """Write the strings ``chunks`` (UTF-8, ``\\n`` line ends) to ``<path>.<pid>.tmp``, then
    rename it onto ``path``: a reader finds the old file or the whole new one. On an error
    the temporary file is removed and ``path`` keeps its bytes; only a kill can leave the
    temporary. ``chunks`` may be a generator, so a long file is never held whole.
    """
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_learning_curve(curve: LearningCurve, path) -> None:
    """CSV with header ``n,mse``, one row per iteration, full double precision."""
    rows = (f"{n},{v:.17g}\n" for n, v in enumerate(curve.mse))
    write_atomic(path, itertools.chain(["n,mse\n"], rows))


def load_learning_curve(path) -> LearningCurve:
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
    return LearningCurve(mse=data[:, 1])


# ---------------------------------------------------------------------------
# Stream assembly and the Monte-Carlo harness
# ---------------------------------------------------------------------------


def experiment_stream(input_gen: InputGenerator, system: SystemSimulator, n: int, seed,
                      warmup: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (input vectors (n, 2), desired signal (n,)) stream of one seed.

    ``seed`` is an int or a tuple of ints (SeedSequence entropy). The stream
    carries ``warmup`` extra leading samples (default: the plant's own
    requirement) that are run through the plant and then discarded, so the
    returned pairs are stationary. The one block of :func:`stream_blocks`.
    """
    u, d = next(stream_blocks(input_gen, system, n, [seed], warmup))
    return u[:, 0], d[:, 0]


def stream_blocks(
    input_gen: InputGenerator,
    system: SystemSimulator,
    n: int,
    seeds,
    warmup: int | None = None,
    block: int | None = None,
):
    """The streams of ``seeds`` as time-major blocks ``(u (b, m, 2), d (b, m))``.

    Blocks of ``block`` steps (default: all ``n``; the last may be shorter);
    column j of their concatenation is ``experiment_stream`` of ``seeds[j]``.
    Each seed's two generators draw its drives and noise one block at a time,
    which gives the same numbers as one draw; the AR(1) input and the
    fluid-flow plant carry their :func:`all_pole` states across blocks; and the
    ``warmup`` leading samples are drawn with the first block and dropped from
    it.
    """
    if n < 1:
        raise ValueError(f"stream length must be >= 1, got {n}")
    if warmup is None:
        warmup = system.warmup_samples
    block = n if block is None else block
    rngs = [[np.random.default_rng(s) for s in np.random.SeedSequence(entropy=e).spawn(2)]
            for e in seeds]
    scale = input_gen.sigma_u * np.sqrt(1.0 - input_gen.rho**2)
    u_state = plant_state = np.zeros((2, len(rngs)))
    u_last = np.empty((0, len(rngs)))  # the sample before a block's first
    for t0 in range(0, n, block):
        first, skip = (1, warmup) if t0 == 0 else (0, 0)  # u_0 comes with the first block
        steps = skip + min(block, n - t0)
        drives, noise = np.empty((len(rngs), first + steps)), np.zeros((len(rngs), steps))
        for j, (rng_input, rng_noise) in enumerate(rngs):
            if first:
                drives[j, 0] = rng_input.normal(0.0, input_gen.sigma_u)
            rng_input.standard_normal(out=drives[j, first:])
            if system.noise_sigma > 0:
                noise[j] = rng_noise.normal(0.0, system.noise_sigma, steps)
        np.multiply(scale, drives[:, first:], out=drives[:, first:])
        u, u_state = all_pole(drives.T, -input_gen.rho, state=u_state)
        u = np.concatenate([u_last, u])
        u_last = u[-1:]
        d, plant_state = system.respond(u, noise.T, plant_state)
        yield embed_input(u)[skip:], d[skip:]


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
    system: SystemSimulator
    filter_kind: FilterKind
    eta: float
    s_n: int = 1
    eps_reg: float = 1e-2


def _run_chunk(setup: ExperimentSetup, seed: int, runs: range, n_iters: int) -> np.ndarray:
    """Squared a-priori errors summed over ``runs``, all stepped in lockstep.

    A diverging run is stepped on with non-finite values, so that the
    :class:`DivergenceError` names the lowest-index run that diverges, as when
    runs were stepped one by one: its first iteration with a non-finite
    squared error, its ``||alpha||`` there and its last finite error.
    """
    m, r = len(runs), setup.dictionary.size
    alpha, e, total = np.zeros((m, r)), np.full(m, np.nan), np.empty(n_iters)
    diverged = {}  # row -> (iteration, ||alpha||, last finite error)
    block = max(1, MC_WORK_BYTES // (8 * m * r))
    streams = stream_blocks(setup.input_gen, setup.system, n_iters,
                            [(seed, MC_RUN_SALT, run) for run in runs], block=MC_STREAM_STEPS)
    blocks = ((t0 + k0, u[k0:k0 + block], d[k0:k0 + block])
              for t0, (u, d) in zip(range(0, n_iters, MC_STREAM_STEPS), streams)
              for k0 in range(0, len(d), block))
    kap_buf = np.empty((block, m, r))  # reused: fresh pages for every block cost page faults
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, u, d in blocks:
            kap = kernelized_input(setup.dictionary, setup.kernel, u, out=kap_buf[:len(d)])
            e2 = np.empty(kap.shape[:2])
            for i, kap_i, d_i, e2_i in zip(range(t0, n_iters), kap, d, e2):
                last, e = e, d_i - np.vecdot(alpha, kap_i)
                np.multiply(e, e, out=e2_i)
                if not e2_i.max() < np.inf:  # also true for a NaN
                    for j in np.flatnonzero(~np.isfinite(e2_i)):
                        diverged.setdefault(j, (i, np.linalg.norm(alpha[j]), last[j]))
                update(alpha, kap_i, e, setup.filter_kind, setup.gram, setup.eta,
                       setup.s_n, setup.eps_reg)
            total[t0:t0 + len(d)] = e2.sum(axis=1)
    if diverged:
        i, norm, last_e = diverged[min(diverged)]
        raise DivergenceError(
            f"run {runs[min(diverged)]} produced a non-finite error at iteration {i} "
            f"(||alpha|| = {norm:.6g}, last finite error {last_e:.6g})",
            last_finite_step=i - 1,
        )
    return total


def run_chunk_size(r: int) -> int:
    """Runs stepped together: as many as leave a kernel block ``MC_BLOCK_STEPS`` steps."""
    return max(1, MC_WORK_BYTES // (8 * r * MC_BLOCK_STEPS))


def _run_single(setup: ExperimentSetup, seed: int, run_idx: int, n_iters: int) -> np.ndarray:
    """Squared a-priori error sequence of one independently seeded run."""
    return _run_chunk(setup, seed, range(run_idx, run_idx + 1), n_iters)


def mc_learning_curve(setup: ExperimentSetup, n_runs: int, n_iters: int,
                      seed: int) -> LearningCurve:
    """Pointwise average of squared a-priori errors over independent runs.

    Each run derives its generators from ``(seed, run index)``; runs are
    stepped in chunks of :func:`run_chunk_size` and the chunk sums added in
    run order, so the result is bit-identical for a given
    ``(seed, setup, n_runs, n_iters)``.
    """
    if n_runs < 1 or n_iters < 1:
        raise ValueError("n_runs and n_iters must be >= 1")
    chunk = run_chunk_size(setup.dictionary.size)
    total = np.zeros(n_iters)
    for start in range(0, n_runs, chunk):
        total += _run_chunk(setup, seed, range(start, min(start + chunk, n_runs)), n_iters)
    return LearningCurve(mse=total / n_runs)
