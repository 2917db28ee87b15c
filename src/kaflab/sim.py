"""Signal generation and the Monte-Carlo learning-curve engine.

Streams are fully determined by ``(master seed, configuration)``: every run
and the calibration stream take their generators from a ``SeedSequence`` keyed
on the master seed, a purpose salt and an index.
The AR(1) input and the recursive plant are one all-pole recurrence in plain
Python, bit-identical to scipy's ``lfilter`` (:func:`kaflab.recurrence.all_pole`),
so numpy is the only dependency. :func:`stream_blocks` draws the streams of many
seeds a block of time steps at a time, carrying every generator and recurrence
state across blocks, so the Monte-Carlo engine never holds a whole stream.

The engine steps a chunk of independent runs in lockstep over one schedule of kernel
blocks, one row per run, in a working set fixed before its first step. On two CPUs a chunk of
more than 128 runs steps as two parts in two processes where a probe finds that they keep the
bits, and any other chunk of more than one kernel block as a two-stage pipeline: a forked
child draws the streams and forms the kernel values while this process steps. Both fork
through :func:`_in_two_processes`, which merges the child's laps, records its peak memory and
answers None where two processes could not be used: the chunk then steps whole, as does
every chunk that is not forked. Chunk sums are added in run order; chunk and block sizes
follow from the dictionary size and the one byte budget of :data:`kaflab.linalg.WORK_BYTES`
(:func:`kernel_block`).
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ArtifactError, DimensionMismatchError, DivergenceError
from .filters import FilterKind, make_update, moves_along_g_inv
from .kernel import Dictionary, GaussianKernel, GramFactor, kernelized_input
from .linalg import rows_within
from .recurrence import all_pole

# Unused here, like ``_run_single`` below: perfbench/tracing.py wraps them by name.
from .filters import knlms_step, natural_klms_step, selective_step  # noqa: F401

# Purpose salts folded into SeedSequence entropy so that concurrent uses of
# one master seed (runs, calibration, moment checks) never share streams; 2 is retired.
MC_RUN_SALT = 1
CALIBRATION_SALT = 3
MOMENTS_CHECK_SALT = 4

# Working memory of the Monte-Carlo engine, none of which grows with the
# number of iterations. A chunk of runs draws its streams as many whole kernel blocks
# at a time as fit in MC_STREAM_STEPS steps, so that each run's two generator calls
# per block cost little next to its draws. A stream block holds its two arrays of
# draws, reused from block to block, then the input and the desired signal, and while
# the plant forms that signal one or two temporaries: each steps x runs doubles (0.8 MB
# for 192 runs); the input pairs are a view. The kernel values of the chunk's runs are
# formed a kernel block at a time, in one reused buffer of at most linalg.WORK_BYTES
# (steps x runs x r doubles, kernel_block), beside a copy of the block's desired values
# (steps x runs); a second buffer of the same size is the evaluation's work array and
# then holds the block's stacked G^-1 products. Both stay within a core's cache; larger
# and smaller blocks were slower. A chunk holds as many runs as leave a block
# MC_BLOCK_STEPS steps (655 runs at r = 25, 528 at r = 31), so one pass of the per-step
# Python overhead of the stream recurrences and of the filter loop serves all the runs
# of a shipped config in each process that steps its chunk (two where it is split).
MC_BLOCK_STEPS = 8
MC_STREAM_STEPS = 512

# Slots of the shared ring of _step_in_pipeline, each a kernel block with its desired
# values. On the exp2-coherence31 benchmark chunk (64 runs, r = 31, 3,000 steps) on a 2-CPU
# virtual machine, the Monte-Carlo stage took a median 72.6 ms with four slots, against
# 81.5, 84.3 and 75.5 ms with two, three and eight, and 98.1 ms in one process (15 runs each).
RING_SLOTS = 4

# Samples prepended to each run so a recursive plant forgets its zero initial
# state before measurement starts (poles of the fluid-flow plant have modulus
# ~0.78, so 200 samples leave no measurable transient).
FLUID_FLOW_WARMUP = 200

# The polynomial plant: x = a0 u_n + a1 u_{n-1}, d = c1 x + c2 x^2 + c3 x^3 + noise.
POLYNOMIAL_TAPS = (0.5, -0.3)
POLYNOMIAL_COEFFS = (1.0, -0.5, 0.1)

# The fluid-flow plant: x = a0 u_n + a1 u_{n-1}, y the all-pole output of x,
# y_n = x_n - p1 y_{n-1} - p2 y_{n-2}, and d = g y / sqrt(s0 + s1 y^2) + noise.
FLUID_FLOW_TAPS = (0.1044, 0.0883)
FLUID_FLOW_POLES = (-1.4138, 0.6065)
FLUID_FLOW_GAIN = 0.3163
FLUID_FLOW_SATURATION = (0.1, 0.9)


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

    A time-major chunk ``u`` of shape (T, m) embeds to (T - 1, m, 2). The result
    is a read-only view of ``u``, whose last axis steps back one sample, so it
    costs no copy and each coordinate plane ``v[..., a]`` is as contiguous as
    ``u``'s rows.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] < 2:
        raise DimensionMismatchError("embedding needs a stream of length >= 2")
    return np.lib.stride_tricks.as_strided(u[1:], (len(u) - 1, *u.shape[1:], 2),
                                           (*u.strides, -u.strides[0]), writeable=False)


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
        if self.kind is SystemKind.NULL:
            d = noise.copy()
        else:  # in place: at most two arrays of d's size besides d, in the formula's order
            a0, a1 = POLYNOMIAL_TAPS if self.kind is SystemKind.POLYNOMIAL else FLUID_FLOW_TAPS
            x, d = np.multiply(a0, u[1:]), np.multiply(a1, u[:-1])
            x += d
            if self.kind is SystemKind.POLYNOMIAL:  # c1 x + c2 x^2 + c3 (x (x x)) + noise
                c1, c2, c3 = POLYNOMIAL_COEFFS
                t = np.multiply(x, x)
                np.multiply(c1, x, out=d)
                x *= t
                t *= c2
                d += t
                x *= c3
                d += x
            else:  # g y / sqrt(s0 + s1 y^2) + noise, y the all-pole output of x, in d
                d, after = all_pole(x, *FLUID_FLOW_POLES,
                                    np.zeros((2, *u.shape[1:])) if state is None else state, out=d)
                s0, s1 = FLUID_FLOW_SATURATION
                np.multiply(d, d, out=x)
                x *= s1
                x += s0
                d *= FLUID_FLOW_GAIN
                d /= np.sqrt(x, out=x)
            d += noise
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


class Laps:
    """Wall time of consecutive stages: a lap adds the seconds since the last one (or since
    the clock was made or restarted) to its stage's total and counts it; named stages start
    at 0.0."""

    def __init__(self, *stages: str):
        self.seconds = dict.fromkeys(stages, 0.0)
        self.counts = dict.fromkeys(stages, 0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + (now - self._last)
        self.counts[stage] = self.counts.get(stage, 0) + 1
        self._last = now

    def merge(self, other: Laps) -> None:
        """Add ``other``'s seconds and counts, stage by stage, and restart this clock: the
        time since the last lap, spent waiting for ``other``, is no stage."""
        for stage in other.seconds:
            self.seconds[stage] = self.seconds.get(stage, 0.0) + other.seconds[stage]
            self.counts[stage] = self.counts.get(stage, 0) + other.counts[stage]
        self.restart()

    def restart(self) -> None:
        """Restart this clock: the time since the last lap is no stage."""
        self._last = time.perf_counter()

    def rounded(self) -> dict:  # as the manifest records them
        return {stage: round(t, 6) for stage, t in self.seconds.items()}


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


def write_table(path, header: str, row: str, *columns) -> None:
    """Write the line ``header``, then ``row % values`` for each index of the equal-length
    ``columns`` (ranges, sequences or arrays), through :func:`write_atomic`, one ``%`` a
    block of rows within :func:`~kaflab.linalg.rows_within`, so a long table is never held
    whole. ``"%.17g" % x`` has the bytes of ``f"{x:.17g}"``, ``"%d" % n`` those of ``str(n)``."""
    block = rows_within(80 * len(columns))  # a value's text, its format and its Python object

    def chunks():
        yield header + "\n"
        for start in range(0, len(columns[0]), block):
            parts = [c[start:start + block] for c in columns]
            parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
            yield (row + "\n") * len(parts[0]) % tuple(itertools.chain.from_iterable(zip(*parts)))

    write_atomic(path, chunks())


def save_learning_curve(curve: LearningCurve, path) -> None:
    """CSV with header ``n,mse``, one row per iteration, full double precision."""
    write_table(path, "n,mse", "%d,%.17g", range(len(curve)), curve.mse)


def load_learning_curve(path) -> LearningCurve:
    """Read an ``n,mse`` CSV; :class:`ArtifactError` naming the file if it holds no curve, a
    negative or non-finite entry, or a last row that, cut short, lacks the newline that ends
    every row written here."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file is reported below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ArtifactError(f"{path} is not an 'n,mse' CSV: {exc}") from exc
    if data.shape[0] < 1 or data.shape[1] < 2:
        raise ArtifactError(
            f"{path} holds no learning curve: expected a header and rows of 'n,mse', "
            f"read {data.shape[0]} rows of {data.shape[1]} columns"
        )
    with open(path, "rb") as f:
        f.seek(-1, os.SEEK_END)
        if f.read(1) != b"\n":
            raise ArtifactError(f"{path} ends in a torn row: its last byte is not a newline")
    try:
        return LearningCurve(mse=data[:, 1])
    except (ValueError, DivergenceError) as exc:  # a negative or non-finite entry
        raise ArtifactError(f"{path}: {exc}") from exc


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
    it. The draws go into two arrays reused from block to block, the noise
    scaled there as ``Generator.normal`` scales it; each block's input and
    desired signal are new arrays, ``u`` a read-only :func:`embed_input` view of
    the input, so a block stays valid after the next is drawn.
    """
    if n < 1:
        raise ValueError(f"stream length must be >= 1, got {n}")
    if warmup is None:
        warmup = system.warmup_samples
    block = n if block is None else block
    rngs = [[np.random.default_rng(s) for s in np.random.SeedSequence(entropy=e).spawn(2)]
            for e in seeds]
    scale = input_gen.sigma_u * np.sqrt(1.0 - input_gen.rho**2)
    most = warmup + min(block, n)  # samples drawn for the largest block, the first
    drives, noise = np.empty((len(rngs), most)), np.zeros((len(rngs), most))  # reused
    u_state = plant_state = np.zeros((2, len(rngs)))
    for t0 in range(0, n, block):
        first, skip = t0 == 0, warmup if t0 == 0 else 0
        steps = skip + min(block, n - t0)
        u = np.empty((1 + steps, len(rngs)))  # row 0: u_0 in the first block, else the last u
        for j, ((rng_input, rng_noise), drive, nu) in enumerate(zip(rngs, drives[:, :steps],
                                                                   noise[:, :steps])):
            if first:
                u[0, j] = rng_input.normal(0.0, input_gen.sigma_u)
            rng_input.standard_normal(out=drive)
            if system.noise_sigma > 0:
                rng_noise.standard_normal(out=nu)
        if not first:
            u[0] = u_state[0]
        np.multiply(scale, drives[:, :steps].T, out=u[1:])
        y = u if first else u[1:]  # the recurrence starts at u_0, or goes on from the last u
        _, u_state = all_pole(y, -input_gen.rho, state=u_state, out=y)
        nu = noise[:, :steps]
        if system.noise_sigma > 0:  # as Generator.normal forms it: 0.0 + sigma z
            np.add(0.0, np.multiply(system.noise_sigma, nu, out=nu), out=nu)
        d, plant_state = system.respond(u, nu.T, plant_state)
        yield embed_input(u)[skip:], d[skip:]
        del u, d  # a consumer that lets go of the block frees it before the next is drawn


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


def _slot(kap: np.ndarray, d: np.ndarray) -> tuple:
    """A kernel block's buffers, the kernel values (steps, runs, r) and the desired values
    (steps, runs), with their rows: a step's views, made once."""
    return kap, d, list(kap), list(d)


def _kernel_blocks(setup: ExperimentSetup, seed: int, runs: range, n_iters: int, laps: Laps,
                   slots, work: np.ndarray):
    """Form the kernel blocks of ``runs``, each in the next slot of ``slots`` (see
    :func:`_slot`; the block shape is that of :func:`kernel_block`), and yield
    ``(t0, b, slot)`` once its first ``b`` rows hold the values of steps ``t0`` to ``t0 + b``,
    for each ``t0`` of ``range(0, n_iters, block)``: only the last block may be short.

    The streams are drawn as many whole kernel blocks at a time as fit in ``MC_STREAM_STEPS``
    steps; a block's kernel values are formed with the work array ``work``, of the block
    shape, and its desired values copied, so that no view of a stream block outlives it.
    ``laps`` laps ``stream`` once a stream block is drawn and ``kernel_values`` for each
    kernel block."""
    block = kernel_block(len(runs), setup.dictionary.size, n_iters)
    span = block * (MC_STREAM_STEPS // block)  # a stream block
    streams = stream_blocks(setup.input_gen, setup.system, n_iters,
                            [(seed, MC_RUN_SALT, run) for run in runs], block=span)
    for t0, slot in zip(range(0, n_iters, block), slots):
        k0, b = t0 % span, min(block, n_iters - t0)
        if k0 == 0:
            u_s = d_s = None  # so that the next block is drawn in their place
            u_s, d_s = next(streams)
            laps.lap("stream")
        kernelized_input(setup.dictionary, setup.kernel, u_s[k0:k0 + b], out=slot[0][:b],
                         work=work)
        np.copyto(slot[1][:b], d_s[k0:k0 + b])
        laps.lap("kernel_values")
        yield t0, b, slot


def _step_blocks(setup: ExperimentSetup, runs: range, n_iters: int, blocks, work: np.ndarray,
                 laps: Laps) -> np.ndarray:
    """Squared a-priori errors summed over ``runs``, all stepped in lockstep over ``blocks``,
    the ``(t0, b, slot)`` of :func:`_kernel_blocks`.

    For the natural update (and the selective one with ``s_n = r``) a block's products
    ``kappa G^-1`` are formed in ``work``, of the block shape, in one stacked product, which
    numpy forms with the same per-matrix BLAS call as a step's own product. The steps then
    move the coefficients through :func:`kaflab.filters.make_update`. Divergence is looked
    for once per block: a block in which a run's squared error is first non-finite is
    stepped again from the coefficients it started with, step by step, so that the
    :class:`DivergenceError` names the lowest-index run that diverges, as when runs were
    stepped one by one: its first iteration with a non-finite squared error, its
    ``||alpha||`` there and its last finite error. A diverging run is stepped on with
    non-finite values. ``laps`` laps ``steps`` for each block.
    """
    m, r = len(runs), setup.dictionary.size
    natural = moves_along_g_inv(setup.filter_kind, setup.s_n, r)
    move = make_update(setup.filter_kind, setup.gram, setup.eta, (m, r), setup.s_n,
                       setup.eps_reg)
    block = kernel_block(m, r, n_iters)
    prod_rows = list(work) if natural else [None] * block
    alpha, alpha0 = np.zeros((m, r)), np.empty((m, r))
    e, e2, last = np.empty((block, m)), np.empty((block, m)), np.full(m, np.nan)
    e_rows = list(e)
    total = np.empty(n_iters)
    diverged = {}  # row -> (iteration, ||alpha||, last finite error)

    def step(t0, b, kap, kap_rows, d_rows, check):
        """Step the block from ``alpha``; with ``check``, note each run's first
        non-finite squared error."""
        if natural:
            np.matmul(kap[:b], setup.gram.g_inv, out=work[:b])
        prev = last
        for i, kap_i, d_i, e_i, prod_i in zip(range(t0, t0 + b), kap_rows, d_rows, e_rows,
                                              prod_rows):
            np.subtract(d_i, np.vecdot(alpha, kap_i, out=e_i), out=e_i)
            if check:
                for j in np.flatnonzero(~np.isfinite(e_i * e_i)):
                    diverged.setdefault(j, (i, np.linalg.norm(alpha[j]), prev[j]))
                prev = e_i
            move(alpha, kap_i, e_i, prod_i)

    with np.errstate(over="ignore", invalid="ignore"):
        for t0, b, (kap, _, kap_rows, d_rows) in blocks:
            np.copyto(alpha0, alpha)
            step(t0, b, kap, kap_rows, d_rows, False)
            np.multiply(e[:b], e[:b], out=e2[:b])
            if not e2[:b].max() < np.inf:  # also true for a NaN
                bad = np.flatnonzero(~np.isfinite(e2[:b]).all(axis=0))
                if not diverged.keys() >= set(bad):  # a run diverges first in this block
                    np.copyto(alpha, alpha0)
                    step(t0, b, kap, kap_rows, d_rows, True)
            total[t0:t0 + b] = e2[:b].sum(axis=1)
            np.copyto(last, e[b - 1])
            laps.lap("steps")
    if diverged:
        i, norm, last_e = diverged[min(diverged)]
        raise DivergenceError(
            f"run {runs[min(diverged)]} produced a non-finite error at iteration {i} "
            f"(||alpha|| = {norm:.6g}, last finite error {last_e:.6g})",
            last_finite_step=i - 1,
        )
    return total


def _run_chunk(setup: ExperimentSetup, seed: int, runs: range, n_iters: int,
               laps: Laps) -> np.ndarray:
    """Squared a-priori errors summed over ``runs``: :func:`_step_blocks` over
    :func:`_kernel_blocks`, in this process. One slot is reused from block to block, and
    one work array forms each block's kernel values and then holds their stacked
    ``G^-1`` products."""
    shape = (kernel_block(len(runs), setup.dictionary.size, n_iters), len(runs))
    work = np.empty((*shape, setup.dictionary.size))
    slots = itertools.repeat(_slot(np.empty_like(work), np.empty(shape)))
    blocks = _kernel_blocks(setup, seed, runs, n_iters, laps, slots, work)
    return _step_blocks(setup, runs, n_iters, blocks, work, laps)


def run_chunk_size(r: int) -> int:
    """Runs stepped together: as many as leave a kernel block ``MC_BLOCK_STEPS`` steps."""
    return rows_within(8 * r * MC_BLOCK_STEPS)


def kernel_block(m: int, r: int, n_iters: int) -> int:
    """Steps of a kernel block of ``m`` runs over ``r`` centers within the byte budget, at
    most a stream block and ``n_iters``: the one rule of :func:`_run_chunk` and its probe."""
    return min(rows_within(8 * m * r), MC_STREAM_STEPS, n_iters)


def _run_single(setup: ExperimentSetup, seed: int, run_idx: int, n_iters: int) -> np.ndarray:
    """Squared a-priori error sequence of one independently seeded run."""
    return _run_chunk(setup, seed, range(run_idx, run_idx + 1), n_iters, Laps())


def split_point(setup: ExperimentSetup, m: int, n_iters: int) -> int:
    """Where a chunk of ``m > 128`` runs splits into parts that keep its bits here, else 0: at
    numpy's pairwise-sum root split, if a fixed (2, m) array's row sums are its parts' sums
    added and the ``kappa G^-1`` products of fixed rows equal at each part's block shape."""
    n2, r, rng = m // 2 - (m // 2) % 8, setup.dictionary.size, np.random.default_rng(m)
    a, x = rng.random((2, m)), rng.random((m, r))

    def product(rows):  # the last matrix of a stacked kernel block of these rows
        block = kernel_block(len(rows), r, n_iters)
        return np.matmul(np.broadcast_to(rows, (block, *rows.shape)).copy(), setup.gram.g_inv)[-1]

    exact = (np.array_equal(a.sum(axis=1), a[:, :n2].sum(axis=1) + a[:, n2:].sum(axis=1))
             and (not moves_along_g_inv(setup.filter_kind, setup.s_n, r)
                  or np.array_equal(product(x), np.vstack([product(x[:n2]), product(x[n2:])]))))
    return n2 if exact else 0


def _pipe(files: contextlib.ExitStack) -> tuple:
    """A new pipe's read and write ends as unbuffered files, closed with ``files``."""
    rd, wr = os.pipe()
    return (files.enter_context(open(rd, "rb", buffering=0)),
            files.enter_context(open(wr, "wb", buffering=0)))


def _in_two_processes(laps: Laps, counters: dict, child, here, ring_bytes=0) -> np.ndarray | None:
    """The chunk's summed squared errors from two processes, or None where two could not be
    used: a forked child runs ``child(own, ring, rd, wr)`` and this one ``here(ring, rd, wr)``,
    ``ring`` a shared ``mmap`` of ``ring_bytes`` as doubles (or None), ``rd`` and ``wr`` the
    process's ends of a pipe each way. The child sends its answer (an array to add, or None)
    or its :class:`DivergenceError`, pickled with its laps ``own``, which ``laps`` merges; its
    error is raised once this process's part is done without one. None comes back if
    ``mmap``, ``pipe`` or ``fork`` raises ``OSError``, or if the child ends before its answer
    (``here`` raises ``EOFError``, or the answer is empty or cut short). The child is killed
    and reaped before this returns or raises; ``counters`` gets ``child_peak_rss_mb``, the
    largest peak resident set of a reaped child (``RUSAGE_CHILDREN``), in MB."""
    import resource  # POSIX, as os.fork is

    with contextlib.ExitStack() as files:
        try:
            # shared with the child; unmapped when the last array on it is freed
            ring = np.frombuffer(mmap.mmap(-1, ring_bytes)) if ring_bytes else None
            (rd, wr), (back_rd, back_wr) = _pipe(files), _pipe(files)
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            try:
                back_wr.close()  # so that the end of this process ends what it reads
                try:
                    answer = child(own := Laps(), ring, back_rd, wr)
                except DivergenceError as exc:
                    answer = exc
                pickle.dump((answer, own), wr)
            finally:
                os._exit(0)
        try:
            wr.close()  # so that the end of the child ends what this process reads
            mine, (theirs, own) = here(ring, rd, back_wr), pickle.loads(rd.read())
        except (EOFError, pickle.UnpicklingError):  # the child ended before its answer
            return None
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            counters["child_peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    laps.merge(own)  # the wait for the child is no stage of this process
    if isinstance(theirs, DivergenceError):
        raise theirs
    counters["mc_processes"] = 2
    return mine if theirs is None else mine + theirs


def _step_in_two(setup: ExperimentSetup, seed: int, runs: range, n_iters: int, laps: Laps,
                 counters: dict, n2: int) -> np.ndarray | None:
    """The chunk's summed squared errors, split by runs: this process steps the runs below
    ``runs[n2]`` and a forked child the rest (:func:`_in_two_processes`, or None)."""
    return _in_two_processes(laps, counters,
                             lambda own, *_: _run_chunk(setup, seed, runs[n2:], n_iters, own),
                             lambda *_: _run_chunk(setup, seed, runs[:n2], n_iters, laps))


def _step_in_pipeline(setup: ExperimentSetup, seed: int, runs: range, n_iters: int,
                      laps: Laps, counters: dict) -> np.ndarray | None:
    """The chunk's summed squared errors, in two stages (:func:`_in_two_processes`, or
    None): a forked child runs :func:`_kernel_blocks` into a shared ring of ``RING_SLOTS``
    slots, and this process runs :func:`_step_blocks` over them, the same calls on the same
    values as :func:`_run_chunk`, block by block over ``range(0, n_iters, block)``. A byte on
    one pipe hands a filled slot here, a byte on the other hands it back."""
    m, r = len(runs), setup.dictionary.size
    block = kernel_block(m, r, n_iters)

    def slots(ring):
        kaps, ds = np.split(ring, [RING_SLOTS * block * m * r])
        return [_slot(kap, d) for kap, d in zip(kaps.reshape(RING_SLOTS, block, m, r),
                                                 ds.reshape(RING_SLOTS, block, m))]

    def child(own, ring, free, full):
        def free_slots():  # each slot is free at first, then once handed back
            for i, slot in enumerate(itertools.cycle(slots(ring))):
                if i >= RING_SLOTS and not free.read(1):
                    return
                own.restart()  # the wait for a free slot is no stage
                yield slot

        for _ in _kernel_blocks(setup, seed, runs, n_iters, own, free_slots(),
                                np.empty((block, m, r))):
            full.write(b"\0")

    def here(ring, full, free):
        def filled(ring_slots):
            for i, t0 in enumerate(range(0, n_iters, block)):
                if not full.read(1):
                    raise EOFError("the child ended before its last block")
                laps.restart()  # the wait for a filled slot is no stage
                yield t0, min(block, n_iters - t0), ring_slots[i % RING_SLOTS]
                free.write(b"\0")  # the free slots' read end stays open here: never breaks

        return _step_blocks(setup, runs, n_iters, filled(slots(ring)), np.empty((block, m, r)),
                            laps)

    return _in_two_processes(laps, counters, child, here, 8 * RING_SLOTS * block * m * (r + 1))


def mc_learning_curve(setup: ExperimentSetup, n_runs: int, n_iters: int, seed: int,
                      laps: Laps | None = None, counters: dict | None = None) -> LearningCurve:
    """Pointwise average of squared a-priori errors over independent runs.

    Each run derives its generators from ``(seed, run index)``; runs are stepped in chunks
    of :func:`run_chunk_size` and the chunk sums added in run order, so the result is
    bit-identical for a given ``(seed, setup, n_runs, n_iters)``. ``laps``, if given, is
    lapped at the stages ``stream`` (drawing the streams), ``kernel_values`` (forming kernel
    values) and ``steps`` (stepping, stacked products included) as :func:`_run_chunk` laps
    them, summed over processes; ``counters``, if given, gets ``mc_processes``, 1 or 2, and,
    once a child is forked, ``child_peak_rss_mb``.

    On two CPUs (``os.sched_getaffinity``) with ``os.fork``, a chunk of more than 128 runs
    that :func:`split_point` splits steps by runs (:func:`_step_in_two`), and any other chunk
    of more than one kernel block as a pipeline (:func:`_step_in_pipeline`), each through
    :func:`_in_two_processes`. Every other chunk, and one that could not use two processes,
    steps whole here (:func:`_run_chunk`).
    """
    if n_runs < 1 or n_iters < 1:
        raise ValueError("n_runs and n_iters must be >= 1")
    laps = Laps() if laps is None else laps
    counters = {} if counters is None else counters
    counters["mc_processes"] = 1
    r = setup.dictionary.size
    chunk, total = run_chunk_size(r), np.zeros(n_iters)
    two = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
    splits = {m: two and m > 128 and split_point(setup, m, n_iters)  # once per chunk size
              for m in {min(chunk, n_runs - start) for start in range(0, n_runs, chunk)}}
    for start in range(0, n_runs, chunk):
        runs = range(start, min(start + chunk, n_runs))
        part = None
        if n2 := splits[len(runs)]:
            part = _step_in_two(setup, seed, runs, n_iters, laps, counters, n2)
        elif two and kernel_block(len(runs), r, n_iters) < n_iters:
            part = _step_in_pipeline(setup, seed, runs, n_iters, laps, counters)
        total += _run_chunk(setup, seed, runs, n_iters, laps) if part is None else part
    return LearningCurve(mse=total / n_runs)
