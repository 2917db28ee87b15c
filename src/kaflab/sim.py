"""Signal generation and the Monte-Carlo learning-curve engine.

Streams are fully determined by ``(master seed, configuration)``: every run,
the cross-statistics stream and the calibration stream take their generators
from a ``SeedSequence`` keyed on the master seed, a purpose salt and an index.
The AR(1) input and the recursive plant are one all-pole recurrence in plain
Python, bit-identical to scipy's ``lfilter`` (:func:`kaflab.recurrence.all_pole`),
so numpy is the only dependency. :func:`stream_blocks` draws the streams of many
seeds a block of time steps at a time, carrying every generator and recurrence
state across blocks, so neither the Monte-Carlo engine nor the cross-statistics
estimator holds a whole stream.

The engine steps a chunk of independent runs in lockstep over those blocks, one row per
run, in a working set fixed before its first step (``MC_WORK_BYTES``), more than 128 runs as
two parts in two processes where a probe finds that they keep the bits. Chunk sums are added
in run order; chunk and block sizes follow from one byte budget and the dictionary size.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .filters import FilterKind, make_update, moves_along_g_inv
from .kernel import Dictionary, GaussianKernel, GramFactor, kernelized_input
from .recurrence import all_pole

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
# at a time, so that each run's two generator calls per block cost little next
# to its draws. A stream block holds four arrays of steps x runs doubles (3.1 MB
# for 192 runs): the draws, reused from block to block, then the input and the
# desired signal; the input pairs are a view. 512 steps take about the memory
# that 256 took before the stream stopped copying. The kernel values of the
# chunk's runs are formed for a block of those steps at a time, in one reused
# buffer of at most MC_WORK_BYTES (steps x runs x r doubles); a second buffer of
# the same size is the evaluation's work array and then holds the block's
# stacked G^-1 products. Both stay within a core's cache; larger and smaller
# blocks were slower. A chunk holds as many runs as leave a block MC_BLOCK_STEPS
# steps (655 runs at r = 25, 528 at r = 31), so one pass of the per-step Python
# overhead of the stream recurrences and of the filter loop serves all the runs
# of a shipped config in each process that steps its chunk (two for more than
# 128 runs). It also bounds kaflab.moments' cross-statistics blocks.
MC_WORK_BYTES = 2**20
MC_BLOCK_STEPS = 8
MC_STREAM_STEPS = 512

# A stream block of many seeds is scaled, filtered and run through the plant in
# chunks of rows whose arrays take at most STREAM_ROW_BYTES each, so that they
# stay in a core's cache from one operation to the next. On 192 runs, 128 KB
# chunks drew the stream about 9% faster than whole 786 KB blocks; 512 KB chunks
# were no faster than whole blocks. The block of one seed is one chunk, so that
# its recurrences are long enough to run in segments (16,384 rows would not be).
STREAM_ROW_BYTES = 2**17

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
            a0, a1 = POLYNOMIAL_TAPS if self.kind is SystemKind.POLYNOMIAL else (0.1044, 0.0883)
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
            else:  # 0.3163 y / sqrt(0.1 + 0.9 y^2) + noise, y the all-pole output of x, in d
                d, after = all_pole(x, -1.4138, 0.6065,
                                    np.zeros((2, *u.shape[1:])) if state is None else state, out=d)
                np.multiply(d, d, out=x)
                x *= 0.9
                x += 0.1
                d *= 0.3163
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
    the clock was made) to its stage's total and counts it; named stages start at 0.0."""

    def __init__(self, *stages: str):
        self.seconds = dict.fromkeys(stages, 0.0)
        self.counts = dict.fromkeys(stages, 0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + (now - self._last)
        self.counts[stage] = self.counts.get(stage, 0) + 1
        self._last = now

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


def save_learning_curve(curve: LearningCurve, path) -> None:
    """CSV with header ``n,mse``, one row per iteration, full double precision."""
    rows = (f"{n},{v:.17g}\n" for n, v in enumerate(curve.mse))
    write_atomic(path, itertools.chain(["n,mse\n"], rows))


def load_learning_curve(path) -> LearningCurve:
    """Read an ``n,mse`` CSV; ``ValueError`` naming the file if it holds no curve, or if
    its last row, cut short, lacks the newline that ends every row written here."""
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
    with open(path, "rb") as f:
        f.seek(-1, os.SEEK_END)
        if f.read(1) != b"\n":
            raise ValueError(f"{path} ends in a torn row: its last byte is not a newline")
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
    rows = most if len(rngs) == 1 else max(1, STREAM_ROW_BYTES // (8 * len(rngs)))
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
        if first:
            _, u_state = all_pole(u[:1], -input_gen.rho, state=u_state, out=u[:1])
        else:
            u[0] = u_state[0]
        d = np.empty((steps, len(rngs)))
        for a in range(0, steps, rows):  # the states carried from chunk to chunk
            b = min(a + rows, steps)
            np.multiply(scale, drives[:, a:b].T, out=u[1 + a:1 + b])
            _, u_state = all_pole(u[1 + a:1 + b], -input_gen.rho, state=u_state,
                                  out=u[1 + a:1 + b])
            nu = noise[:, a:b]
            if system.noise_sigma > 0:  # as Generator.normal forms it: 0.0 + sigma z
                np.add(0.0, np.multiply(system.noise_sigma, nu, out=nu), out=nu)
            d[a:b], plant_state = system.respond(u[a:b + 1], nu.T, plant_state)
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


def _run_chunk(setup: ExperimentSetup, seed: int, runs: range, n_iters: int,
               laps: Laps) -> np.ndarray:
    """Squared a-priori errors summed over ``runs``, all stepped in lockstep.

    A block of steps takes its kernel values at once, and for the natural
    update (and the selective one with ``s_n = r``) its products ``kappa G^-1``
    in one stacked product, which numpy forms with the same per-matrix BLAS call
    as a step's own product. The steps then move the coefficients through
    :func:`kaflab.filters.make_update`. Divergence is looked for once per block: a
    block in which a run's squared error is first non-finite is stepped again
    from the coefficients it started with, step by step, so that the
    :class:`DivergenceError` names the lowest-index run that diverges, as when
    runs were stepped one by one: its first iteration with a non-finite
    squared error, its ``||alpha||`` there and its last finite error. A
    diverging run is stepped on with non-finite values. ``laps`` laps ``stream`` once a
    stream block is drawn, and ``kernel_values`` and then ``steps`` for each kernel block.
    """
    m, r = len(runs), setup.dictionary.size
    natural = moves_along_g_inv(setup.filter_kind, setup.s_n, r)
    move = make_update(setup.filter_kind, setup.gram, setup.eta, (m, r), setup.s_n,
                       setup.eps_reg)
    block = max(1, min(MC_WORK_BYTES // (8 * m * r), MC_STREAM_STEPS, n_iters))
    # The block's two buffers, reused: the kernel values, and the work array that
    # forms them and then holds their stacked G^-1 products. A kernel block ends
    # where its stream block ends, so it is never longer than one.
    kap_buf, work = np.empty((block, m, r)), np.empty((block, m, r))
    kap_rows, prod_rows = list(kap_buf), list(work)  # a step's rows, as views made once
    alpha, alpha0 = np.zeros((m, r)), np.empty((m, r))
    e, e2, last = np.empty((block, m)), np.empty((block, m)), np.full(m, np.nan)
    e_rows = list(e)
    total = np.empty(n_iters)
    diverged = {}  # row -> (iteration, ||alpha||, last finite error)
    streams = stream_blocks(setup.input_gen, setup.system, n_iters,
                            [(seed, MC_RUN_SALT, run) for run in runs], block=MC_STREAM_STEPS)

    def step(t0, b, kap, d_block, check):
        """Step the block from ``alpha``; with ``check``, note each run's first
        non-finite squared error."""
        if natural:
            np.matmul(kap, setup.gram.g_inv, out=work[:b])
        prev = last
        for i, kap_i, d_i, e_i, prod_i in zip(range(t0, t0 + b), kap_rows, d_block, e_rows,
                                              prod_rows if natural else [None] * b):
            np.subtract(d_i, np.vecdot(alpha, kap_i, out=e_i), out=e_i)
            if check:
                for j in np.flatnonzero(~np.isfinite(e_i * e_i)):
                    diverged.setdefault(j, (i, np.linalg.norm(alpha[j]), prev[j]))
                prev = e_i
            move(alpha, kap_i, e_i, prod_i)

    with np.errstate(over="ignore", invalid="ignore"):
        for t_s in range(0, n_iters, MC_STREAM_STEPS):
            u_s, d_s = next(streams)
            d_rows = list(d_s)
            laps.lap("stream")
            for k0 in range(0, len(d_s), block):
                t0, u = t_s + k0, u_s[k0:k0 + block]
                b = len(u)
                kap = kernelized_input(setup.dictionary, setup.kernel, u, out=kap_buf[:b],
                                       work=work)
                laps.lap("kernel_values")
                np.copyto(alpha0, alpha)
                step(t0, b, kap, d_rows[k0:k0 + b], False)
                np.multiply(e[:b], e[:b], out=e2[:b])
                if not e2[:b].max() < np.inf:  # also true for a NaN
                    bad = np.flatnonzero(~np.isfinite(e2[:b]).all(axis=0))
                    if not diverged.keys() >= set(bad):  # a run diverges first in this block
                        np.copyto(alpha, alpha0)
                        step(t0, b, kap, d_rows[k0:k0 + b], True)
                total[t0:t0 + b] = e2[:b].sum(axis=1)
                np.copyto(last, e[b - 1])
                laps.lap("steps")
            del u_s, d_s, d_rows, u  # so that the next block is drawn in their place
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
    return _run_chunk(setup, seed, range(run_idx, run_idx + 1), n_iters, Laps())


def split_point(setup: ExperimentSetup, m: int, n_iters: int) -> int:
    """Where a chunk of ``m > 128`` runs splits into parts that keep its bits here, else 0: at
    numpy's pairwise-sum root split, if a fixed (2, m) array's row sums are its parts' sums
    added and the ``kappa G^-1`` products of fixed rows equal at each part's block shape."""
    n2, r, rng = m // 2 - (m // 2) % 8, setup.dictionary.size, np.random.default_rng(m)
    a, x = rng.random((2, m)), rng.random((m, r))

    def product(rows):  # the last matrix of a stacked kernel block of these rows
        block = max(1, min(MC_WORK_BYTES // (8 * len(rows) * r), MC_STREAM_STEPS, n_iters))
        return np.matmul(np.broadcast_to(rows, (block, *rows.shape)).copy(), setup.gram.g_inv)[-1]

    exact = (np.array_equal(a.sum(axis=1), a[:, :n2].sum(axis=1) + a[:, n2:].sum(axis=1))
             and (not moves_along_g_inv(setup.filter_kind, setup.s_n, r)
                  or np.array_equal(product(x), np.vstack([product(x[:n2]), product(x[n2:])]))))
    return n2 if exact else 0


def _step_in_two(setup: ExperimentSetup, seed: int, runs: range, n_iters: int, laps: Laps,
                 counters: dict, n2: int) -> np.ndarray:
    """The chunk's summed squared errors. A forked child steps the runs from ``runs[n2]`` on,
    on CPUs apart from this process's, and sends their sums and laps, or its divergence's
    message and step (a pickled error drops the step). It is killed and reaped, and the CPU
    set restored, before this returns or raises; if it sent nothing, its runs step here."""
    cpus, rd, wr = os.sched_getaffinity(0), *os.pipe()
    with open(rd, "rb") as reader, open(wr, "wb") as writer:
        try:
            pid = os.fork()
        except OSError:
            return _run_chunk(setup, seed, runs, n_iters, laps)
        if pid == 0:
            try:
                os.sched_setaffinity(0, cpus - {min(cpus)})
                try:
                    answer = (_run_chunk(setup, seed, runs[n2:], n_iters, own := Laps()), own)
                except DivergenceError as exc:
                    answer = (str(exc), exc.last_finite_step)
                pickle.dump(answer, writer)
                writer.close()
            finally:
                os._exit(0)
        writer.close()
        try:
            os.sched_setaffinity(0, {min(cpus)})  # else the scheduler may leave both on one CPU
            first = _run_chunk(setup, seed, runs[:n2], n_iters, laps)
            answer = reader.read()
            laps._last = time.perf_counter()  # the wait is no stage of this process
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.sched_setaffinity(0, cpus)
    if not answer:
        return first + _run_chunk(setup, seed, runs[n2:], n_iters, laps)
    second, own = pickle.loads(answer)
    if isinstance(second, str):
        raise DivergenceError(second, last_finite_step=own)
    laps.seconds.update({k: laps.seconds.get(k, 0.0) + t for k, t in own.seconds.items()})
    laps.counts.update({k: laps.counts.get(k, 0) + n for k, n in own.counts.items()})
    counters["mc_processes"] = 2
    return first + second


def mc_learning_curve(setup: ExperimentSetup, n_runs: int, n_iters: int, seed: int,
                      laps: Laps | None = None, counters: dict | None = None) -> LearningCurve:
    """Pointwise average of squared a-priori errors over independent runs.

    Each run derives its generators from ``(seed, run index)``; runs are stepped in chunks
    of :func:`run_chunk_size` and the chunk sums added in run order, so the result is
    bit-identical for a given ``(seed, setup, n_runs, n_iters)``. ``laps``, if given, is
    lapped at the stages ``stream`` (drawing the streams), ``kernel_values`` (forming kernel
    values) and ``steps`` (stepping, stacked products included) as :func:`_run_chunk` laps
    them, summed over processes; ``counters``, if given, gets ``mc_processes``, 1 or 2.

    A chunk of more than 128 runs steps in two processes, this one stepping the runs below its
    :func:`split_point` and a forked child the rest (:func:`_step_in_two`); it steps whole
    here with 128 runs or fewer, on one CPU (``os.sched_getaffinity``), without ``os.fork``,
    when that probe fails and when ``fork`` raises ``OSError``.
    """
    if n_runs < 1 or n_iters < 1:
        raise ValueError("n_runs and n_iters must be >= 1")
    laps = Laps() if laps is None else laps
    counters = {} if counters is None else counters
    counters["mc_processes"] = 1
    chunk, total = run_chunk_size(setup.dictionary.size), np.zeros(n_iters)
    two = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
    splits = {m: two and m > 128 and split_point(setup, m, n_iters)  # once per chunk size
              for m in {min(chunk, n_runs - start) for start in range(0, n_runs, chunk)}}
    for start in range(0, n_runs, chunk):
        runs = range(start, min(start + chunk, n_runs))
        n2 = splits[len(runs)]
        total += (_step_in_two(setup, seed, runs, n_iters, laps, counters, n2) if n2
                  else _run_chunk(setup, seed, runs, n_iters, laps))
    return LearningCurve(mse=total / n_runs)
