"""Statistical quantities driving the performance model.

Closed-form moments
-------------------
For a zero-mean Gaussian input ``u ~ N(0, R_u)`` and Gaussian kernel of width
sigma, products of kernel values are log-quadratic in ``u``:

    prod_k kappa(u, c_k) = exp(-u'Au + b'u + c),
    A = (K / (2 sigma^2)) I,   b = (sum_k c_k) / sigma^2,
    c = -(sum_k ||c_k||^2) / (2 sigma^2),

so the expectation is a Gaussian integral with the closed form

    E[prod_k kappa(u, c_k)]
        = |I + 2 R_u A|^(-1/2) * exp(c + b'(R_u^-1 + 2A)^-1 b / 2).

``(R_u^-1 + 2A)^-1`` is evaluated as ``(I + 2 A R_u)^-1 R_u`` via a solve, so
``R_u`` is never inverted and near-singular covariances stay well conditioned
(a truly singular ``R_u`` must be regularized by the caller, e.g. ``eps * I``).

The same formula with K = 2 gives every entry of the kernelized-input
autocorrelation matrix, and with K = 4 the fourth moments, kept as one m x m
block on symmetric index pairs (m = r(r+1)/2), so the theory's memory grows as m^2.

Cross statistics
----------------
The cross-correlation vector ``p = E[d_n kappa_n]`` and the signal power
``E[d_n^2]`` have closed forms for the memoryless plants, polynomial and null
(:func:`exact_cross_stats`): weighting the Gaussian input law by one kernel value
leaves a Gaussian law, under which the plant's polynomial has known moments. A
plant with memory (fluid flow), or any other black box, has none; for it they are
estimated from a long stationary stream, burn-in discarded, drawn in blocks whose
kernel values are formed a sub-block within the engine's byte budget at a time: only
the desired signal is kept whole (:func:`stream_cross_stats`).
:func:`estimate_cross_stats` picks between the two.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import DimensionMismatchError, NotPositiveDefiniteError
from .kernel import Dictionary, GaussianKernel, GramFactor, gram, kernelized_input
from .linalg import sym_basis, sym_congruence, sym_eig, sym_index, symmetrize

# Samples discarded from the head of estimation streams so that the AR input
# and recursive plants reach stationarity.
CROSS_STATS_BURN_IN = 1000

# Samples per fold of the cross-statistics sums: the chunks' sums are added in
# turn, so the chunk size fixes the bits of ``p`` (the stream blocks' size does not).
CROSS_STATS_CHUNK = 100_000
# Kernel sub-blocks per block of the cross-statistics stream.
CROSS_STATS_SUB_BLOCKS = 16
MC_MOMENT_CHUNK = 200_000  # draws per block of the Monte-Carlo moment oracles


@dataclass(frozen=True)
class InputModel:
    """Zero-mean Gaussian input law with covariance ``r_u`` (must be PD)."""

    r_u: np.ndarray

    def __post_init__(self):
        r_u = symmetrize(np.atleast_2d(np.asarray(self.r_u, dtype=float)))
        w = np.linalg.eigvalsh(r_u)
        if w[0] <= 0:
            raise NotPositiveDefiniteError(
                f"input covariance is not positive definite "
                f"(smallest eigenvalue {w[0]:.6e}); pass a regularized covariance",
                smallest_eigenvalue=float(w[0]),
            )
        object.__setattr__(self, "r_u", r_u)

    @property
    def dim(self) -> int:
        return self.r_u.shape[0]


@dataclass(frozen=True)
class CrossStats:
    """Cross statistics with per-component standard errors: zero, with ``n_samples`` 0,
    when they are exact."""

    p: np.ndarray
    d2: float
    p_stderr: np.ndarray
    d2_stderr: float
    n_samples: int


@dataclass(frozen=True)
class MomentModel:
    """Everything the analysis consumes, in one immutable bundle.

    Raw-coordinate quantities: ``r_kappa`` (autocorrelation of the kernelized
    input), ``p`` and ``d2`` (the cross statistics).

    Transformed quantities, with W the inverse Gram square root: ``r_tilde = W r_kappa W``
    and its ascending ``r_tilde_eigenvalues``, ``p_tilde = W p``, ``alpha_star_tilde =
    r_tilde^-1 p_tilde``, ``j_min = d2 - p_tilde' alpha_star_tilde``, and ``t_sym``, the
    symmetric PSD matrix of ``T(C) = W E[kappa kappa' (W C W) kappa kappa'] W`` in the
    coordinates of :func:`~kaflab.linalg.sym_basis`: ``t_sym = B S_o B'``, B that of ``C ->
    W C W``, ``S_o = diag(scale) S diag(scale)`` and S the :func:`fourth_tensor` block.
    """

    r_kappa: np.ndarray
    p: np.ndarray
    d2: float
    r_tilde: np.ndarray
    p_tilde: np.ndarray
    alpha_star_tilde: np.ndarray
    j_min: float
    t_sym: np.ndarray
    gram: GramFactor
    r_tilde_eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.r_kappa.shape[0]


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------


def _check_input_dim(centers: np.ndarray, im: InputModel) -> None:
    if centers.shape[1] != im.dim:
        raise DimensionMismatchError(
            f"centers have length {centers.shape[1]}, input model expects {im.dim}"
        )


def _moment_batch(
    sums: np.ndarray, sq_norms: np.ndarray, n_points: int, k: GaussianKernel, im: InputModel
) -> np.ndarray:
    """Closed-form moment for a batch of center tuples.

    ``sums[t]`` is the sum of the tuple's centers and ``sq_norms[t]`` the sum
    of their squared norms; ``n_points`` is the tuple length K. Each tuple's value
    is formed term by term in a fixed order, so its bits do not depend on the batch
    it is computed in (``einsum`` changes its order for a batch of one or two).
    """
    sig2 = k.sigma**2
    a_mat = np.eye(im.dim) + (n_points / sig2) * im.r_u
    det = np.linalg.det(a_mat)
    m = symmetrize(np.linalg.solve(a_mat, im.r_u))  # (I + 2 A R_u)^-1 R_u
    quad = sum(sums[:, s] * m[s, t] * sums[:, t] for s in range(im.dim) for t in range(im.dim))
    return det**-0.5 * np.exp(-sq_norms / (2.0 * sig2) + quad / (2.0 * sig2**2))


def multi_point_moment(centers, k: GaussianKernel, im: InputModel) -> float:
    """``E[prod_k kappa(u, c_k)]`` for ``u ~ N(0, R_u)`` over K >= 1 centers."""
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.shape[0] < 1:
        raise ValueError("at least one center is required")
    _check_input_dim(c, im)
    val = _moment_batch(
        c.sum(axis=0)[None, :],
        np.array([(c**2).sum()]),
        c.shape[0],
        k,
        im,
    )
    return float(val[0])


def second_moment(d: Dictionary, k: GaussianKernel, im: InputModel) -> np.ndarray:
    """Autocorrelation matrix of the kernelized input, entry (l, m) a two-point moment.

    Exactly symmetric by construction: each unordered pair is computed once and
    mirrored.
    """
    c = d.centers
    _check_input_dim(c, im)
    i, j, _ = sym_basis(d.size)
    vals = _moment_batch(c[i] + c[j], (c[i] ** 2).sum(axis=1) + (c[j] ** 2).sum(axis=1), 2, k, im)
    out = np.empty((d.size, d.size))
    out[i, j] = vals
    out[j, i] = vals
    return out


def fourth_tensor(d: Dictionary, k: GaussianKernel, im: InputModel) -> np.ndarray:
    """Fourth moments on symmetric pairs, ``S[a, b] = E[kappa_i kappa_j kappa_s kappa_t]``.

    a = (i, j) and b = (s, t) run over the m = r(r+1)/2 pairs of
    :func:`~kaflab.linalg.sym_basis`. Only the distinct index multisets are evaluated;
    each value is written to the multiset's three pairings in both orders, so S is
    exactly symmetric and equal on every pairing of a multiset.
    """
    c = d.centers
    _check_input_dim(c, im)
    r = d.size
    pi, pj, _ = sym_basis(r)
    # sorted multisets w <= x <= y <= z in lexicographic order: pairs (w, x), (y, z), x <= y
    first, second = np.nonzero(pj[:, None] <= pi[None, :])
    w, x, y, z = pi[first], pj[first], pi[second], pj[second]
    gathered = c[np.stack([w, x, y, z], axis=1)]  # (n_multisets, 4, L)
    vals = _moment_batch(gathered.sum(axis=1), (gathered**2).sum(axis=(1, 2)), 4, k, im)
    out = np.empty((pi.size, pi.size))
    for p, q in (((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))):
        a, b = sym_index(*p, r), sym_index(*q, r)
        out[a, b] = vals
        out[b, a] = vals
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo oracles for the closed forms
# ---------------------------------------------------------------------------


def _mc_kernel_chunks(d: Dictionary, k: GaussianKernel, im: InputModel, n_samples: int,
                      rng: np.random.Generator):
    """Kernel columns of ``n_samples`` draws of ``u ~ N(0, R_u)``, a block at a time."""
    chol = np.linalg.cholesky(im.r_u)
    for done in range(0, n_samples, MC_MOMENT_CHUNK):
        u = rng.standard_normal((min(MC_MOMENT_CHUNK, n_samples - done), im.dim)) @ chol.T
        yield kernelized_input(d, k, u)


def _mean_and_stderr(s1, s2, n: int):
    """Sample mean and its standard error from the sums of values and squares."""
    mean = s1 / n
    return mean, np.sqrt(np.maximum(s2 / n - mean**2, 0.0) / n)


def mc_second_moment(
    d: Dictionary,
    k: GaussianKernel,
    im: InputModel,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample estimate of the kernelized-input autocorrelation with standard errors."""
    s1 = np.zeros((d.size, d.size))
    s2 = np.zeros((d.size, d.size))
    for km in _mc_kernel_chunks(d, k, im, n_samples, rng):
        s1 += km.T @ km
        km2 = km**2
        s2 += km2.T @ km2
    return _mean_and_stderr(s1, s2, n_samples)


def mc_fourth_entries(
    d: Dictionary,
    k: GaussianKernel,
    im: InputModel,
    entries,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample estimates of selected fourth-tensor entries with standard errors.

    ``entries`` is a sequence of (i, j, s, t) index tuples. Each chunk's kernel
    values are copied once centers-major, so that the products run over
    contiguous rows; the products and sums are those of the columns, bit for bit.
    """
    entries = [tuple(int(a) for a in e) for e in entries]
    needed = sorted({a for e in entries for a in e})
    pos = {a: i for i, a in enumerate(needed)}
    s1 = np.zeros(len(entries))
    s2 = np.zeros(len(entries))
    for km in _mc_kernel_chunks(Dictionary(d.centers[needed]), k, im, n_samples, rng):
        kt = np.ascontiguousarray(km.T)
        del km
        for e_i, (i, j, s, t) in enumerate(entries):
            prod = kt[pos[i]] * kt[pos[j]] * kt[pos[s]] * kt[pos[t]]
            s1[e_i] += prod.sum()
            s2[e_i] += (prod**2).sum()
    return _mean_and_stderr(s1, s2, n_samples)


# ---------------------------------------------------------------------------
# Cross statistics: closed form where the plant has one, else a stream estimate
# ---------------------------------------------------------------------------


def has_closed_form(system) -> bool:
    """Whether ``system`` is a memoryless plant whose cross statistics are exact."""
    return (isinstance(system, sim.SystemSimulator)
            and system.kind in (sim.SystemKind.POLYNOMIAL, sim.SystemKind.NULL))


def exact_cross_stats(system, d: Dictionary, k: GaussianKernel,
                      im: InputModel) -> tuple[np.ndarray, float]:
    """Closed-form ``(p, E[d^2])`` of the polynomial and null plants for u ~ N(0, R_u).

    The polynomial plant is ``d = c1 x + c2 x^2 + c3 x^3 + nu`` with ``x = a'u``
    (:data:`kaflab.sim.POLYNOMIAL_TAPS` and ``POLYNOMIAL_COEFFS``). Weighting the input
    law by ``kappa_c`` gives u ~ N(mu_c, Sigma), ``Sigma = (R_u^-1 + I/sigma^2)^-1 = (I +
    R_u/sigma^2)^-1 R_u`` and ``mu_c = Sigma c / sigma^2``, so x ~ N(m, s^2) with ``m =
    a'mu_c``, ``s^2 = a'Sigma a``, and ``p_c = E[kappa_c] (c1 m + c2 (m^2 + s^2) + c3 (m^3
    + 3 m s^2))``. Unweighted, x ~ N(0, v) with ``v = a'R_u a`` and ``E[d^2] = c1^2 v + 3
    (c2^2 + 2 c1 c3) v^2 + 15 c3^2 v^3 + sigma_nu^2``. The null plant has p = 0.
    """
    noise = system.noise_sigma**2
    if system.kind is sim.SystemKind.NULL:
        return np.zeros(d.size), noise
    if system.kind is not sim.SystemKind.POLYNOMIAL:
        raise ValueError(f"no closed form for the {system.kind.value} plant")
    c = d.centers
    _check_input_dim(c, im)
    a, (c1, c2, c3) = np.array(sim.POLYNOMIAL_TAPS), sim.POLYNOMIAL_COEFFS
    sig2 = k.sigma**2
    cov = symmetrize(np.linalg.solve(np.eye(im.dim) + im.r_u / sig2, im.r_u))  # Sigma
    m = c @ cov @ a / sig2
    s2 = a @ cov @ a
    e_kappa = _moment_batch(c, (c**2).sum(axis=1), 1, k, im)
    p = e_kappa * (c1 * m + c2 * (m**2 + s2) + c3 * (m**3 + 3.0 * m * s2))
    v = a @ im.r_u @ a
    return p, float(c1**2 * v + 3.0 * (c2**2 + 2.0 * c1 * c3) * v**2 + 15.0 * c3**2 * v**3
                    + noise)


def estimate_cross_stats(
    system,
    input_gen,
    d: Dictionary,
    k: GaussianKernel,
    n_samples: int,
    seed: int,
    laps: sim.Laps | None = None,
) -> CrossStats:
    """``p = E[d_n kappa_n]`` and ``E[d_n^2]``: exact for a plant that has a closed form
    (:func:`has_closed_form`), with zero standard errors and ``n_samples`` 0, whatever
    ``n_samples`` and ``seed`` say and without a lap of ``laps``; otherwise
    :func:`stream_cross_stats` with the same arguments, which laps ``cross_stats_stream``
    and ``cross_stats_kernels``.
    """
    if not has_closed_form(system):
        return stream_cross_stats(system, input_gen, d, k, n_samples, seed, laps)
    im = InputModel(sim.stationary_covariance(input_gen.rho, input_gen.sigma_u))
    p, d2 = exact_cross_stats(system, d, k, im)
    return CrossStats(p=p, d2=d2, p_stderr=np.zeros(d.size), d2_stderr=0.0, n_samples=0)


def stream_cross_stats(
    system,
    input_gen,
    d: Dictionary,
    k: GaussianKernel,
    n_samples: int,
    seed: int,
    laps: sim.Laps | None = None,
) -> CrossStats:
    """Estimate ``p = E[d_n kappa_n]`` and ``E[d_n^2]`` from a stationary stream.

    ``system`` is a :class:`kaflab.sim.SystemSimulator` and ``input_gen`` a
    :class:`kaflab.sim.InputGenerator`. One stream, seeded from ``(seed,
    CROSS_STATS_SALT, 0)``, runs for ``CROSS_STATS_BURN_IN`` discarded samples and
    then ``n_samples`` kept ones, so ``(seed, n_samples)`` fully determines the
    output. It is drawn in blocks of ``CROSS_STATS_SUB_BLOCKS`` kernel sub-blocks, long
    enough for :func:`kaflab.recurrence.all_pole` to run its recurrences in segments. A
    sub-block holds the largest divisor of ``CROSS_STATS_CHUNK`` samples whose kernel
    values fit ``sim.MC_WORK_BYTES`` (4,000 at r = 31), so every chunk starts on the
    sub-blocks' grid. Each sub-block's kernel values are formed in one reused buffer,
    through one reused work array, with the sums so far in row 0: numpy sums over axis 0
    row by row, so the bits are those of one sum per ``CROSS_STATS_CHUNK`` samples, the
    chunks' sums added in turn, whatever the block and sub-block sizes. ``d_n`` alone is
    kept whole, squared in place for ``E[d_n^2]`` and again for ``E[d_n^4]``. It is kept
    scaled by the power of two that brings the first block's largest ``|d_n|`` into
    [0.5, 1), and the results are scaled back: exact, so the bits are those of the
    unscaled sums, and the squares and fourth powers of a small signal do not underflow.
    Besides ``d_n`` (8 bytes a sample), the memory is that of one block, its input,
    desired signal, drives and noise and the plant's temporaries (about 4 MB), a
    sub-block's kernel values and their squares (2 MB at r = 31) and the kernel work
    array (1 MB). ``laps``, if given, is lapped at ``cross_stats_stream`` for each stream
    block and at ``cross_stats_kernels`` for each sub-block, one per kernel evaluation.
    """
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be at least 10^4, got {n_samples}")
    laps = sim.Laps() if laps is None else laps
    sums = np.zeros((2, d.size))  # of d_n kappa_n and of its square
    dd = np.empty(n_samples)
    fit = min(CROSS_STATS_CHUNK, max(1, sim.MC_WORK_BYTES // (8 * d.size)))
    sub = next(s for s in range(fit, 0, -1) if CROSS_STATS_CHUNK % s == 0)
    buf, work = np.zeros((2, sub + 1, d.size)), np.empty(sub * d.size)
    blocks = sim.stream_blocks(input_gen, system, n_samples, [(seed, sim.CROSS_STATS_SALT, 0)],
                               warmup=CROSS_STATS_BURN_IN, block=CROSS_STATS_SUB_BLOCKS * sub)
    t0 = 0
    for u_vecs, d_blk in blocks:
        laps.lap("cross_stats_stream")
        if t0 == 0:  # d_n = 2^e dd_n
            e = math.frexp(max(d_blk.max(), -d_blk.min()))[1]
        end = t0 + len(d_blk)
        np.ldexp(d_blk[:, 0], -e, out=dd[t0:end])
        cuts = range((t0 // sub + 1) * sub, end, sub)  # the grid, every chunk start on it
        for a, b in zip([t0, *cuts], [*cuts, end]):
            if a % CROSS_STATS_CHUNK == 0:  # a chunk starts: add the last one's sums
                sums += buf[:, 0]
                buf[:, 0] = 0.0
            dk, dk2 = buf[:, :b - a + 1]
            kernelized_input(d, k, u_vecs[a - t0:b - t0, 0], out=dk[1:], work=work)
            np.multiply(dk[1:], dd[a:b, None], out=dk[1:])
            np.square(dk[1:], out=dk2[1:])
            buf[:, 0] = dk.sum(axis=0), dk2.sum(axis=0)  # row 0 carries the fold
            laps.lap("cross_stats_kernels")
        t0 = end
        del u_vecs, d_blk  # so that the next block is drawn in their place
    sums += buf[:, 0]
    p, p_stderr = _mean_and_stderr(*sums, n_samples)
    d2_sum = float(np.square(dd, out=dd).sum())  # dd now holds dd_n^2, and next dd_n^4
    d2, d2_stderr = _mean_and_stderr(d2_sum, float(np.square(dd, out=dd).sum()), n_samples)
    return CrossStats(p=np.ldexp(p, e), d2=math.ldexp(d2, 2 * e),
                      p_stderr=np.ldexp(p_stderr, e), d2_stderr=math.ldexp(d2_stderr, 2 * e),
                      n_samples=n_samples)


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def build_model(
    d: Dictionary,
    k: GaussianKernel,
    im: InputModel,
    p: np.ndarray,
    d2: float,
    d2_stderr: float | None = None,
) -> MomentModel:
    """Assemble the full moment model from a dictionary, kernel and input law.

    Computes the closed-form second and fourth moments and applies the inverse
    Gram square-root transform, to the fourth moments as two m x m products.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size != d.size:
        raise DimensionMismatchError(f"p has length {p.size}, dictionary size is {d.size}")
    gf = gram(d, k)
    r_kappa = second_moment(d, k, im)
    w = gf.g_inv_sqrt
    r_tilde = symmetrize(w @ r_kappa @ w)
    eig = sym_eig(r_tilde).eigenvalues
    if eig[0] <= 0:
        raise NotPositiveDefiniteError(
            f"transformed autocorrelation is not positive definite "
            f"(smallest eigenvalue {eig[0]:.6e})",
            smallest_eigenvalue=float(eig[0]),
        )
    p_tilde = w @ p
    alpha_star_tilde = np.linalg.solve(r_tilde, p_tilde)
    j_min = float(d2 - p_tilde @ alpha_star_tilde)
    threshold = 3.0 * d2_stderr if d2_stderr is not None else 0.0
    if j_min < -threshold:
        warnings.warn(
            f"minimum MSE estimate is negative ({j_min:.6e}); the cross "
            f"statistics are likely too noisy for this configuration",
            stacklevel=2,
        )
    scale = sym_basis(d.size)[2]
    s_o = fourth_tensor(d, k, im)
    s_o *= scale[:, None]
    s_o *= scale
    b = sym_congruence(w)
    t_sym = symmetrize(b @ s_o @ b.T)
    return MomentModel(
        r_kappa=r_kappa,
        p=p,
        d2=float(d2),
        r_tilde=r_tilde,
        p_tilde=p_tilde,
        alpha_star_tilde=alpha_star_tilde,
        j_min=j_min,
        t_sym=t_sym,
        gram=gf,
        r_tilde_eigenvalues=eig,
    )


# ---------------------------------------------------------------------------
# Cross-statistics record: the analyze cache holds only the cross statistics
# ---------------------------------------------------------------------------

CROSS_STATS_FORMAT_VERSION = 3
_RECORD_FORMAT = f"kaflab-cross-stats-v{CROSS_STATS_FORMAT_VERSION}"


def save_moment_model(stats: CrossStats, path) -> None:
    """Write ``stats`` as JSON through :func:`kaflab.sim.write_atomic`.

    JSON writes each double as its shortest round-tripping decimal, so
    :func:`load_moment_model` reads the values back bit for bit.
    """
    record = {key: np.asarray(val).tolist() for key, val in vars(stats).items()}
    sim.write_atomic(path, [json.dumps({"format": _RECORD_FORMAT, **record})])


def load_moment_model(path, r: int) -> CrossStats:
    """Read a record written by :func:`save_moment_model` for ``r`` centers.

    ``OSError`` if the file cannot be read, ``ValueError`` if it is not such a
    record: truncated, foreign, of another version or of another length.
    """
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    try:
        p, p_stderr = (np.array(rec[key], dtype=float) for key in ("p", "p_stderr"))
        if rec["format"] != _RECORD_FORMAT or p.shape != (r,) or p_stderr.shape != (r,):
            raise ValueError(f"format {rec['format']!r}, shapes {p.shape}, {p_stderr.shape}")
        return CrossStats(p, float(rec["d2"]), p_stderr, float(rec["d2_stderr"]),
                          int(rec["n_samples"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is no cross-statistics record for {r} centers: {exc}") from exc
