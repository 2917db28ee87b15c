"""Shared fixtures: moment models built once per session.

The toy model (2x2 grid, r = 4) keeps analysis unit tests fast; the full
experiment models are session-scoped because the cross statistics and the
fourth moments are the expensive pieces. The test oracles live here too: the
scalar kernel value and the inputs-major kernel values, the Gram factorization
from the (r, r, L) pairwise differences, the Kronecker product,
the lexicographic vectorization, the full r^4 fourth-moment tensors expanded
from the library's block on symmetric pairs, the step-by-step transient and mean
recursions, a filter state's output, the symmetric block of K gathered entry by
entry, the fourth-moment block by its index multisets and the rounding allowed between
it and the library's split form, the pair index of a symmetric coordinate, the
whole-array forms of the congruence matrix, the product B S Bᵀ and K that the library
now forms in blocks or in place, the seeded
streams drawn whole, and the stream estimate of the cross
statistics that the library computes exactly. The library itself never builds an
r^4 array or a whole Monte-Carlo stream. The memory guards measure a fresh
interpreter with :func:`peak_growth_mb`.
"""

import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaflab
from kaflab.config import build_dictionary, load_config
from kaflab.errors import DimensionMismatchError, DivergenceError, NotPositiveDefiniteError
from kaflab.kernel import Dictionary, GaussianKernel, gram, grid_dictionary, kernelized_input
from kaflab.linalg import check_square, pd_sqrt, sym_basis, symmetrize
from kaflab.moments import (InputModel, _moment_batch, build_model, estimate_cross_stats,
                             exact_cross_stats, fourth_tensor)
from kaflab.sim import (InputGenerator, SystemKind, SystemSimulator, all_pole, embed_input,
                        stationary_covariance)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Master seeds of the shipped experiment recipes (see configs/).
EXP1_SEED = 20260809
EXP2_SEED = 20260810

# Kernel width of the toy model.
TOY_SIGMA = 0.7

# The stream of one_block_cross_stats: its seed salt, the samples discarded from its
# head so that the AR(1) input and the fluid-flow plant are stationary, and the
# samples per kernel block, whose sums are added in turn.
CROSS_STATS_SALT = 2
CROSS_STATS_BURN_IN = 1000
CROSS_STATS_CHUNK = 100_000


def toy_dictionary():
    """2x2 grid (r = 4) of the toy model."""
    return grid_dictionary([-1, -1], [1, 1], 2)


def input_model():
    """Input law shared by every fixture model: AR(1), rho = 0.5, sigma_u = 0.5."""
    return InputModel(stationary_covariance(0.5, 0.5))


def kappa(x, y, k) -> float:
    """Kernel value ``exp(-||x - y||^2 / (2 sigma^2))`` between two input vectors of equal
    length: the scalar reference for ``kaflab.kernel.kernelized_input``."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionMismatchError(f"input lengths differ: {x.size} vs {y.size}")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * k.sigma**2)))


def kernel_values_inputs_major(d, k, u) -> np.ndarray:
    """Kernel values between ``u`` (..., L) and the centers, formed inputs-major in the
    (..., r) layout, as ``kaflab.kernel.kernelized_input`` formed them before it went
    centers-major: the squared distances summed one input axis at a time, divided by
    ``-(2 sigma^2)``, exponentiated. The bit-for-bit reference for its layout."""
    u = np.asarray(u, dtype=float)
    c = d.centers
    d2 = np.square(c[:, 0] - u[..., 0, None])
    for a in range(1, d.input_dim):
        d2 += np.square(c[:, a] - u[..., a, None])
    return np.exp(d2 / -(2.0 * k.sigma**2))


def gram_from_differences(d, k):
    """``(g, g_sqrt, g_inv_sqrt, g_inv)`` of a dictionary, or None where ``pd_sqrt``
    refuses G, and the squared distances between its centers, as ``kaflab.kernel.gram``
    formed them from the (r, r, L) array of pairwise differences, with G's diagonal set
    to 1 and G symmetrized. The bit-for-bit reference for ``gram``, which takes G and
    the distances from ``kernelized_input``."""
    diff2 = ((d.centers[:, None, :] - d.centers[None, :, :]) ** 2).sum(axis=-1)
    g = np.exp(-diff2 / (2.0 * k.sigma**2))
    np.fill_diagonal(g, 1.0)
    g = symmetrize(g)
    try:
        g_sqrt, g_inv_sqrt, _ = pd_sqrt(g)
    except NotPositiveDefiniteError:
        return None, diff2
    return (g, g_sqrt, g_inv_sqrt, symmetrize(g_inv_sqrt @ g_inv_sqrt)), diff2


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    centers=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=6),
    sigma=st.floats(0.4, 2.0),
    rho=st.floats(0.0, 0.8),
    sigma_u=st.floats(0.2, 1.0),
    noise_sigma=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
    kind=st.sampled_from([SystemKind.POLYNOMIAL, SystemKind.NULL]),
    seed=st.integers(0, 2**32 - 1),
)
def check_cross_stats_against_closed_form(centers, sigma, rho, sigma_u, noise_sigma, kind,
                                          seed):
    """:func:`one_block_cross_stats` at 10^4 samples against ``exact_cross_stats`` on a
    random small dictionary (r <= 6), kernel width, input law and noise level.

    The bound, fixed in advance, is 4 standard errors widened by sqrt((1 + rho) / (1 -
    rho)) for the correlated AR(1) samples. The domain keeps the centers within about
    five input deviations and the kernel no narrower than 0.4, where the weights of
    ``d kappa`` are not so rare that 10^4 samples misjudge their standard error: 500
    random cases there read at most 0.62 of the bound. A nonzero noise level is at
    least 0.01: below about 1e-154 the squares behind the standard errors underflow to
    0. A property of the acceptance suite's criterion 9, which times it.
    """
    d, k = Dictionary(np.array(centers)), GaussianKernel(sigma)
    system = SystemSimulator(kind=kind, noise_sigma=noise_sigma)
    est, p_stderr, est_d2, d2_stderr = one_block_cross_stats(
        system, InputGenerator(rho=rho, sigma_u=sigma_u), d, k, 10_000, seed)
    p, d2 = exact_cross_stats(system, d, k, InputModel(stationary_covariance(rho, sigma_u)))
    bound = 4.0 * np.sqrt((1.0 + rho) / (1.0 - rho))
    assert (np.abs(est - p) <= bound * p_stderr).all()
    assert abs(est_d2 - d2) <= bound * d2_stderr


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec_lex(c: np.ndarray) -> np.ndarray:
    """Stack the columns of a square matrix into one vector (top to bottom)."""
    c = check_square(c, "vec_lex input")
    return c.flatten(order="F")


def unvec_lex(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec_lex`: rebuild the ``dim x dim`` matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != dim * dim:
        raise DimensionMismatchError(
            f"cannot reshape a length-{v.size} vector into a {dim}x{dim} matrix"
        )
    return v.reshape((dim, dim), order="F")


def sym_index(i, j, dim: int):
    """Position of the pair ``(i, j)``, in either order, among the coordinates of
    ``kaflab.linalg.sym_basis``; works elementwise on index arrays."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return lo * (2 * dim - lo + 1) // 2 + hi - lo


def expand_pairs(block: np.ndarray, dim: int) -> np.ndarray:
    """The r^4 tensor ``X[i, j, s, t] = block[pair(i, j), pair(s, t)]`` of an m x m
    block indexed by the pairs of ``sym_basis``."""
    pair = sym_index(*np.indices((dim, dim)), dim)
    return block[pair[:, :, None, None], pair[None, None, :, :]]


def fourth_tensor_whole(d, k, im) -> np.ndarray:
    """The m x m fourth-moment block as ``kaflab.moments.fourth_tensor`` formed it before
    it split each entry over pair sums: every sorted multiset w <= x <= y <= z found,
    gathered (n_multisets, 4, L) and evaluated at once, then written to its three pairings
    in both orders, so exactly equal on every pairing. The bit-for-bit reference for
    ``kaflab moments-check``'s closed fourth moments, and the reference within rounding
    (:func:`fourth_tensor_tolerance`) for the split form."""
    c, r = d.centers, d.size
    pi, pj, _ = sym_basis(r)
    first, second = np.nonzero(pj[:, None] <= pi[None, :])
    w, x, y, z = pi[first], pj[first], pi[second], pj[second]
    gathered = c[np.stack([w, x, y, z], axis=1)]
    vals = _moment_batch(gathered.sum(axis=1), (gathered**2).sum(axis=(1, 2)), 4, k, im)
    out = np.empty((pi.size, pi.size))
    for p, q in (((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))):
        a, b = sym_index(*p, r), sym_index(*q, r)
        out[a, b] = vals
        out[b, a] = vals
    return out


def fourth_tensor_tolerance(d, k) -> np.ndarray:
    """``16 eps (1 + T)`` per entry of the m x m block, T the four centers' summed squared
    norms over 2 sigma^2: the relative rounding allowed between two forms of one fourth
    moment, whose exponents each carry a few ulps of T. On the shipped configs and 300 laws
    like ``test_spectral``'s, the split form reads at most 2.6 eps (1 + T) from
    :func:`fourth_tensor_whole`, and its pairings at most 2.3 from each other."""
    pi, pj, _ = sym_basis(d.size)
    sq = (d.centers**2).sum(axis=1)
    return 16.0 * np.finfo(float).eps * (1.0 + np.add.outer(sq[pi] + sq[pj], sq[pi] + sq[pj])
                                         / (2.0 * k.sigma**2))


def sym_congruence_whole(a, b=None) -> np.ndarray:
    """``kaflab.linalg.sym_congruence`` as it was formed before it went a block of rows
    at a time: whole m x m ``np.ix_`` gathers and one outer product of the scales. The
    bit-for-bit reference for the blocked form."""
    b = a if b is None else b
    i, j, scale = sym_basis(a.shape[0])
    out = a[np.ix_(i, i)] * b[np.ix_(j, j)] + a[np.ix_(i, j)] * b[np.ix_(j, i)]
    out += out if b is a else b[np.ix_(i, i)] * a[np.ix_(j, j)] + b[np.ix_(i, j)] * a[np.ix_(j, i)]
    out *= np.outer(scale, scale / 4.0)
    return out


def t_sym_whole(d, k, im) -> np.ndarray:
    """A model's ``t_sym`` as ``kaflab.moments.build_model`` formed it before it formed
    the product in place: ``symmetrize(b @ s_o @ b.T)`` over whole-array temporaries, from
    ``kaflab.moments.fourth_tensor`` and :func:`sym_congruence_whole`."""
    scale = sym_basis(d.size)[2]
    s_o = fourth_tensor(d, k, im)
    s_o *= scale[:, None]
    s_o *= scale
    b = sym_congruence_whole(gram(d, k).g_inv_sqrt)
    return symmetrize(b @ s_o @ b.T)


def k_sym_whole(m, eta) -> np.ndarray:
    """The symmetric block of K as ``kaflab.analysis.build_k`` formed it before it formed
    it in place: one expression over whole-array temporaries."""
    lin = sym_congruence_whole(m.r_tilde, np.eye(m.dim))
    return symmetrize(np.eye(lin.shape[0]) - eta * (2.0 * lin) + eta**2 * m.t_sym)


def full_fourth_tensor(d, k, im) -> np.ndarray:
    """``S[i, j, s, t] = E[kappa_i kappa_j kappa_s kappa_t]`` over all r^4 index tuples."""
    return expand_pairs(fourth_tensor(d, k, im), d.size)


def s_tilde(m) -> np.ndarray:
    """The transformed fourth moments ``s_tilde[l, m, p, q] = sum W_la W_mb W_pc W_qd
    S[a, b, c, d]`` of a model, read back from its ``t_sym``."""
    scale = sym_basis(m.dim)[2]
    return expand_pairs(m.t_sym / np.outer(scale, scale), m.dim)


def t_sym_of(s_tilde_full: np.ndarray) -> np.ndarray:
    """The ``t_sym`` of a model whose transformed fourth moments are ``s_tilde_full``."""
    i, j, scale = sym_basis(s_tilde_full.shape[0])
    i, j, p, q = i[:, None], j[:, None], i[None, :], j[None, :]
    return np.outer(scale, scale) * s_tilde_full[i, j, p, q]


@dataclass(frozen=True)
class TransientState:
    """One step of the transient recursion.

    ``mse`` always equals ``j_min + trace(r_tilde @ c_tilde)`` for the model
    that produced it; ``c_tilde`` is kept exactly symmetric.
    """

    c_tilde: np.ndarray
    n: int
    mse: float


def transient_states(m, eta, n_steps):
    """Yield the states of the step-by-step recursion at iterations 0..n_steps.

    Starts from zero coefficients (C is the outer product of the optimal
    transformed weights, so the MSE starts at the signal power) and
    re-symmetrizes C after each step, with ``T(C)[l, m] = trace(s_tilde[l, m] C)``.
    The reference for ``kaflab.analysis.transient_mse``.
    """
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    r_t, s_t = m.r_tilde, s_tilde(m)
    c = np.outer(m.alpha_star_tilde, m.alpha_star_tilde)
    yield TransientState(c_tilde=c, n=0, mse=m.j_min + np.trace(r_t @ c))
    for n in range(1, n_steps + 1):
        t = np.tensordot(s_t, c, axes=([3, 2], [0, 1]))
        c = c + eta**2 * (t + m.j_min * r_t) - eta * (r_t @ c + c @ r_t)
        c = symmetrize(c)
        val = m.j_min + np.trace(r_t @ c)
        if not np.isfinite(val):
            raise DivergenceError(f"transient recursion produced a non-finite MSE at step {n}",
                                  last_finite_step=n - 1)
        yield TransientState(c_tilde=c, n=n, mse=val)


def mean_recursion(m, eta, v0, n_steps) -> np.ndarray:
    """Trajectory of the mean weight error, ``v_{n+1} = (I - eta r_tilde) v_n``.

    Returns an ``(n_steps + 1, r)`` array whose first row is ``v0``. The oracle for the
    step-size bound ``kaflab.analysis.mean_stability_bound``.
    """
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    v0 = np.asarray(v0, dtype=float).ravel()
    a = np.eye(m.dim) - eta * m.r_tilde
    out = np.empty((n_steps + 1, m.dim))
    out[0] = v0
    for i in range(n_steps):
        out[i + 1] = a @ out[i]
    return out


def predict(s, k, u) -> float:
    """Output ``<alpha, kappa(u)>`` of a ``kaflab.filters.FilterState`` at input ``u``."""
    return float(np.vecdot(s.alpha, kernelized_input(s.dictionary, k, u)))


class LexK(NamedTuple):
    """Lexicographic transition matrix ``k = I - eta (k1 + k2) + eta^2 k3``."""

    k: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray


def lex_k(m, eta):
    """The r^2 x r^2 transition matrix in the Kronecker form of Parreira,
    Bermudez, Richard and Tourneret (IEEE TSP 2012): ``k1 = I (x) r_tilde``,
    ``k2 = r_tilde (x) I`` and ``k3[l + m r, p + q r] = s_tilde[l, m, p, q]``, s_tilde
    from :func:`s_tilde`.

    The oracle that the symmetric-block engine of ``kaflab.analysis`` is
    checked against; the library itself never builds it.
    """
    r = m.dim
    k1 = kron(np.eye(r), m.r_tilde)
    k2 = kron(m.r_tilde, np.eye(r))
    k3 = s_tilde(m).transpose(1, 0, 3, 2).reshape(r * r, r * r)
    return LexK(np.eye(r * r) - eta * (k1 + k2) + eta**2 * k3, k1, k2, k3)


def gathered_k_sym(m, eta):
    """The symmetric block of K with its linear part ``r_tilde C + C r_tilde`` gathered
    entry by entry: for a = (i, j) and b = (p, q), ``r_tilde[j, p] I[q, i] + r_tilde[j, q]
    I[p, i] + r_tilde[i, p] I[q, j] + r_tilde[i, q] I[p, j]``, scaled by ``scale_a scale_b /
    2``. The reference whose bits ``kaflab.analysis.build_k`` keeps while forming that part
    with ``kaflab.linalg.sym_congruence``.
    """
    r = m.dim
    i, j, scale = sym_basis(r)
    i, j, p, q = i[:, None], j[:, None], i[None, :], j[None, :]
    r_t, eye = m.r_tilde, np.eye(r)
    lin = (r_t[j, p] * eye[q, i] + r_t[j, q] * eye[p, i]
           + r_t[i, p] * eye[q, j] + r_t[i, q] * eye[p, j])
    outer = np.outer(scale, scale)
    return symmetrize(np.eye(scale.size) - eta * (outer / 2 * lin) + eta**2 * m.t_sym)


def whole_stream(input_gen, system, n, seeds, warmup=None):
    """The streams of ``seeds``, time-major (n, m, 2) and (n, m), drawn whole.

    Each seed's drives (``u_0 ~ N(0, sigma_u^2)``, then the scaled innovations)
    and noise come from one draw each, the AR(1) input and the plant run over
    the whole stream from rest, and the ``warmup`` leading pairs (default: the
    plant's own requirement) are dropped. The reference for the block generator
    ``kaflab.sim.stream_blocks``.
    """
    if warmup is None:
        warmup = system.warmup_samples
    total = n + warmup
    drives = np.empty((total + 1, len(seeds)))
    noise = np.zeros((total, len(seeds)))
    for j, entropy in enumerate(seeds):
        ss = np.random.SeedSequence(entropy=entropy)
        rng_input, rng_noise = (np.random.default_rng(s) for s in ss.spawn(2))
        drives[0, j] = rng_input.normal(0.0, input_gen.sigma_u)
        drives[1:, j] = (input_gen.sigma_u * np.sqrt(1.0 - input_gen.rho**2)
                         * rng_input.standard_normal(total))
        if system.noise_sigma > 0:
            noise[:, j] = rng_noise.normal(0.0, system.noise_sigma, total)
    u = all_pole(drives, -input_gen.rho)
    d = system.respond(u, noise)
    return embed_input(u)[warmup:], d[warmup:]


def one_block_cross_stats(system, gen, d, k, n_samples, seed):
    """``(p, p_stderr, d2, d2_stderr)`` estimated from one stationary stream of ``n_samples``,
    seeded from ``(seed, CROSS_STATS_SALT, 0)`` after ``CROSS_STATS_BURN_IN`` discarded
    samples: one kernel block per ``CROSS_STATS_CHUNK`` samples, the blocks' column sums
    added in turn, and standard errors that treat the samples as independent. The bits of
    the stream estimator that ``analyze`` used before the cross statistics were exact."""
    u, dd = whole_stream(gen, system, n_samples, [(seed, CROSS_STATS_SALT, 0)],
                         warmup=CROSS_STATS_BURN_IN)
    s_dk, s_dk2 = np.zeros(d.size), np.zeros(d.size)
    for i in range(0, n_samples, CROSS_STATS_CHUNK):
        dk = kernelized_input(d, k, u[i:i + CROSS_STATS_CHUNK, 0]) * dd[i:i + CROSS_STATS_CHUNK]
        s_dk += dk.sum(axis=0)
        s_dk2 += np.square(dk).sum(axis=0)
    p = s_dk / n_samples
    d2 = float((dd**2).sum()) / n_samples
    d4 = float(np.square(np.square(dd)).sum())  # as the estimator formed it, in place
    return (p, np.sqrt(np.maximum(s_dk2 / n_samples - p**2, 0.0) / n_samples), d2,
            float(np.sqrt(max(d4 / n_samples - d2**2, 0.0) / n_samples)))


def peak_growth_mb(setup: str, measured: str) -> float:
    """MB by which running ``measured`` after ``setup`` raises the peak resident set of
    a fresh interpreter that imports this checkout's kaflab.

    The peak is read as VmHWM from ``/proc/self/status`` (Linux only), which starts
    afresh at exec. ``ru_maxrss`` would not do: a child's starts at the peak of the
    process that spawned it, so a large test process would hide the growth.
    """
    script = "\n".join([
        "import re",
        "def peak_kb():",
        "    with open('/proc/self/status', encoding='ascii') as f:",
        "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1))",
        textwrap.dedent(setup),
        "before = peak_kb()",
        textwrap.dedent(measured),
        "print(peak_kb() - before)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=kaflab_env())
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


def kaflab_env(**variables) -> dict:
    """This process's environment with ``variables``, for a fresh interpreter that imports
    this checkout's kaflab."""
    src = str(Path(kaflab.__file__).resolve().parents[1])
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def model_for(dictionary, sigma, system_kind, sigma_nu):
    kern = GaussianKernel(sigma)
    im = input_model()
    system = SystemSimulator(kind=system_kind, noise_sigma=sigma_nu)
    stats = estimate_cross_stats(system, im, dictionary, kern)
    model = build_model(dictionary, kern, im, stats.p, stats.d2)
    return model, stats


@pytest.fixture(scope="session")
def toy_model():
    """Small (r = 4), fast-mixing model of the polynomial plant."""
    model, _ = model_for(toy_dictionary(), TOY_SIGMA, SystemKind.POLYNOMIAL, 0.05)
    return model


@pytest.fixture(scope="session")
def exp1_model():
    """Full first-experiment model (5x5 grid, r = 25)."""
    d = grid_dictionary([-1, -1], [1, 1], 5)
    model, stats = model_for(d, 0.7, SystemKind.POLYNOMIAL, 0.05)
    return model, stats, d


@pytest.fixture(scope="session")
def exp2_dictionary():
    """Coherence-selected dictionary of the second experiment (r = 31)."""
    cfg = load_config(CONFIGS / "experiment2.cfg")
    d, info = build_dictionary(cfg)
    return d, info, cfg


@pytest.fixture(scope="session")
def exp2_model(exp2_dictionary):
    d, info, cfg = exp2_dictionary
    model, stats = model_for(d, cfg.sigma, SystemKind.FLUID_FLOW, cfg.sigma_nu)
    return model, stats, d
