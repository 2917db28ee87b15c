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
``E[d_n^2]`` are exact for every plant (:func:`exact_cross_stats`): each plant's
nonlinearity acts on a scalar jointly Gaussian with the embedded input, which
weighting the input law by one kernel value leaves Gaussian.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg, sim
from .errors import DimensionMismatchError, NotPositiveDefiniteError
from .kernel import Dictionary, GaussianKernel, GramFactor, gram, kernelized_input
from .linalg import sym_basis, sym_congruence, sym_eig, sym_index, symmetrize

MC_MOMENT_CHUNK = 200_000  # draws per block of the Monte-Carlo moment oracles

# The trapezoid rule of _saturation_mean, over [-QUADRATURE_SPAN, QUADRATURE_SPAN] at steps
# of QUADRATURE_STEP: halving the step moves p and E[d^2] by under 1e-12 relative, whatever
# the input's scale (3e-16 on experiment 2, rounding alone).
QUADRATURE_STEP = 0.1
QUADRATURE_SPAN = 40.0


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
    """The exact cross statistics ``p = E[d_n kappa_n]`` and ``d2 = E[d_n^2]``."""

    p: np.ndarray
    d2: float


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
    val = _moment_batch(c.sum(axis=0)[None, :], np.array([(c**2).sum()]), c.shape[0], k, im)
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
    exactly symmetric and equal on every pairing of a multiset. The multisets go in blocks of
    leading pairs, each gather within :data:`~kaflab.linalg.WORK_BYTES`: same bits in any.
    """
    c = d.centers
    _check_input_dim(c, im)
    r = d.size
    pi, pj, _ = sym_basis(r)
    out = np.empty((pi.size, pi.size))
    rows = linalg.rows_within(8 * 4 * c.shape[1] * pi.size)
    for lo in range(0, pi.size, rows):
        # sorted multisets w <= x <= y <= z: leading pairs (w, x) of this block, (y, z), x <= y
        first, second = np.nonzero(pj[lo:lo + rows, None] <= pi[None, :])
        first += lo
        w, x, y, z = pi[first], pj[first], pi[second], pj[second]
        gathered = c[np.stack([w, x, y, z], axis=1)]  # (n_multisets, 4, L)
        vals = _moment_batch(gathered.sum(axis=1), (gathered**2).sum(axis=(1, 2)), 4, k, im)
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
    """Kernel values (n, r) of ``n_samples`` draws of ``u ~ N(0, R_u)``, ``MC_MOMENT_CHUNK``
    draws at a time, each in the leading rows of one array that the next overwrites. Each is
    filled a block of draws at a time, through one work array of r doubles a draw within
    :data:`~kaflab.linalg.WORK_BYTES`: the same bits as the whole chunk at once
    (:func:`~kaflab.kernel.kernelized_input`)."""
    chol, rows = np.linalg.cholesky(im.r_u), linalg.rows_within(8 * d.size)
    work = np.empty((d.size, rows))
    chunk = np.empty((min(MC_MOMENT_CHUNK, n_samples), d.size))
    for done in range(0, n_samples, MC_MOMENT_CHUNK):
        u = rng.standard_normal((min(MC_MOMENT_CHUNK, n_samples - done), im.dim)) @ chol.T
        km = chunk[:len(u)]
        for lo in range(0, len(u), rows):
            kernelized_input(d, k, u[lo:lo + rows], out=km[lo:lo + rows], work=work)
        yield km


def _mean_and_stderr(s1, s2, n: int):
    """Sample mean and its standard error from the sums of values and squares."""
    mean = s1 / n
    return mean, np.sqrt(np.maximum(s2 / n - mean**2, 0.0) / n)


def mc_second_moment(d: Dictionary, k: GaussianKernel, im: InputModel, n_samples: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample estimate of the kernelized-input autocorrelation with standard errors."""
    s1 = np.zeros((d.size, d.size))
    s2 = np.zeros((d.size, d.size))
    for km in _mc_kernel_chunks(d, k, im, n_samples, rng):
        s1 += km.T @ km
        np.square(km, out=km)  # in place: the chunk's squares need no second array
        s2 += km.T @ km
    return _mean_and_stderr(s1, s2, n_samples)


def mc_fourth_entries(d: Dictionary, k: GaussianKernel, im: InputModel, entries, n_samples: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
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
        for e_i, (i, j, s, t) in enumerate(entries):
            prod = kt[pos[i]] * kt[pos[j]] * kt[pos[s]] * kt[pos[t]]
            s1[e_i] += prod.sum()
            s2[e_i] += (prod**2).sum()
    return _mean_and_stderr(s1, s2, n_samples)


# ---------------------------------------------------------------------------
# Cross statistics
# ---------------------------------------------------------------------------


def fluid_flow_covariance(r_u: np.ndarray) -> np.ndarray:
    """Stationary covariance P of the fluid-flow plant's state ``(u_n, u_{n-1}, y_n, y_{n-1})``
    for the AR(1) input ``u_n = rho u_{n-1} + e_n`` whose embedding has covariance ``r_u``
    (``rho = r_u[1, 0] / r_u[0, 0]``). With ``y_n = a0 u_n + a1 u_{n-1} - p1 y_{n-1} - p2
    y_{n-2}`` (:data:`kaflab.sim.FLUID_FLOW_TAPS`, ``FLUID_FLOW_POLES``) the state steps as
    ``s_n = A s_{n-1} + b e_n``, so P solves the discrete Lyapunov equation ``P = A P A' +
    E[e_n^2] b b'``: the 16 x 16 system ``(I - A (x) A) vec P = vec(E[e_n^2] b b')``."""
    (a0, a1), (p1, p2) = sim.FLUID_FLOW_TAPS, sim.FLUID_FLOW_POLES
    rho = r_u[1, 0] / r_u[0, 0]
    a = np.array([[rho, 0, 0, 0], [1, 0, 0, 0], [a0 * rho + a1, 0, -p1, -p2], [0, 0, 1, 0]])
    b = np.array([1.0, 0.0, a0, 0.0])
    q = (r_u[0, 0] - rho * r_u[1, 0]) * np.outer(b, b)
    return symmetrize(np.linalg.solve(np.eye(16) - np.kron(a, a), q.ravel()).reshape(4, 4))


def _saturation_mean(power: int, m, s: float):
    """``E[f(Y)^power]``, power 1 or 2, for ``Y ~ N(m, s^2)`` and each of the means ``m``, f the
    fluid-flow plant's saturation ``g y / sqrt(s0 + s1 y^2)``, which is ``C y / sqrt(a^2 + y^2)``.

    With ``C^2 = g^2 / s1``, ``a^2 = s0 / s1`` and L = 1 + 2 s^2 w^2, ``1 / sqrt(a^2 + y^2)`` and
    ``y^2 / (a^2 + y^2)`` are integrals over w > 0 of ``exp(-(a^2 + y^2) w^2)``, whose Gaussian
    expectations ``E[Y e^(-w^2 Y^2)] = m L^(-3/2) e^(-w^2 m^2 / L)`` and ``E[Y^2 e^(-w^2 Y^2)] =
    (s^2 / L + m^2 / L^2) L^(-1/2) e^(-w^2 m^2 / L)`` are closed. In ``t = log(w R)``, ``R =
    sqrt(a^2 + m^2 + s^2)``, both integrands decay at least as ``e^-|t|`` and are analytic for
    ``|Im t| < pi / 4``, whatever a, m and s, so the trapezoid rule converges exponentially in
    the step (Trefethen and Weideman, SIAM Review 2014). A rule in y at a fixed step in standard
    deviations loses accuracy once s exceeds a, the branch points' distance from the real axis
    (1e-3 at sigma_u = 5).
    """
    g, (s0, s1) = sim.FLUID_FLOW_GAIN, sim.FLUID_FLOW_SATURATION
    a2 = s0 / s1
    m = np.asarray(m, dtype=float)[..., None]
    n = round(2.0 * QUADRATURE_SPAN / QUADRATURE_STEP)
    w = np.exp(np.linspace(-QUADRATURE_SPAN, QUADRATURE_SPAN, n + 1)) / np.hypot(
        np.hypot(math.sqrt(a2), m), s)
    sw2, mw2 = (s * w) ** 2, (m * w) ** 2
    lam = 1.0 + 2.0 * sw2
    common = np.exp(-a2 * w * w - mw2 / lam) / np.sqrt(lam)  # dw = w dt below
    vals = (g / math.sqrt(s1) * (2.0 / math.sqrt(math.pi)) * m * w * common / lam if power == 1
            else g * g / s1 * 2.0 * common * (sw2 / lam + mw2 / lam**2))
    return QUADRATURE_STEP * vals.sum(axis=-1)


def exact_cross_stats(system, d: Dictionary, k: GaussianKernel,
                      im: InputModel) -> tuple[np.ndarray, float]:
    """Closed-form ``(p, E[d^2])`` of a :class:`kaflab.sim.SystemSimulator` for u ~ N(0, R_u),
    R_u the embedded AR(1) input's covariance.

    The polynomial plant is ``d = c1 x + c2 x^2 + c3 x^3 + nu`` with ``x = a'u``
    (:data:`kaflab.sim.POLYNOMIAL_TAPS` and ``POLYNOMIAL_COEFFS``). Weighting the input
    law by ``kappa_c`` gives u ~ N(mu_c, Sigma), ``Sigma = (R_u^-1 + I/sigma^2)^-1 = (I +
    R_u/sigma^2)^-1 R_u`` and ``mu_c = Sigma c / sigma^2``, so x ~ N(m, s^2) with ``m =
    a'mu_c``, ``s^2 = a'Sigma a``, and ``p_c = E[kappa_c] (c1 m + c2 (m^2 + s^2) + c3 (m^3
    + 3 m s^2))``. Unweighted, x ~ N(0, v) with ``v = a'R_u a`` and ``E[d^2] = c1^2 v + 3
    (c2^2 + 2 c1 c3) v^2 + 15 c3^2 v^3 + sigma_nu^2``. The null plant has p = 0.

    The fluid-flow plant is ``d = f(y) + nu``, y a linear filter's output, so ``(u, y)`` is
    jointly Gaussian (:func:`fluid_flow_covariance`): ``y = a'u + e``, ``a = R_u^-1 E[u y]``,
    e independent of u with variance ``t^2 = E[y^2] - a'E[u y]``, which the kernel weight
    leaves as it is. So y ~ N(m, s^2 + t^2), ``p_c = E[kappa_c] E[f(y)]`` and ``E[d^2] =
    E[f(y)^2] + sigma_nu^2`` with y ~ N(0, E[y^2]), both by :func:`_saturation_mean`.
    """
    noise = system.noise_sigma**2
    if system.kind is sim.SystemKind.NULL:
        return np.zeros(d.size), noise
    c = d.centers
    _check_input_dim(c, im)
    if system.kind is sim.SystemKind.POLYNOMIAL:
        a, resid = np.array(sim.POLYNOMIAL_TAPS), 0.0
    else:
        state = fluid_flow_covariance(im.r_u)
        a = np.linalg.solve(im.r_u, state[:2, 2])
        resid = state[2, 2] - state[:2, 2] @ a
    sig2 = k.sigma**2
    cov = symmetrize(np.linalg.solve(np.eye(im.dim) + im.r_u / sig2, im.r_u))  # Sigma
    m = c @ cov @ a / sig2
    s2 = a @ cov @ a
    e_kappa = _moment_batch(c, (c**2).sum(axis=1), 1, k, im)
    if system.kind is sim.SystemKind.FLUID_FLOW:
        p = e_kappa * _saturation_mean(1, m, math.sqrt(s2 + resid))
        return p, float(_saturation_mean(2, 0.0, math.sqrt(state[2, 2])) + noise)
    c1, c2, c3 = sim.POLYNOMIAL_COEFFS
    p = e_kappa * (c1 * m + c2 * (m**2 + s2) + c3 * (m**3 + 3.0 * m * s2))
    v = a @ im.r_u @ a
    return p, float(c1**2 * v + 3.0 * (c2**2 + 2.0 * c1 * c3) * v**2 + 15.0 * c3**2 * v**3
                    + noise)


def estimate_cross_stats(system, im: InputModel, d: Dictionary, k: GaussianKernel) -> CrossStats:
    """:func:`exact_cross_stats` of ``system`` for the input law ``im``, as the cache holds them."""
    return CrossStats(*exact_cross_stats(system, d, k, im))


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def build_model(
    d: Dictionary,
    k: GaussianKernel,
    im: InputModel,
    p: np.ndarray,
    d2: float,
) -> MomentModel:
    """Assemble the full moment model from a dictionary, kernel and input law.

    Computes the closed-form second and fourth moments and applies the inverse
    Gram square-root transform, to the fourth moments as two m x m products in place.
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
    if j_min < 0:
        warnings.warn(f"minimum MSE is negative ({j_min:.6e}); p and d2 are not the cross "
                      f"statistics of one signal", stacklevel=2)
    scale = sym_basis(d.size)[2]
    s_o = fourth_tensor(d, k, im)
    s_o *= scale[:, None]
    s_o *= scale
    b = sym_congruence(w)
    bs = b @ s_o
    np.matmul(bs, b.T, out=s_o)  # B S_o B', then symmetrized: no third m x m array
    t_sym = np.divide(np.add(s_o, s_o.T, out=bs), 2.0, out=bs)
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

CROSS_STATS_FORMAT_VERSION = 4
_RECORD_FORMAT = f"kaflab-cross-stats-v{CROSS_STATS_FORMAT_VERSION}"


def record_name(system, d: Dictionary, k: GaussianKernel, im: InputModel) -> str:
    """The file name of the record of these inputs' cross statistics: a content hash of the
    format version, the dictionary, kernel width, input covariance, plant and noise level."""
    h = hashlib.sha256(f"cross-stats-v{CROSS_STATS_FORMAT_VERSION}".encode())
    for part in (d.centers.tobytes(), np.float64(k.sigma).tobytes(), im.r_u.tobytes(),
                 system.kind.value.encode(), np.float64(system.noise_sigma).tobytes()):
        h.update(part)
    return f"cross_stats_{h.hexdigest()[:16]}.json"


def save_moment_model(stats: CrossStats, path) -> None:
    """Write ``stats`` as JSON through :func:`kaflab.sim.write_atomic`.

    JSON writes each double as its shortest round-tripping decimal, so
    :func:`load_moment_model` reads the values back bit for bit.
    """
    record = {key: np.asarray(val).tolist() for key, val in vars(stats).items()}
    sim.write_atomic(path, [json.dumps({"format": _RECORD_FORMAT, **record})])


def load_moment_model(path, r: int) -> CrossStats:
    """Read a record written by :func:`save_moment_model` for ``r`` centers.

    ``OSError`` if the file cannot be read, ``ValueError`` if it is not such a record:
    truncated, foreign, of another version or length, with a non-finite ``p`` or ``d2``, or
    with a negative ``d2``, which no signal's power is.
    """
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    try:
        p, d2 = np.array(rec["p"], dtype=float), float(rec["d2"])
        if (rec["format"] != _RECORD_FORMAT or p.shape != (r,) or not np.isfinite([*p, d2]).all()
                or d2 < 0):
            raise ValueError(f"format {rec['format']!r}, shape {p.shape}, d2 {d2}")
        return CrossStats(p, d2)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is no cross-statistics record for {r} centers: {exc}") from exc
