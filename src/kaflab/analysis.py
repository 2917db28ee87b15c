"""Theoretical performance engine for the Gram-preconditioned LMS filter.

Works in the transformed ("tilde") coordinates of a
:class:`~kaflab.moments.MomentModel`: the step-size bound of the mean weight-error
recursion, and the correlation recursion ``C <- K(C) + eta^2 j_min r_tilde``,
``K(C) = C - eta (r_tilde C + C r_tilde) + eta^2 T(C)`` (Parreira, Bermudez,
Richard and Tourneret, IEEE TSP 2012). C is symmetric, so K is only ever needed on
symmetric matrices: an m x m matrix, m = r(r+1)/2, in the orthonormal coordinates
of :func:`~kaflab.linalg.sym_basis`, where the fourth-moment operator T is the
model's ``t_sym``. One eigendecomposition of that block (:func:`build_k`) gives
mean-square stability, the steady-state MSE and the whole transient curve.
:func:`compare_curves` measures how far a simulated curve lies from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvariantError, KaflabError, NotStableError
# spectral_radius is unused here but stays importable: perfbench's tracer wraps it by name.
from .linalg import (spectral_radius, sym_congruence, sym_eig,  # noqa: F401
                     unvec_sym, vec_sym)
from .moments import MomentModel
from .sim import LearningCurve

# Largest allowed r^2 (r <= 100). It bounds the m x m block of K on symmetric
# matrices, m = r(r+1)/2, that build_k decomposes: 5,050 x 5,050 at r = 100.
K_CAP = 10_000

# Curve steps per block of powers: memory does not grow with n. The value is part of
# theory.csv's bits: at one BLAS thread, blocks of 403 or 7 rows move experiment 1's
# curve, while blocks of 64, 1000 and 1024 rows do not.
TRANSIENT_BLOCK = 1024

# Window of the moving average applied to curves before the smoothed gap
# metrics; wide enough to suppress per-iteration Monte-Carlo noise, narrow
# relative to any transient feature of interest.
SMOOTH_WINDOW = 51


@dataclass(frozen=True)
class KSpectrum:
    """Symmetric block of K, its ascending eigenpairs (columns) and the radius of all of K."""

    k_sym: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    radius: float
    eta: float


def mean_stability_bound(m: MomentModel) -> float:
    """Supremum of step sizes for which the mean weight error contracts.

    Equals ``2 / lambda_max`` of the transformed autocorrelation matrix.
    """
    return 2.0 / m.r_tilde_eigenvalues[-1]


def check_k_size(r: int) -> None:
    """Refuse r centers with r^2 above ``K_CAP``: before any work on them."""
    if r * r > K_CAP:
        raise KaflabError(f"r = {r} centers, above the cap of r <= {int(K_CAP**0.5)}: the "
                          f"transition matrix would have r(r+1)/2 = {r * (r + 1) // 2} rows")


def build_k(m: MomentModel, eta: float) -> KSpectrum:
    """K on symmetric matrices for step size ``eta`` (dimension r(r+1)/2), decomposed.

    Entry (a, b) is ``<E_a, K(E_b)>``, ``E_a = (e_i e_j' + e_j e_i') scale_a / 2``, a = (i, j),
    i <= j (:func:`~kaflab.linalg.sym_basis`); ``r_tilde C + C r_tilde`` gives twice
    :func:`~kaflab.linalg.sym_congruence` of ``(r_tilde, I)``, T gives ``eta^2 t_sym``. On
    antisymmetric C, T is zero (fully symmetric fourth moments) and K has eigenvalues ``1 - eta
    (mu_i + mu_j)``, i < j, mu the model's ``r_tilde_eigenvalues``; ``radius`` is K's on all C.
    """
    if not eta >= 0:
        raise ValueError(f"step size must be nonnegative, got {eta}")
    r = m.dim
    check_k_size(r)
    k_sym = sym_congruence(m.r_tilde, np.eye(r))  # lin, then I - eta (2 lin) + eta^2 t_sym
    k_sym *= 2.0
    k_sym *= eta
    np.subtract(np.eye(k_sym.shape[0]), k_sym, out=k_sym)
    work = np.multiply(eta**2, m.t_sym)
    k_sym += work
    k_sym = np.divide(np.add(k_sym, k_sym.T, out=work), 2.0, out=work)  # symmetrized
    lam, vecs = sym_eig(k_sym)
    mu = m.r_tilde_eigenvalues
    anti = 1.0 - eta * (mu[:, None] + mu[None, :])[np.triu_indices(r, 1)]
    radius = float(max(np.abs(lam).max(), np.abs(anti).max(initial=0.0)))
    return KSpectrum(k_sym=k_sym, eigenvalues=lam, eigenvectors=vecs, radius=radius, eta=eta)


def mean_square_stable(km: KSpectrum) -> tuple[bool, float]:
    """Whether the transition matrix is a strict contraction, plus its spectral radius."""
    return km.radius < 1.0, km.radius


def _fixed_point(m: MomentModel, km: KSpectrum) -> tuple[float, np.ndarray]:
    """``C_inf = Q diag(1 / (1 - lambda)) Q' eta^2 j_min vec(r_tilde)`` and its MSE."""
    q = km.eigenvectors
    b = q.T @ (km.eta**2 * m.j_min * vec_sym(m.r_tilde))
    c_inf = unvec_sym(q @ (b / (1.0 - km.eigenvalues)), m.dim)
    return float(m.j_min + np.trace(m.r_tilde @ c_inf)), c_inf


def transient_mse(m: MomentModel, km: KSpectrum, n_steps: int) -> LearningCurve:
    """Theoretical MSE at iterations 0..n_steps from the spectrum ``km = build_k(m, eta)``.

    The step size is ``km.eta``. ``MSE(n) = MSE_inf + sum_k w_k lambda_k^n``, ``w_k =
    (q_k' vec(r_tilde)) (q_k' vec(C_0 - C_inf))``; C_0 is the outer product of the optimal
    transformed weights (zero coefficients), so row 0 is the signal power. An unstable K
    gives a growing curve; a non-finite MSE raises :class:`DivergenceError`, a negative
    one :class:`InvariantError`.
    """
    if not km.eta > 0:
        raise ValueError(f"step size must be positive, got {km.eta}")
    c0 = np.outer(m.alpha_star_tilde, m.alpha_star_tilde)
    mse = np.empty(n_steps + 1)
    mse[0] = m.j_min + np.trace(m.r_tilde @ c0)
    mse_inf, c_inf = _fixed_point(m, km)
    q = km.eigenvectors
    w = (q.T @ vec_sym(m.r_tilde)) * (q.T @ vec_sym(c0 - c_inf))
    lam, w = km.eigenvalues[w != 0], w[w != 0]  # a zero weight must not meet an infinite power
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, TRANSIENT_BLOCK):
            n = np.arange(start, min(start + TRANSIENT_BLOCK, n_steps + 1))
            mse[n] = mse_inf + (lam ** n[:, None]) @ w
            bad = n[~np.isfinite(mse[n])]
            if bad.size:
                raise DivergenceError(f"transient curve is non-finite at step {bad[0]}",
                                      last_finite_step=int(bad[0]) - 1)
            neg = n[mse[n] < 0]
            if neg.size:
                raise InvariantError(f"transient curve is negative at step {neg[0]} "
                                     f"({mse[neg[0]]:.6e}); K has spectral radius "
                                     f"{km.radius:.17g}")
    return LearningCurve(mse=mse)


def steady_state_mse(m: MomentModel, km: KSpectrum) -> tuple[float, np.ndarray]:
    """Steady-state MSE and weight-error correlation at step size ``km.eta``, from ``km =
    build_k(m, eta)``; refuses when K is not a contraction (no fixed point is reached)."""
    if km.radius >= 1.0:
        raise NotStableError(f"transition matrix has spectral radius {km.radius:.6f} >= 1; "
                             f"no steady state exists", spectral_radius=km.radius)
    return _fixed_point(m, km)


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Mean over the ``window`` points centred on each point, cut at the ends of ``x``.

    Has as many values as ``x``, also for a curve shorter than the window: the
    centred slice of the full convolution, which is ``mode="same"`` for
    ``x.size >= window``. From ``2 x.size - 1`` on, every window covers the whole
    curve, each value is the same sum, and the window is cut there.
    """
    window = min(window, 2 * x.size - 1)
    if window <= 1:
        return x
    ones, keep = np.ones(window), slice((window - 1) // 2, (window - 1) // 2 + x.size)
    return np.convolve(x, ones)[keep] / np.convolve(np.ones_like(x), ones)[keep]


def _log10_gap(sim: np.ndarray, theory: np.ndarray) -> np.ndarray:
    gap = np.zeros_like(sim)
    both_pos = (sim > 0) & (theory > 0)
    gap[both_pos] = np.abs(np.log10(sim[both_pos]) - np.log10(theory[both_pos]))
    one_zero = (sim > 0) != (theory > 0)
    gap[one_zero] = np.inf
    return gap


def compare_curves(sim: np.ndarray, theory: np.ndarray,
                   smooth_window: int = SMOOTH_WINDOW) -> dict:
    """Gap metrics between a simulated and a theoretical MSE curve.

    ``steady_band_rel_error`` averages over the final 10% of iterations;
    the log-gap metrics come in raw and moving-average-smoothed variants,
    each overall and restricted to iterations after 50.
    """
    n = min(sim.size, theory.size)
    sim, theory = sim[:n], theory[:n]
    band = slice(max(0, n - max(1, n // 10)), n)
    t_band = theory[band].mean()
    steady_err = abs(sim[band].mean() - t_band) / t_band if t_band > 0 else 0.0
    raw = _log10_gap(sim, theory)
    smoothed = _log10_gap(_moving_average(sim, smooth_window),
                          _moving_average(theory, smooth_window))
    after = slice(min(51, n), n)
    return {
        "n_compared": n,
        "steady_band_rel_error": float(steady_err),
        "max_log10_gap": float(raw.max()) if n else 0.0,
        "max_log10_gap_after_50": float(raw[after].max()) if raw[after].size else 0.0,
        "max_log10_gap_smoothed": float(smoothed.max()) if n else 0.0,
        "max_log10_gap_smoothed_after_50": (
            float(smoothed[after].max()) if smoothed[after].size else 0.0
        ),
        "smooth_window": smooth_window,
        "initial_mse_sim": float(sim[0]) if n else 0.0,
        "initial_mse_theory": float(theory[0]) if n else 0.0,
    }


def complexity_report(r: int, L: int, s_n: int) -> tuple[int, int]:
    """Per-iteration real-multiplication counts (full update, selective update).

    Full update costs ``(L + r + 2) r``; the selective update costs
    ``(L + s_n + 1) r`` for distances and selection plus ``s_n^3`` for the
    small solve. The selective update picks at most all r centers: ``s_n <= r``.
    """
    if r < 1 or L < 1 or s_n < 1:
        raise ValueError("r, L and s_n must all be positive")
    if s_n > r:
        raise ValueError(f"a selective update of s_n = {s_n} centers needs r >= s_n, got r = {r}")
    full = (L + r + 2) * r
    selective = (L + s_n + 1) * r + s_n**3
    return full, selective
