"""Theoretical performance engine for the Gram-preconditioned LMS filter.

Works in the transformed ("tilde") coordinates of a
:class:`~kaflab.moments.MomentModel`: the mean weight-error recursion and its
step-size bound, and the correlation recursion ``C <- K(C) + eta^2 j_min r_tilde``,
``K(C) = C - eta (r_tilde C + C r_tilde) + eta^2 T(C)``, ``T(C)[l, m] =
trace(s_tilde[l, m] C)`` (Parreira, Bermudez, Richard and Tourneret, IEEE TSP
2012). One eigendecomposition of K on symmetric matrices (:func:`build_k`) gives
mean-square stability, the steady-state MSE and the whole transient curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, KaflabError, NotStableError
# spectral_radius is unused here but stays importable: perfbench's tracer wraps it by name.
from .linalg import (spectral_radius, sym_basis, sym_eig,  # noqa: F401
                     symmetrize, unvec_sym, vec_sym)
from .moments import MomentModel
from .sim import CurveKind, LearningCurve

# Largest allowed number of rows of the lexicographic r^2 x r^2 transition matrix.
K_CAP = 10_000

TRANSIENT_BLOCK = 1024  # curve steps per block of powers: memory does not grow with n


@dataclass(frozen=True)
class TransientState:
    """One step of the transient recursion.

    ``mse`` always equals ``j_min + trace(r_tilde @ c_tilde)`` for the model
    that produced it; ``c_tilde`` is kept exactly symmetric.
    """

    c_tilde: np.ndarray
    n: int
    mse: float


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
    eig = sym_eig(m.r_tilde).eigenvalues
    return 2.0 / eig[-1]


def mean_recursion(m: MomentModel, eta: float, v0: np.ndarray, n_steps: int) -> np.ndarray:
    """Trajectory of the mean weight error, ``v_{n+1} = (I - eta r_tilde) v_n``.

    Returns an ``(n_steps + 1, r)`` array whose first row is ``v0``.
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


def build_k(m: MomentModel, eta: float, k_cap: int = K_CAP) -> KSpectrum:
    """K on symmetric matrices for step size ``eta`` (dimension r(r+1)/2), decomposed.

    Entry (a, b) is ``<E_a, K(E_b)>``, ``E_a = (e_i e_j' + e_j e_i') scale_a / 2`` for
    a = (i, j), i <= j (:func:`~kaflab.linalg.sym_basis`). On antisymmetric C, T is zero
    (s_tilde is fully symmetric) and K has the eigenvalues ``1 - eta (mu_i + mu_j)``,
    i < j, mu those of r_tilde; ``radius`` is that of the whole r^2 x r^2 K.
    """
    if not eta >= 0:
        raise ValueError(f"step size must be nonnegative, got {eta}")
    r = m.dim
    if r * r > k_cap:
        raise KaflabError(f"transition matrix would have {r * r} rows, above the cap of {k_cap}")
    i, j, scale = sym_basis(r)
    i, j, p, q = i[:, None], j[:, None], i[None, :], j[None, :]
    r_t, eye = m.r_tilde, np.eye(r)
    lin = (r_t[j, p] * eye[q, i] + r_t[j, q] * eye[p, i]
           + r_t[i, p] * eye[q, j] + r_t[i, q] * eye[p, j])
    outer = np.outer(scale, scale)
    k_sym = symmetrize(np.eye(scale.size) - eta * (outer / 2 * lin)
                       + eta**2 * (outer * m.s_tilde[i, j, p, q]))
    lam, vecs = sym_eig(k_sym)
    mu = sym_eig(r_t).eigenvalues
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


def transient_states(m: MomentModel, eta: float, n_steps: int):
    """Yield the states of the step-by-step recursion at iterations 0..n_steps.

    Starts from zero coefficients (C is the outer product of the optimal
    transformed weights, so the MSE starts at the signal power) and
    re-symmetrizes C after each step. The reference for :func:`transient_mse`.
    """
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    r_t = m.r_tilde
    c = np.outer(m.alpha_star_tilde, m.alpha_star_tilde)
    yield TransientState(c_tilde=c, n=0, mse=m.j_min + np.trace(r_t @ c))
    for n in range(1, n_steps + 1):
        t = np.tensordot(m.s_tilde, c, axes=([3, 2], [0, 1]))
        c = c + eta**2 * (t + m.j_min * r_t) - eta * (r_t @ c + c @ r_t)
        c = symmetrize(c)
        val = m.j_min + np.trace(r_t @ c)
        if not np.isfinite(val):
            raise DivergenceError(f"transient recursion produced a non-finite MSE at step {n}",
                                  last_finite_step=n - 1)
        yield TransientState(c_tilde=c, n=n, mse=val)


def transient_mse(m: MomentModel, eta: float, n_steps: int, check_stability: bool = True,
                  km: KSpectrum | None = None) -> LearningCurve:
    """Theoretical MSE at iterations 0..n_steps from the spectrum ``km = build_k(m, eta)``.

    ``MSE(n) = MSE_inf + sum_k w_k lambda_k^n``, ``w_k = (q_k' vec(r_tilde))
    (q_k' vec(C_0 - C_inf))``, row 0 as in :func:`transient_states`. With
    ``check_stability``, a radius >= 1 warns; a non-finite MSE raises :class:`DivergenceError`.
    """
    s0 = next(transient_states(m, eta, 0))
    km = build_k(m, eta) if km is None else km
    if check_stability and km.radius >= 1.0:
        warnings.warn(f"transition matrix has spectral radius {km.radius:.6f} >= 1; "
                      f"the transient recursion may diverge", stacklevel=2)
    mse = np.empty(n_steps + 1)
    mse[0] = s0.mse
    mse_inf, c_inf = _fixed_point(m, km)
    q = km.eigenvectors
    w = (q.T @ vec_sym(m.r_tilde)) * (q.T @ vec_sym(s0.c_tilde - c_inf))
    lam, w = km.eigenvalues[w != 0], w[w != 0]  # a zero weight must not meet an infinite power
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, TRANSIENT_BLOCK):
            n = np.arange(start, min(start + TRANSIENT_BLOCK, n_steps + 1))
            mse[n] = mse_inf + (lam ** n[:, None]) @ w
            bad = n[~np.isfinite(mse[n])]
            if bad.size:
                raise DivergenceError(f"transient curve is non-finite at step {bad[0]}",
                                      last_finite_step=int(bad[0]) - 1)
    return LearningCurve(mse=mse, n_runs=0, kind=CurveKind.THEORETICAL)


def steady_state_mse(m: MomentModel, eta: float,
                     km: KSpectrum | None = None) -> tuple[float, np.ndarray]:
    """Steady-state MSE and weight-error correlation, from ``km = build_k(m, eta)``;
    refuses when K is not a contraction (the fixed point is then not reached)."""
    km = build_k(m, eta) if km is None else km
    if km.radius >= 1.0:
        raise NotStableError(f"transition matrix has spectral radius {km.radius:.6f} >= 1; "
                             f"no steady state exists", spectral_radius=km.radius)
    return _fixed_point(m, km)


def complexity_report(r: int, L: int, s_n: int) -> tuple[int, int]:
    """Per-iteration real-multiplication counts (full update, selective update).

    Full update costs ``(L + r + 2) r``; the selective update costs
    ``(L + s_n + 1) r`` for distances and selection plus ``s_n^3`` for the
    small solve.
    """
    if r < 1 or L < 1 or s_n < 1:
        raise ValueError("r, L and s_n must all be positive")
    full = (L + r + 2) * r
    selective = (L + s_n + 1) * r + s_n**3
    return full, selective
