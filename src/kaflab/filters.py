"""Online adaptive filters over a fixed kernel dictionary.

All filters share the same step shape: compute the a-priori error
``e = d - <alpha, kappa(u)>``, then move the coefficient vector. The update
that :func:`make_update` returns moves a batch of coefficient vectors, one row
per independent run, in place; the Monte-Carlo engine steps its runs with it,
and the step functions are wrappers over it on a batch of one.

The main algorithm updates along the Gram-preconditioned direction
``G^-1 kappa``, i.e. steepest descent in the function-space metric restricted
to the dictionary span. The selective variant confines each update to the
``s_n`` coordinates whose centers are most coherent with the current input,
solving only the corresponding principal Gram subsystem. The normalized
baseline works in plain coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError
from .kernel import Dictionary, GaussianKernel, GramFactor, kernelized_input


class FilterKind(Enum):
    NATURAL_KLMS = "natural_klms"
    SELECTIVE = "selective"
    KNLMS = "knlms"


@dataclass(frozen=True)
class FilterState:
    """Coefficient vector over a dictionary, starting from all zeros."""

    alpha: np.ndarray
    dictionary: Dictionary
    iteration: int = 0

    @classmethod
    def zeros(cls, d: Dictionary) -> "FilterState":
        return cls(alpha=np.zeros(d.size), dictionary=d, iteration=0)

    def __post_init__(self):
        if self.alpha.shape != (self.dictionary.size,):
            raise DimensionMismatchError(
                f"alpha has shape {self.alpha.shape}, dictionary size is "
                f"{self.dictionary.size}"
            )


@dataclass(frozen=True)
class StepRecord:
    """A-priori error and prediction of a single step, before the update."""

    prior_error: float
    prediction: float


def select_update_indices(kap: np.ndarray, s_n: int) -> np.ndarray:
    """Indices of the ``s_n`` largest kernel values, ties broken by lowest index.

    ``kap`` is one kernel vector or a stack of them (one per row); indices are
    returned in ascending order per row. A pure function of the inputs, so
    repeated calls with equal inputs select identical sets.
    """
    order = np.argsort(-kap, axis=-1, kind="stable")[..., :s_n]
    return np.sort(order, axis=-1)


def moves_along_g_inv(kind: FilterKind, s_n: int, r: int) -> bool:
    """Whether the update moves along ``kappa G^-1``: the natural update, and the
    selective one when it selects all ``r`` coordinates."""
    return kind is FilterKind.NATURAL_KLMS or (kind is FilterKind.SELECTIVE and s_n == r)


def make_update(kind: FilterKind, gf: GramFactor | None, eta: float, shape: tuple[int, int],
                s_n: int = 1, eps_reg: float = 1e-2):
    """The update of a batch of ``shape = (n, r)`` coefficient vectors, checked once.

    Returns ``move(alpha, kap, e, g_inv_kap=None)``, which moves each row of
    ``alpha`` (n, r) in place, given its kernel vector (a row of ``kap``) and
    its error (an entry of ``e``). The natural update adds
    ``eta e G^-1 kappa``; the selective one solves the ``s_n x s_n``
    principal Gram subsystem of each row's selection, and with ``s_n = r`` is
    the natural update; the normalized baseline adds
    ``(eta e kappa) / (eps_reg + ||kappa||^2)``. The natural update takes the
    products ``kap @ G^-1`` from ``g_inv_kap`` if the caller formed them (the
    Monte-Carlo engine forms a block's at once) and overwrites them there; it
    forms ``eta e`` in a buffer of its own, so it allocates nothing of
    ``alpha``'s size.
    """
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    r = shape[1]
    if kind is FilterKind.SELECTIVE and not 1 <= s_n <= r:
        raise ValueError(f"s_n must lie in [1, {r}], got {s_n}")
    if kind is FilterKind.KNLMS and not eps_reg > 0:
        raise ValueError(f"regularizer must be positive, got {eps_reg}")
    step = np.empty((shape[0], 1))  # eta e, one row per coefficient vector
    steps, eta_0d = step[:, 0], np.array(eta)  # a ufunc takes a 0-d array faster than a float

    if moves_along_g_inv(kind, s_n, r):
        def move(alpha, kap, e, g_inv_kap=None):
            prod = kap @ gf.g_inv if g_inv_kap is None else g_inv_kap
            np.multiply(eta_0d, e, out=steps)
            alpha += np.multiply(step, prod, out=prod)
    elif kind is FilterKind.KNLMS:
        def move(alpha, kap, e, g_inv_kap=None):
            np.multiply(eta_0d, e, out=steps)
            alpha += step * kap / (eps_reg + np.vecdot(kap, kap))[:, None]
    else:
        rows = np.arange(shape[0])[:, None]

        def move(alpha, kap, e, g_inv_kap=None):
            np.multiply(eta_0d, e, out=steps)
            idx = select_update_indices(kap, s_n)
            sub_g = gf.g[idx[:, :, None], idx[:, None, :]]
            sub = np.linalg.solve(sub_g, kap[rows, idx][:, :, None])[:, :, 0]
            alpha[rows, idx] += step * sub
    return move


def _step(s, gf, k, u, d, kind, eta, s_n=1, eps_reg=1e-2):
    """One step of one filter, as a batch of one through :func:`make_update`.

    ``np.vecdot`` gives a row the same value whatever rows are stacked with
    it, so a run stepped here and in a chunk of runs sees the same errors.
    """
    kap = kernelized_input(s.dictionary, k, u)[None]
    alpha = s.alpha[None].copy()
    pred = np.vecdot(alpha, kap)
    e = float(d) - pred
    make_update(kind, gf, eta, alpha.shape, s_n, eps_reg)(alpha, kap, e)
    return (
        StepRecord(prior_error=float(e[0]), prediction=float(pred[0])),
        FilterState(alpha=alpha[0], dictionary=s.dictionary, iteration=s.iteration + 1),
    )


def natural_klms_step(
    s: FilterState,
    gf: GramFactor,
    k: GaussianKernel,
    u: np.ndarray,
    d: float,
    eta: float,
) -> tuple[StepRecord, FilterState]:
    """Full Gram-preconditioned update: ``alpha += eta * e * G^-1 kappa``."""
    return _step(s, gf, k, u, d, FilterKind.NATURAL_KLMS, eta)


def selective_step(
    s: FilterState,
    gf: GramFactor,
    k: GaussianKernel,
    u: np.ndarray,
    d: float,
    eta: float,
    s_n: int,
) -> tuple[StepRecord, FilterState]:
    """Update only the ``s_n`` coordinates most coherent with the input.

    The prior error still uses the full prediction; the update solves the
    ``s_n x s_n`` principal Gram subsystem, costing O(s_n^3) instead of the
    full solve. With ``s_n`` equal to the dictionary size this reproduces
    :func:`natural_klms_step` exactly.
    """
    return _step(s, gf, k, u, d, FilterKind.SELECTIVE, eta, s_n=s_n)


def knlms_step(
    s: FilterState,
    k: GaussianKernel,
    u: np.ndarray,
    d: float,
    eta: float,
    eps_reg: float,
) -> tuple[StepRecord, FilterState]:
    """Normalized baseline in coefficient space: ``alpha += eta e kappa / (eps + ||kappa||^2)``."""
    return _step(s, None, k, u, d, FilterKind.KNLMS, eta, eps_reg=eps_reg)
