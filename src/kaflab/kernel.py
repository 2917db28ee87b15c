"""Gaussian kernel, dictionaries of kernel centers, and Gram factorization.

A dictionary of r centers spans an r-dimensional function subspace; the Gram
matrix G of pairwise kernel values realizes that subspace's inner product on
coefficient vectors. :class:`GramFactor` carries G together with its square
root, inverse square root and Cholesky factor, which bridge between the
coefficient parameterization and the orthonormalized ("tilde") coordinates
used by the performance model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionMismatchError, KaflabError, NotPositiveDefiniteError
from .linalg import pd_sqrt, symmetrize

# Centers closer than this are treated as duplicates up front, with a clearer
# error than the PD check would give.
DUPLICATE_DISTANCE = 1e-9

# Default cap on dictionary size for grid construction.
MAX_DICTIONARY_SIZE = 10_000


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian kernel ``exp(-||x - y||^2 / (2 sigma^2))`` with width sigma > 0."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"kernel width must be positive, got {self.sigma}")

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return kappa(x, y, self)


def kappa(x: np.ndarray, y: np.ndarray, k: GaussianKernel) -> float:
    """Kernel value between two input vectors of equal length."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionMismatchError(f"input lengths differ: {x.size} vs {y.size}")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * k.sigma**2)))


@dataclass(frozen=True)
class Dictionary:
    """Ordered set of kernel centers, one per row (r x L)."""

    centers: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if c.ndim != 2 or c.shape[0] < 1:
            raise DimensionMismatchError(f"centers must be a nonempty 2-D array, got {c.shape}")
        object.__setattr__(self, "centers", c)

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    def save_csv(self, path) -> None:
        """One center per row, full double precision (17 significant digits)."""
        np.savetxt(path, self.centers, fmt="%.17g", delimiter=",")

    @classmethod
    def load_csv(cls, path) -> "Dictionary":
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))


@dataclass(frozen=True)
class GramFactor:
    """Gram matrix of a dictionary with its PD factorizations.

    ``g_sqrt @ g_sqrt == g`` to about 1e-10 relative. ``solve`` applies
    ``G^-1`` through a cached Cholesky factorization, which is both cheaper
    and better conditioned than an explicit inverse in per-sample filter
    updates.
    """

    g: np.ndarray
    g_sqrt: np.ndarray
    g_inv_sqrt: np.ndarray
    _cho: tuple = field(repr=False, compare=False, default=None)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``g x = b`` against the cached factorization."""
        return cho_solve(self._cho, b, check_finite=False)


def kernelized_input(d: Dictionary, k: GaussianKernel, u: np.ndarray) -> np.ndarray:
    """Vector of kernel values between ``u`` and every dictionary center."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != d.input_dim:
        raise DimensionMismatchError(
            f"input has length {u.size}, dictionary expects {d.input_dim}"
        )
    d2 = ((d.centers - u) ** 2).sum(axis=1)
    return np.exp(-d2 / (2.0 * k.sigma**2))


def gram_matrix(d: Dictionary, k: GaussianKernel) -> np.ndarray:
    """Plain Gram matrix of pairwise kernel values (diagonal identically 1)."""
    diff2 = ((d.centers[:, None, :] - d.centers[None, :, :]) ** 2).sum(axis=-1)
    g = np.exp(-diff2 / (2.0 * k.sigma**2))
    np.fill_diagonal(g, 1.0)
    return symmetrize(g)


def _closest_pair(centers: np.ndarray) -> tuple[int, int, float]:
    diff2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(diff2, np.inf)
    i, j = np.unravel_index(np.argmin(diff2), diff2.shape)
    return int(i), int(j), float(np.sqrt(diff2[i, j]))


def gram(d: Dictionary, k: GaussianKernel) -> GramFactor:
    """Gram matrix with its square root, inverse square root and Cholesky factor.

    Raises :class:`NotPositiveDefiniteError` naming the closest center pair if
    the dictionary contains (near-)duplicates or is otherwise too coherent for
    a PD Gram matrix.
    """
    if d.size > 1:
        i, j, dist = _closest_pair(d.centers)
        if dist < DUPLICATE_DISTANCE:
            raise NotPositiveDefiniteError(
                f"dictionary centers {i} and {j} are near-duplicates "
                f"(distance {dist:.3e}); Gram matrix cannot be positive definite"
            )
    g = gram_matrix(d, k)
    try:
        g_sqrt, g_inv_sqrt = pd_sqrt(g)
    except NotPositiveDefiniteError as exc:
        i, j, dist = _closest_pair(d.centers) if d.size > 1 else (0, 0, np.inf)
        raise NotPositiveDefiniteError(
            f"Gram matrix is not positive definite (smallest eigenvalue "
            f"{exc.smallest_eigenvalue:.6e}); closest center pair is ({i}, {j}) "
            f"at distance {dist:.6e}",
            smallest_eigenvalue=exc.smallest_eigenvalue,
        ) from exc
    return GramFactor(g=g, g_sqrt=g_sqrt, g_inv_sqrt=g_inv_sqrt, _cho=cho_factor(g))


def grid_dictionary(
    lo, hi, points_per_axis: int, max_size: int = MAX_DICTIONARY_SIZE
) -> Dictionary:
    """Cartesian-product dictionary over a uniform grid, endpoints inclusive.

    Axis samples are ``points_per_axis`` values spaced ``(hi-lo)/(points-1)``
    apart; for ``points_per_axis == 1`` the single point sits at ``lo``.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != hi.shape:
        raise DimensionMismatchError("lo and hi must have the same length")
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    if np.any(hi <= lo):
        raise ValueError("hi must exceed lo elementwise")
    r = points_per_axis ** lo.size
    if r > max_size:
        raise KaflabError(
            f"grid would contain {r} centers, above the cap of {max_size}"
        )
    if points_per_axis == 1:
        return Dictionary(lo[None, :])
    axes = [np.linspace(lo[i], hi[i], points_per_axis) for i in range(lo.size)]
    return Dictionary(np.array(list(itertools.product(*axes))))


def coherence_select(samples, k: GaussianKernel, mu0: float,
                     stop_after: int | None = None) -> Dictionary:
    """Greedy coherence-based selection of dictionary centers from a sample stream.

    The first sample is always admitted; a later sample is admitted iff its
    largest kernel value against the centers admitted so far is at most
    ``mu0``. Order-dependent by construction. With ``stop_after``, the
    selection ends as soon as it holds that many centers.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not 0.0 < mu0 < 1.0:
        raise ValueError(f"mu0 must lie in (0, 1), got {mu0}")
    two_s2 = 2.0 * k.sigma**2
    centers = np.empty_like(samples)
    centers[0] = samples[0]
    kept = 1
    for u in samples[1:]:
        if kept == stop_after:
            break
        coh = np.exp(-((centers[:kept] - u) ** 2).sum(axis=1) / two_s2).max()
        if coh <= mu0:
            centers[kept] = u
            kept += 1
    return Dictionary(centers[:kept].copy())


def coherence_threshold_for_size(
    samples,
    k: GaussianKernel,
    target_size: int,
    max_iter: int = 60,
) -> float:
    """Bisect the coherence threshold until exactly ``target_size`` centers are kept.

    Selection size is nondecreasing in the threshold, so a plain bisection over
    (0, 1) converges; raises if no threshold yields the target on this stream.
    Only "more than the target" matters above it, so each trial selection
    stops at ``target_size + 1`` centers.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    lo, hi = 0.0, 1.0
    last = (0, 0)
    for _ in range(max_iter):
        mid = (lo + hi) / 2.0
        size = coherence_select(samples, k, mid, stop_after=target_size + 1).size
        if size == target_size:
            return mid
        if size < target_size:
            lo = mid
        else:
            hi = mid
        last = (size if size < target_size else f"above {target_size}", mid)
    raise KaflabError(
        f"bisection did not reach a dictionary of size {target_size} on this "
        f"stream (last size {last[0]} at threshold {last[1]:.6g}); the size "
        f"may jump past the target between adjacent thresholds"
    )
