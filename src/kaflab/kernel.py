"""Gaussian kernel, dictionaries of kernel centers, and Gram factorization.

A dictionary of r centers spans an r-dimensional function subspace; the Gram
matrix G of pairwise kernel values realizes that subspace's inner product on
coefficient vectors. :class:`GramFactor` carries G together with its square
root, inverse square root and inverse, which bridge between the coefficient
parameterization and the orthonormalized ("tilde") coordinates used by the
performance model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, KaflabError, NotPositiveDefiniteError
from .linalg import pd_sqrt, symmetrize

# Centers closer than this are treated as duplicates up front, with a clearer
# error than the PD check would give.
DUPLICATE_DISTANCE = 1e-9

# Largest grid dictionary that grid construction builds.
MAX_DICTIONARY_SIZE = 10_000

THRESHOLD_BISECTION_STEPS = 60  # at most; fewer once no double lies between the ends


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian kernel ``exp(-||x - y||^2 / (2 sigma^2))`` with width sigma > 0."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"kernel width must be positive, got {self.sigma}")


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


@dataclass(frozen=True)
class GramFactor:
    """Gram matrix of a dictionary with its PD factorizations.

    ``g_sqrt @ g_sqrt == g`` to about 1e-10 relative; ``eigenvalues`` are G's, ascending.
    ``g_inv`` is the symmetric inverse ``g_inv_sqrt @ g_inv_sqrt``, built once so that a
    batch of filter updates applies ``G^-1`` with one matrix product per step.
    """

    g: np.ndarray
    g_sqrt: np.ndarray
    g_inv_sqrt: np.ndarray
    eigenvalues: np.ndarray
    g_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "g_inv", symmetrize(self.g_inv_sqrt @ self.g_inv_sqrt))


def kernelized_input(d: Dictionary, k: GaussianKernel, u: np.ndarray,
                     out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Kernel values between ``u`` and every dictionary center.

    ``u`` is one input of length L, giving shape (r,), or a stack (..., L) of N
    inputs, giving (..., r). The values are formed in the output array (``out``,
    if given, of that shape) with one work array of r x N doubles (``work``, if
    given, or a fresh one), centers-major: the squared distances, summed one
    input axis at a time, are formed row by row against each axis's plane of N
    coordinates, with the output as the temporary of the later axes; they are
    divided on their way back, transposed, into the output, and exponentiated
    there. Every value takes the same correctly rounded subtractions, squares,
    sums and division as in any other layout, and ``exp``, the one operation
    that is not correctly rounded, meets them where it always did: contiguous
    in the inputs-major output. So the values keep their bits, and an input
    gets the same values alone as in any stack. The layout only saves time:
    each operation runs over N values per center, not r per input, and reads
    contiguous planes when the axis of ``u`` is outermost. When the call returns,
    the first r x N doubles of the work array hold the squared distances, center
    by input, so a caller that passes ``work`` gets them too.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (d.input_dim,):
        raise DimensionMismatchError(
            f"input has shape {u.shape}, dictionary expects length {d.input_dim}"
        )
    c, r = d.centers, d.size
    n = u.size // d.input_dim
    out = np.empty((*u.shape[:-1], r)) if out is None else out
    w = np.empty((r, n)) if work is None else work.reshape(-1)[:r * n].reshape(r, n)
    tmp = out.reshape(r, n)  # a view: the output's memory, before it holds the values
    np.subtract(c[:, :1], u[..., 0].reshape(1, n), out=w)
    np.square(w, out=w)
    for a in range(1, d.input_dim):
        np.subtract(c[:, a:a + 1], u[..., a].reshape(1, n), out=tmp)
        w += np.square(tmp, out=tmp)
    lead = u.ndim - 1  # divided on the way back into the inputs-major output
    np.divide(w.reshape(r, *u.shape[:-1]).transpose(*range(1, lead + 1), 0),
              -(2.0 * k.sigma**2), out=out)
    return np.exp(out, out=out)


def gram(d: Dictionary, k: GaussianKernel) -> GramFactor:
    """Gram matrix with its square root, inverse square root and inverse.

    Raises :class:`NotPositiveDefiniteError` naming the closest center pair if
    the dictionary contains (near-)duplicates or is otherwise too coherent for
    a PD Gram matrix. G is the kernel values of the centers against themselves,
    exactly symmetric with a unit diagonal; the squared distances that
    :func:`kernelized_input` leaves in its work array name that pair.
    """
    diff2 = np.empty((d.size, d.size))
    g = kernelized_input(d, k, d.centers, work=diff2)
    np.fill_diagonal(diff2, np.inf)  # a one-center dictionary has no pair: distance inf
    i, j = np.unravel_index(np.argmin(diff2), diff2.shape)
    dist = float(np.sqrt(diff2[i, j]))
    if dist < DUPLICATE_DISTANCE:
        raise NotPositiveDefiniteError(
            f"dictionary centers {i} and {j} are near-duplicates "
            f"(distance {dist:.3e}); Gram matrix cannot be positive definite"
        )
    try:
        g_sqrt, g_inv_sqrt, eig = pd_sqrt(g)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            f"Gram matrix is not positive definite (smallest eigenvalue "
            f"{exc.smallest_eigenvalue:.6e}); closest center pair is ({i}, {j}) "
            f"at distance {dist:.6e}",
            smallest_eigenvalue=exc.smallest_eigenvalue,
        ) from exc
    return GramFactor(g=g, g_sqrt=g_sqrt, g_inv_sqrt=g_inv_sqrt, eigenvalues=eig)


def grid_dictionary(lo, hi, points_per_axis: int) -> Dictionary:
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
    if r > MAX_DICTIONARY_SIZE:
        raise KaflabError(
            f"grid would contain {r} centers, above the cap of {MAX_DICTIONARY_SIZE}"
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

    Each sample's largest kernel value is kept as a running maximum over the
    admitted centers, so a center costs one vector operation over the samples
    after it: admitting it raises their maxima, and the next center is the
    first of them whose maximum stays at or below ``mu0``. The kernel values come
    from :func:`kernelized_input`, with the admitted center as a one-center
    dictionary: the same bits as in a loop over the samples, so both keep the same centers.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not 0.0 < mu0 < 1.0:
        raise ValueError(f"mu0 must lie in (0, 1), got {mu0}")
    coherence = np.full(samples.shape[0], -np.inf)  # running maximum over the centers
    kept = [0]
    while len(kept) != stop_after:
        i = kept[-1]
        later = coherence[i + 1:]
        np.maximum(later, kernelized_input(Dictionary(samples[i:i + 1]), k,
                                           samples[i + 1:])[:, 0], out=later)
        admissible = np.flatnonzero(later <= mu0)
        if admissible.size == 0:
            break
        kept.append(i + 1 + int(admissible[0]))
    return Dictionary(samples[kept])


def coherence_threshold_for_size(samples, k: GaussianKernel,
                                 target_size: int) -> tuple[float, Dictionary, bool]:
    """Bisect the coherence threshold for a dictionary of ``target_size`` centers.

    Returns ``(mu0, dictionary, truncated)``. Selection size is nondecreasing
    in the threshold, and each trial stops at ``target_size + 1`` centers,
    since only "more than the target" matters above it. Where the size jumps
    past the target between adjacent doubles, the smallest bisected threshold
    keeping more is taken with its first ``target_size`` centers, and
    ``truncated`` is true. Raises if no threshold keeps as many as the target.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    lo, hi, above = 0.0, 1.0, None  # above: the selection at hi, once one kept more
    for _ in range(THRESHOLD_BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        d = coherence_select(samples, k, mid, stop_after=target_size + 1)
        if d.size == target_size:
            return mid, d, False
        if d.size < target_size:
            lo = mid
        else:
            hi, above = mid, d
    if above is None:
        raise KaflabError(
            f"bisection did not reach a dictionary of size {target_size} on this "
            f"stream (fewer centers at every threshold up to {lo:.6g})"
        )
    return hi, Dictionary(above.centers[:target_size]), True
