"""Dense symmetric linear algebra shared by the model and analysis code.

Everything here operates on plain ``numpy`` float64 arrays. Matrices that
are symmetric by contract (Gram matrices, correlation matrices) are kept
exactly symmetric by construction: derived quantities are re-symmetrized
with :func:`symmetrize` at the point where they are produced.

All functions are pure; they never mutate their inputs and are safe to call
from concurrent workers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, EigenSolverError, NotPositiveDefiniteError

# Relative eigenvalue floor under which a matrix is declared non-PD instead
# of being silently regularized.
PD_FLOOR_REL = 1e-12


class EigDecomposition(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return ``(a + a.T) / 2``, making symmetry exact."""
    return (a + a.T) / 2.0


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def check_symmetric(a: np.ndarray, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is square and symmetric within ``tol`` (relative)."""
    a = check_square(a, name)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > tol * scale:
        raise DimensionMismatchError(f"{name} is not symmetric")
    return a


def sym_eig(a: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Returns ascending eigenvalues and orthonormal eigenvectors such that
    ``V @ diag(w) @ V.T`` reconstructs the input to about 1e-10 relative
    (Frobenius).
    """
    a = check_symmetric(a, "sym_eig input")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenSolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    return EigDecomposition(w, v)


def pd_sqrt(a: np.ndarray, pd_floor_rel: float = PD_FLOOR_REL) -> tuple[np.ndarray, np.ndarray]:
    """Unique symmetric PD square root and its inverse.

    Returns ``(sqrt, inv_sqrt)`` with ``sqrt @ sqrt == a`` and
    ``inv_sqrt @ sqrt == I`` to about 1e-10 relative. The input must be
    positive definite: eigenvalues at or below ``pd_floor_rel * max(eig)``
    raise :class:`NotPositiveDefiniteError` rather than being regularized.
    """
    w, v = sym_eig(a)
    floor = pd_floor_rel * w[-1]
    if w[0] <= floor:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.6e} "
            f"<= floor {floor:.6e}",
            smallest_eigenvalue=float(w[0]),
        )
    sq = symmetrize((v * np.sqrt(w)) @ v.T)
    inv_sq = symmetrize((v / np.sqrt(w)) @ v.T)
    return sq, inv_sq


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square (not necessarily symmetric) matrix."""
    a = check_square(a, "spectral_radius input")
    try:
        return float(np.abs(np.linalg.eigvals(a)).max())
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolverError(f"eigenvalue computation failed: {exc}") from exc


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


def sym_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis of the symmetric ``dim x dim`` matrices.

    Returns the row and column indices ``(i, j)`` of the upper triangle,
    row by row, and the scale of each coordinate: 1 on the diagonal,
    sqrt(2) off it, so that the coordinates preserve the Frobenius inner
    product.
    """
    i, j = np.triu_indices(dim)
    return i, j, np.where(i == j, 1.0, np.sqrt(2.0))


def vec_sym(c: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in the basis of :func:`sym_basis`."""
    c = check_square(c, "vec_sym input")
    i, j, scale = sym_basis(c.shape[0])
    return c[i, j] * scale


def unvec_sym(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec_sym`: rebuild the symmetric ``dim x dim`` matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != dim * (dim + 1) // 2:
        raise DimensionMismatchError(
            f"a length-{v.size} vector holds no symmetric {dim}x{dim} matrix"
        )
    i, j, scale = sym_basis(dim)
    c = np.empty((dim, dim))
    c[i, j] = c[j, i] = v / scale
    return c
