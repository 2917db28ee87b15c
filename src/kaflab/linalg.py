"""Dense symmetric linear algebra shared by the model and analysis code.

Everything here operates on plain ``numpy`` float64 arrays. Matrices that
are symmetric by contract (Gram matrices, correlation matrices) are kept
exactly symmetric by construction: derived quantities are re-symmetrized
with :func:`symmetrize` at the point where they are produced.

All functions but :func:`one_blas_thread`, which sets the process's BLAS thread count,
are pure; they never mutate their inputs and are safe to call from concurrent workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools

import numpy as np

from .errors import DimensionMismatchError, EigenSolverError, NotPositiveDefiniteError

# Relative eigenvalue floor under which a matrix is declared non-PD instead
# of being silently regularized.
PD_FLOOR_REL = 1e-12

# The one byte budget of every blocked loop in kaflab, read at call time: the arrays that one
# block of rows works in stay within it, and so within a core's cache.
WORK_BYTES = 2**20


def rows_within(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes that one block holds within :data:`WORK_BYTES`, at least one."""
    return max(1, WORK_BYTES // row_bytes)


MAPS_FILE = "/proc/self/maps"  # where the loaded OpenBLAS is found, on Linux
# The thread-count setter and getter of numpy's bundled OpenBLAS, then of a plain one.
OPENBLAS_THREADS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                    ("openblas_set_num_threads", "openblas_get_num_threads"))


def _openblas():
    """The thread-count setter and getter of an OpenBLAS in this process's memory map, which,
    unlike ``ctypes.util.find_library``, starts no process; None where there is none."""
    with contextlib.suppress(OSError), open(MAPS_FILE, encoding="utf-8", errors="replace") as f:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in f
                        if "openblas" in line.lower()})
        for (set_name, get_name), path in itertools.product(OPENBLAS_THREADS, paths):
            with contextlib.suppress(OSError, AttributeError):
                lib = ctypes.CDLL(path)
                return getattr(lib, set_name), getattr(lib, get_name)
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS at one thread, so that its sums have the same bits on any
    number of cores, then restore the old count. Yields the count read back, or "unknown"
    where no OpenBLAS is found and nothing is pinned."""
    set_threads, get_threads = _openblas() or (lambda n: None, lambda: "unknown")
    old = get_threads()
    set_threads(1)
    try:
        yield get_threads()
    finally:
        set_threads(old)


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
    work = np.abs(a)
    scale = max(work.max(), 1.0)
    if np.abs(np.subtract(a, a.T, out=work), out=work).max() > tol * scale:
        raise DimensionMismatchError(f"{name} is not symmetric")
    return a


def sym_eig(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix: numpy's ``EighResult``.

    Its ``eigenvalues`` are ascending and its ``eigenvectors`` the matching
    orthonormal columns, such that ``V @ diag(w) @ V.T`` reconstructs the input
    to about 1e-10 relative (Frobenius).
    """
    a = check_symmetric(a, "sym_eig input")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenSolverError(f"symmetric eigensolver did not converge: {exc}") from exc


def pd_sqrt(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique symmetric PD square root and its inverse, with the eigenvalues of ``a``.

    Returns ``(sqrt, inv_sqrt, eigenvalues)`` with ``sqrt @ sqrt == a`` and
    ``inv_sqrt @ sqrt == I`` to about 1e-10 relative, the eigenvalues ascending. The
    input must be positive definite: eigenvalues at or below ``PD_FLOOR_REL * max(eig)``
    raise :class:`NotPositiveDefiniteError` rather than being regularized.
    """
    w, v = sym_eig(a)
    floor = PD_FLOOR_REL * w[-1]
    if w[0] <= floor:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.6e} "
            f"<= floor {floor:.6e}",
            smallest_eigenvalue=float(w[0]),
        )
    sq = symmetrize((v * np.sqrt(w)) @ v.T)
    inv_sq = symmetrize((v / np.sqrt(w)) @ v.T)
    return sq, inv_sq, w


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square (not necessarily symmetric) matrix."""
    a = check_square(a, "spectral_radius input")
    try:
        return float(np.abs(np.linalg.eigvals(a)).max())
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolverError(f"eigenvalue computation failed: {exc}") from exc


def sym_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis of the symmetric ``dim x dim`` matrices.

    Returns the row and column indices ``(i, j)`` of the upper triangle,
    row by row, and the scale of each coordinate: 1 on the diagonal,
    sqrt(2) off it, so that the coordinates preserve the Frobenius inner
    product.
    """
    i, j = np.triu_indices(dim)
    return i, j, np.where(i == j, 1.0, np.sqrt(2.0))


def sym_index(i, j, dim: int):
    """Position of the pair ``(i, j)``, in either order, among the coordinates of
    :func:`sym_basis`; works elementwise on index arrays."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return lo * (2 * dim - lo + 1) // 2 + hi - lo


def sym_congruence(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Matrix of ``C -> (A C B' + B C A') / 2`` (``A C A'`` without ``b``) on symmetric C in
    the coordinates of :func:`sym_basis`: entry (p, q), p = (i, j), q = (s, t), is
    ``scale_p scale_q ((A_is B_jt + A_it B_js) + (B_is A_jt + B_it A_js)) / 4``, formed
    in blocks of rows whose four live temporaries fit in :data:`WORK_BYTES`, bit for bit."""
    a = check_square(a, "sym_congruence input")
    b = a if b is None else check_square(b, "sym_congruence input")
    i, j, scale = sym_basis(a.shape[0])
    out = np.empty((i.size, i.size))
    rows = rows_within(4 * 8 * i.size)
    for lo in range(0, i.size, rows):
        ir, jr, blk = i[lo:lo + rows], j[lo:lo + rows], out[lo:lo + rows]
        np.add(a[ir][:, i] * b[jr][:, j], a[ir][:, j] * b[jr][:, i], out=blk)
        # Without b the second half repeats the first, product for product.
        blk += blk if b is a else b[ir][:, i] * a[jr][:, j] + b[ir][:, j] * a[jr][:, i]
        blk *= np.outer(scale[lo:lo + rows], scale / 4.0)
    return out


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
