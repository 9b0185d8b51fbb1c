"""Sparse matrix plumbing: CSR conversion, orderings and the direct solve.

Assembly collects (row, col, value) triplets; :func:`to_csr` sums
duplicates into compressed sparse row storage.  :func:`lu_solve`
equilibrates the matrix, factors it by sparse LU (SuperLU) in the
numbering it is given, with a preference for diagonal pivots, and checks
the residual of the solution with :func:`checked_residual`.  The caller
numbers the unknowns in their elimination order, for instance with
:func:`minimum_degree`.  Before each factorization the freed heap goes
back to the system (glibc's ``malloc_trim``, looked up once at import
and skipped on a C library without it, such as macOS's or musl), so the
factors' fresh mappings do not stack on pages the solve no longer uses.
A ledger, a dict of :class:`DenseSolves` by kind, counts the batched
dense solves of a space and an assembly (:func:`tally`).
"""

import ctypes
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "RTOL",
    "CsrMatrix",
    "DenseSolves",
    "SingularMatrixError",
    "SolverMemoryError",
    "to_csr",
    "minimum_degree",
    "lu_solve",
    "relative_residual",
    "checked_residual",
    "tally",
]

RTOL = 1e-9  # relative residual bound of every direct solve

# glibc's malloc_trim(pad): hands every free page of the heap back to the system; None elsewhere
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


class SingularMatrixError(RuntimeError):
    """Raised when the LU factorization detects a singular matrix."""


class SolverMemoryError(MemoryError):
    """Raised when the LU factorization runs out of memory.

    Carries the size `n` and the stored entries `nnz` of the matrix; it is
    never a :class:`SingularMatrixError`.
    """

    def __init__(self, n: int, nnz: int, detail: str):
        super().__init__(f"sparse LU ran out of memory (n={n}, nnz={nnz}): {detail}")
        self.n = n
        self.nnz = nnz


class DenseSolves(NamedTuple):
    """Batched dense solves of one kind: the calls, the matrices in them, their order and right-hand sides."""

    calls: int
    matrices: int
    size: int
    rhs: int


def tally(ledger: dict, kind: str, solution: np.ndarray) -> None:
    """Add one batched dense solve, of `solution` (k, n, r), to the ``DenseSolves`` of `kind` in `ledger`."""
    calls, matrices = ledger[kind][:2] if kind in ledger else (0, 0)
    ledger[kind] = DenseSolves(calls + 1, matrices + solution.shape[0], *solution.shape[1:])


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix of dimension n.

    Column indices within each row are strictly increasing; duplicate
    triplets have been summed.  Explicitly inserted zeros are retained.
    `indptr` and `indices` keep the integer dtype scipy gave them, int32
    while the entries fit it.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n)
        )


def to_csr(rows, cols, vals, n: int) -> CsrMatrix:
    """Sum (row, col, value) triplets into an n-by-n CSR matrix.

    scipy's ``tocsr`` sums duplicates and sorts the indices; when over half
    of the triplets are left it hands out the leading parts of its buffers,
    which are shrunk in place, as a copy would raise the peak resident set.

    Raises
    ------
    ValueError
        If the arrays differ in size or an index lies outside 0..n-1.
    """
    csr = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    indptr, indices, data = csr.indptr, *(a if a.base is None else a.base for a in (csr.indices, csr.data))
    del csr  # it held the only views into the buffers
    indices.resize(indptr[-1], refcheck=False)  # a realloc; refcheck would also count a debugger's references
    data.resize(indptr[-1], refcheck=False)
    return CsrMatrix(n, indptr, indices, np.asarray(data, dtype=np.float64))


def minimum_degree(rows, cols, n: int) -> np.ndarray:
    """Minimum-degree order of a graph on n nodes with edges (rows, cols).

    Returns ``position``, the new position of each node.  The order is
    SuperLU's multiple minimum degree of the pattern plus its transpose
    (Liu, ACM TOMS 11, 1985), read from an incomplete factorization of
    the pattern with a dominant diagonal that drops every other entry.
    The panel size does not change the order; a panel of one column
    makes that factorization about twice as fast.
    """
    diag = np.arange(n)
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    pattern = scipy.sparse.csc_matrix(
        (
            np.concatenate([np.ones(len(rows)), 1.0 + degree]),
            (np.concatenate([rows, diag]), np.concatenate([cols, diag])),
        ),
        shape=(n, n),
    )
    ilu = scipy.sparse.linalg.spilu(
        pattern,
        drop_tol=1.0,
        fill_factor=1.0,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options={"SymmetricMode": True},
    )
    return np.asarray(ilu.perm_c, dtype=np.int64)


def relative_residual(residual: np.ndarray, rhs: np.ndarray) -> float:
    """``||residual|| / max(||rhs||, tiny)``; `rhs` may have any shape."""
    denom = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(residual)) / denom


def checked_residual(residual: np.ndarray, rhs: np.ndarray, label: str) -> float:
    """The :func:`relative_residual`, at most :data:`RTOL`.

    Raises
    ------
    SingularMatrixError
        Naming the `label` of the solve, if the residual exceeds RTOL or
        is NaN.
    """
    relative = relative_residual(residual, rhs)
    if not relative <= RTOL:
        raise SingularMatrixError(f"{label} residual {relative:.3e} exceeds tolerance {RTOL:.1e}")
    return relative


def _segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Largest entry of every segment ``values[indptr[i]:indptr[i+1]]``; 1 if empty."""
    out = np.ones(len(indptr) - 1)
    full = np.diff(indptr) > 0
    out[full] = np.maximum.reduceat(values, indptr[:-1][full])
    out[out == 0.0] = 1.0
    return out


def _equilibrated(matrix: CsrMatrix):
    """CSC matrix ``B = R A C`` and the scales ``R`` and ``C``.

    `R` makes the largest entry of every row of A one, then `C` that of
    every column of ``R A``.  The CSC conversion lists each column's rows
    in increasing order, so SuperLU gets canonical input without a sort.
    Both scales are applied to the CSC copy in place.
    """
    row_scale = 1.0 / _segment_max(np.abs(matrix.data), matrix.indptr)
    csc = matrix.to_scipy().tocsc()
    csc.data *= row_scale[csc.indices]
    col_scale = 1.0 / _segment_max(np.abs(csc.data), csc.indptr)
    csc.data *= np.repeat(col_scale, np.diff(csc.indptr))
    return csc, row_scale, col_scale


def lu_solve(matrix: CsrMatrix, rhs: np.ndarray):
    """Solve ``A x = rhs`` by sparse LU in the given numbering.

    The rows and then the columns of A are equilibrated, and the scaled
    matrix is factored with the unknowns eliminated in their index order,
    preferring the diagonal pivot unless it is below 0.01 times the
    largest entry of its column.  This suits a structurally symmetric
    matrix numbered so that its nonzero pivots stay on the diagonal.
    Supernodes are not relaxed and panels are one column wide: on the
    adaptive top systems that factors faster and in less memory, and
    on the uniform ones it is neutral.

    Between the scaled copy and the factorization the freed heap is
    returned to the system.  SuperLU sizes its L and U arrays from nnz(A),
    tens of MB on the finest systems, far above glibc's mmap threshold, so
    they are fresh mappings that no free heap page can take in: without
    the release, the pages that the assembly and the conversions freed
    stay resident beneath them and the peak resident set exceeds the live
    data by their size.  Where the C library has no ``malloc_trim`` the
    release is skipped.  It changes no arithmetic.

    Returns ``(x, residual)`` with the :func:`relative_residual` of `x`
    in the original, unscaled system, which is at most :data:`RTOL`.

    Raises
    ------
    ValueError
        If `rhs` has the wrong shape.
    SolverMemoryError
        If SuperLU fails to allocate memory.
    SingularMatrixError
        If the factorization fails otherwise or the residual check does
        not pass.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (matrix.n,):
        raise ValueError(f"rhs must have shape ({matrix.n},), got {rhs.shape}")
    try:
        a, row_scale, col_scale = _equilibrated(matrix)
        if _malloc_trim is not None:
            _malloc_trim(0)
        lu = scipy.sparse.linalg.splu(
            a,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.01,
            relax=1,
            panel_size=1,
            options={"SymmetricMode": True},
        )
        x = col_scale * lu.solve(row_scale * rhs)
    except MemoryError as exc:
        raise SolverMemoryError(matrix.n, matrix.nnz, str(exc)) from exc
    except RuntimeError as exc:  # SuperLU signals singularity and failed mallocs this way
        if "malloc" in str(exc).lower():
            raise SolverMemoryError(matrix.n, matrix.nnz, str(exc)) from exc
        raise SingularMatrixError(f"sparse LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse LU produced non-finite solution")
    return x, checked_residual(matrix.to_scipy() @ x - rhs, rhs, "direct solve")
