"""Sparse matrix plumbing: CSR conversion and the direct solve.

Assembly collects (row, col, value) triplets; :func:`to_csr` sums
duplicates into compressed sparse row storage and :func:`lu_solve` runs a
direct LU factorization with partial pivoting (SuperLU) and checks the
residual of the solution with :func:`relative_residual`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["CsrMatrix", "SingularMatrixError", "to_csr", "lu_solve", "relative_residual"]


class SingularMatrixError(RuntimeError):
    """Raised when the LU factorization detects a singular matrix."""


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix of dimension n.

    Column indices within each row are strictly increasing; duplicate
    triplets have been summed.  Explicitly inserted zeros are retained.
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

    Raises
    ------
    ValueError
        If the arrays differ in size or an index lies outside 0..n-1.
    """
    coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    csr = coo.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    return CsrMatrix(
        n=n,
        indptr=np.asarray(csr.indptr, dtype=np.int64),
        indices=np.asarray(csr.indices, dtype=np.int64),
        data=np.asarray(csr.data, dtype=np.float64),
    )


def relative_residual(a, x: np.ndarray, rhs: np.ndarray) -> float:
    """``||a x - rhs|| / max(||rhs||, tiny)`` for a scipy sparse matrix `a`."""
    denom = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(a @ x - rhs)) / denom


def lu_solve(matrix: CsrMatrix, rhs: np.ndarray, rtol: float = 1e-9):
    """Solve ``A x = rhs`` by sparse LU with partial pivoting.

    Returns ``(x, residual)`` with the :func:`relative_residual` of `x`,
    which is at most `rtol`.

    Raises
    ------
    SingularMatrixError
        If the factorization fails or the residual check does not pass.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (matrix.n,):
        raise ValueError(f"rhs must have shape ({matrix.n},), got {rhs.shape}")
    a = matrix.to_scipy().tocsc()
    try:
        lu = scipy.sparse.linalg.splu(a)
        x = lu.solve(rhs)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularMatrixError(f"sparse LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse LU produced non-finite solution")
    residual = relative_residual(a, x, rhs)
    if residual > rtol:
        raise SingularMatrixError(
            f"direct solve residual {residual:.3e} exceeds tolerance {rtol:.1e}"
        )
    return x, residual
