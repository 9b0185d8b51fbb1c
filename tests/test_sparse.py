"""CSR conversion and the direct solve."""

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import dense_lu_solve

from oseenstress import sparsela
from oseenstress.sparsela import (
    RTOL,
    SingularMatrixError,
    SolverMemoryError,
    checked_residual,
    lu_solve,
    minimum_degree,
    relative_residual,
    _equilibrated,
    _segment_max,
    to_csr,
)


def random_triplets(rng, n):
    nnz = int(rng.integers(3 * n, 6 * n))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    # Dominant diagonal keeps the matrix comfortably nonsingular.
    diag = np.arange(n)
    return (
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, np.full(n, 10.0)]),
    )


def test_to_csr_validation():
    with pytest.raises(ValueError):
        to_csr([0, 1], [0], [1.0, 2.0], 4)
    with pytest.raises(ValueError):
        to_csr([0], [4], [1.0], 4)
    with pytest.raises(ValueError):
        to_csr([-1], [0], [1.0], 4)
    empty = np.empty(0, dtype=np.int64)
    csr = to_csr(empty, empty, np.empty(0), 4)
    assert csr.nnz == 0
    assert not np.any(csr.to_scipy().toarray())


def test_to_csr_matches_dense_accumulation():
    rng = np.random.default_rng(5)
    n = 12
    blocks = []
    dense = np.zeros((n, n))
    for _ in range(5):
        rows = rng.integers(0, n, size=30)
        cols = rng.integers(0, n, size=30)
        vals = rng.standard_normal(30)
        blocks.append((rows, cols, vals))
        np.add.at(dense, (rows, cols), vals)
    csr = to_csr(*(np.concatenate([b[i] for b in blocks]) for i in range(3)), n)
    assert np.abs(csr.to_scipy().toarray() - dense).max() < 1e-15
    # column indices strictly increasing within each row
    for i in range(n):
        idx = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
        assert np.all(np.diff(idx) > 0)


def test_to_csr_sums_duplicates():
    csr = to_csr([1, 1, 1], [2, 2, 2], [1.0, 2.0, 4.0], 3)
    assert csr.nnz == 1
    assert csr.to_scipy().toarray()[1, 2] == 7.0


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_to_csr_keeps_scipys_int32_indices(dtype):
    # the same entries as scipy's own conversion, and no int64 copy of its
    # index arrays for a small n, whatever the dtype of the triplets
    rng = np.random.default_rng(9)
    n = 25
    rows, cols, vals = random_triplets(rng, n)
    csr = to_csr(rows.astype(dtype), cols.astype(dtype), vals, n)
    ref = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    ref.sum_duplicates()
    assert csr.indptr.dtype == csr.indices.dtype == np.int32
    assert np.array_equal(csr.indptr, ref.indptr) and np.array_equal(csr.indices, ref.indices)
    assert np.array_equal(csr.data, ref.data)
    x, residual = lu_solve(csr, np.ones(n))
    assert residual <= RTOL


def test_lu_solve_matches_dense_partial_pivot_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        csr = to_csr(*random_triplets(rng, n), n)
        rhs = rng.standard_normal(n)
        x, residual = lu_solve(csr, rhs)
        x_ref = dense_lu_solve(csr.to_scipy().toarray(), rhs)
        scale = max(1.0, float(np.abs(x_ref).max()))
        assert np.abs(x - x_ref).max() / scale < 1e-10
        assert residual <= RTOL
        assert np.linalg.norm(csr.to_scipy() @ x - rhs) <= RTOL * np.linalg.norm(rhs)


def test_lu_solve_in_a_given_order_matches_dense_oracle():
    # Factored in the given numbering, with rows and columns scaled over
    # twelve orders of magnitude: the equilibration undoes the scaling,
    # and the residual is still that of the unscaled system.
    rng = np.random.default_rng(321)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        rows, cols, vals = random_triplets(rng, n)
        row_scale, col_scale = 10.0 ** rng.uniform(-6, 6, size=(2, n))
        csr = to_csr(rows, cols, vals * row_scale[rows] * col_scale[cols], n)
        rhs = rng.standard_normal(n) * row_scale
        x, residual = lu_solve(csr, rhs)
        x_ref = dense_lu_solve(csr.to_scipy().toarray(), rhs)
        assert np.abs(x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()
        assert residual == relative_residual(csr.to_scipy() @ x - rhs, rhs)
        assert residual <= RTOL


def test_equilibration_scales_the_csc_copy_as_the_row_scaled_csr_would():
    # both scales applied in place to the CSC copy, against scaling the
    # rows in CSR and converting that copy: the same products, bit for bit
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(10, 40))
        rows, cols, vals = random_triplets(rng, n)
        csr = to_csr(rows, cols, vals * 10.0 ** rng.uniform(-6, 6, size=vals.size), n)
        csc, row_scale, col_scale = _equilibrated(csr)
        expected_rows = 1.0 / _segment_max(np.abs(csr.data), csr.indptr)
        data = csr.data * np.repeat(expected_rows, np.diff(csr.indptr))
        ref = scipy.sparse.csr_matrix((data, csr.indices, csr.indptr), shape=(n, n)).tocsc()
        expected_cols = 1.0 / _segment_max(np.abs(ref.data), ref.indptr)
        ref.data *= np.repeat(expected_cols, np.diff(ref.indptr))
        assert np.array_equal(row_scale, expected_rows) and np.array_equal(col_scale, expected_cols)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(csc, field), getattr(ref, field))


def test_lu_solve_detects_singular_matrix():
    # Row 3 left identically zero.
    csr = to_csr([0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0], 4)
    with pytest.raises(SingularMatrixError):
        lu_solve(csr, np.ones(4))


def test_minimum_degree_eliminates_the_leaves_of_a_star_first():
    leaves = np.arange(1, 6)
    rows = np.concatenate([leaves, np.zeros(5, dtype=np.int64)])
    position = minimum_degree(rows, rows[::-1], 6)
    assert np.array_equal(np.sort(position), np.arange(6))
    assert position[0] == 5



def failing_splu(exc):
    def splu(*args, **kwargs):
        raise exc

    return splu


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()"),
        RuntimeError("Malloc fails for L[]"),
        MemoryError(),
    ],
    ids=["superlu-malloc", "malloc-any-case", "memory-error"],
)
def test_lu_solve_reports_memory_failures_as_memory_errors(exc, monkeypatch):
    # No memory is allocated for real: splu is replaced by a stub that
    # raises what SuperLU raises when an allocation fails.
    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu(exc))
    csr = to_csr(np.arange(3), np.arange(3), np.ones(3), 3)
    with pytest.raises(SolverMemoryError) as info:
        lu_solve(csr, np.ones(3))
    assert not isinstance(info.value, SingularMatrixError)
    assert isinstance(info.value, MemoryError)
    assert (info.value.n, info.value.nnz) == (3, 3)
    assert "n=3, nnz=3" in str(info.value)


def test_lu_solve_reports_singular_factor_as_singular(monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu(RuntimeError("Factor is exactly singular")))
    csr = to_csr(np.arange(3), np.arange(3), np.ones(3), 3)
    with pytest.raises(SingularMatrixError, match="singular"):
        lu_solve(csr, np.ones(3))


def test_lu_solve_rejects_wrong_rhs_shape():
    csr = to_csr(np.arange(3), np.arange(3), np.ones(3), 3)
    with pytest.raises(ValueError):
        lu_solve(csr, np.ones(4))
    with pytest.raises(ValueError):
        lu_solve(csr, np.ones((3, 1)))


def test_checked_residual_names_the_solve_above_rtol():
    rhs = np.array([3.0, 4.0])
    assert checked_residual(np.array([0.0, 5e-9]), rhs, "direct solve") == pytest.approx(1e-9)
    with pytest.raises(SingularMatrixError, match="bordered residual 2.000e-09 exceeds"):
        checked_residual(np.array([0.0, 1e-8]), rhs, "bordered")


def test_checked_residual_rejects_a_nan_residual():
    with pytest.raises(SingularMatrixError, match="bordered residual nan"):
        checked_residual(np.array([np.nan]), np.array([1.0]), "bordered")


def test_checked_residual_rejects_a_nan_rhs():
    with pytest.raises(SingularMatrixError, match="direct solve residual nan"):
        checked_residual(np.array([0.0, 0.0]), np.array([np.nan, 1.0]), "direct solve")


def test_lu_solve_releases_the_freed_heap_once_between_the_scaled_copy_and_the_factorization(monkeypatch):
    events = []
    equilibrated, splu = sparsela._equilibrated, scipy.sparse.linalg.splu

    def spy(name, call):
        def wrapper(*args, **kwargs):
            events.append(name)
            return call(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sparsela, "_equilibrated", spy("equilibrated", equilibrated))
    monkeypatch.setattr(sparsela, "_malloc_trim", spy("malloc_trim", sparsela._malloc_trim or (lambda pad: 0)))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy("splu", splu))
    rng = np.random.default_rng(5)
    csr = to_csr(*random_triplets(rng, 20), 20)
    for solves in (1, 2):
        lu_solve(csr, rng.standard_normal(20))
        assert events == ["equilibrated", "malloc_trim", "splu"] * solves


def test_lu_solve_without_malloc_trim_gives_the_same_bits(monkeypatch):
    # a C library without malloc_trim (macOS, musl): the release is skipped, the arithmetic is the same
    rng = np.random.default_rng(9)
    csr = to_csr(*random_triplets(rng, 30), 30)
    rhs = rng.standard_normal(30)
    x, residual = lu_solve(csr, rhs)
    monkeypatch.setattr(sparsela, "_malloc_trim", None)
    x_without, residual_without = lu_solve(csr, rhs)
    assert x.tobytes() == x_without.tobytes()
    assert residual == residual_without
