"""Shared helpers for the test suite."""

import numpy as np
import scipy.sparse.linalg

from oseenstress.mesh import Mesh, build_mesh, make_square_piecewise_uniform
from oseenstress.problems import ProblemSpec
from oseenstress.sparsela import RTOL, CsrMatrix, relative_residual


def two_triangle_square() -> Mesh:
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return build_mesh(verts, tris)


def without_hierarchy(mesh: Mesh) -> Mesh:
    """The same triangulation rebuilt without its coarse meshes, so it is solved on one level."""
    return build_mesh(mesh.vertices, mesh.triangles, mesh.region)


def find_tjunctions(mesh: Mesh):
    """Edges whose midpoint coincides with an existing vertex.

    A conforming triangulation must have none: such a vertex is a hanging
    node sitting on the interior of a neighbouring element's edge.
    """
    vmap = {tuple(np.round(v, 12)): i for i, v in enumerate(mesh.vertices)}
    bad = []
    for a, b in mesh.edges:
        mid = tuple(np.round(0.5 * (mesh.vertices[a] + mesh.vertices[b]), 12))
        j = vmap.get(mid)
        if j is not None:
            bad.append((int(a), int(b), j))
    return bad


def assert_valid_refinement(mesh: Mesh):
    """Structural invariants every refined mesh must satisfy."""
    assert not find_tjunctions(mesh)
    assert np.all(mesh.tri_areas() > 0)
    pairs = mesh.green_pairs
    if pairs.size:
        assert pairs.min() >= 0 and pairs.max() < mesh.nt
        for t1, t2 in pairs:
            shared = set(mesh.triangles[t1]) & set(mesh.triangles[t2])
            assert len(shared) == 2, "green pair members must share an edge"


def zero_problem() -> ProblemSpec:
    """All data identically zero; the discrete solution must vanish."""
    return ProblemSpec(
        name="zero",
        b=lambda x: np.zeros(x.shape),
        c=lambda x: np.zeros(x.shape[:-1]),
        f=lambda x: np.zeros(x.shape),
        g=lambda x: np.zeros(x.shape),
        initial_mesh=make_square_piecewise_uniform,
    )


def _stokes_linear_u(x):
    return np.stack([x[..., 0] ** 2, -2.0 * x[..., 0] * x[..., 1]], axis=-1)


def _stokes_linear_sigma(x):
    p = x[..., 0] + x[..., 1] - 1.0
    row1 = np.stack([2.0 * x[..., 0] - p, np.zeros(x.shape[:-1])], axis=-1)
    row2 = np.stack([-2.0 * x[..., 1], -2.0 * x[..., 0] - p], axis=-1)
    return np.stack([row1, row2], axis=-2)


def stokes_linear_problem() -> ProblemSpec:
    """Divergence-free quadratic velocity with an exactly linear pseudostress.

    u = (x^2, -2xy), p = x + y - 1 (zero mean on the unit square), no
    convection or reaction, f = -lap u + grad p = (-1, 1).  Every row of
    the pseudostress is a linear vector field, so the BDM1 interpolant
    represents it exactly and the discrete solution must coincide with it.
    """
    return ProblemSpec(
        name="stokes_linear",
        b=lambda x: np.zeros(x.shape),
        c=lambda x: np.zeros(x.shape[:-1]),
        f=lambda x: np.broadcast_to(np.array([-1.0, 1.0]), x.shape).copy(),
        g=_stokes_linear_u,
        initial_mesh=make_square_piecewise_uniform,
        exact_u=_stokes_linear_u,
        exact_sigma=_stokes_linear_sigma,
    )


def colamd_lu_solve(matrix: CsrMatrix, rhs: np.ndarray):
    """SuperLU with its own COLAMD column order and partial pivoting.

    The reference that ``lu_solve``, which factors in the numbering it is
    given, is compared against.  Returns ``(x, residual)``; the relative
    residual must be at most ``RTOL``.
    """
    x = scipy.sparse.linalg.splu(matrix.to_scipy().tocsc()).solve(rhs)
    residual = relative_residual(matrix.to_scipy() @ x - rhs, rhs)
    assert residual <= RTOL, f"COLAMD solve residual {residual:.3e}"
    return x, residual


def dense_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference dense LU solve with partial pivoting (oracle for lu_solve)."""
    a = a.astype(np.float64).copy()
    b = b.astype(np.float64).copy()
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
        b[k + 1 :] -= a[k + 1 :, k] * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x
