"""Shared helpers for the test suite."""

import numpy as np
import scipy.sparse.linalg

from oseenstress.mesh import _GREEN_CHILDREN, Mesh, build_mesh, make_square_piecewise_uniform, red_groups, refine_marked
from oseenstress.problems import ProblemSpec
from oseenstress.spaces import CellwiseLinear
from oseenstress.sparsela import RTOL, CsrMatrix, relative_residual


def two_triangle_square() -> Mesh:
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return build_mesh(verts, tris)


def map_ref_points(mesh: Mesh, ref_pts: np.ndarray, tris=None) -> np.ndarray:
    """Reference-triangle points `ref_pts` (nq, 2) mapped into triangles `tris` (default all): (len(tris), nq, 2)."""
    if tris is None:
        tris = np.arange(mesh.nt)
    v0, v1, v2 = np.moveaxis(mesh.vertices[mesh.triangles[tris]][:, None], 2, 0)  # (m, 1, 2) each
    return v0 + ref_pts[:, :1] * (v1 - v0) + ref_pts[:, 1:] * (v2 - v0)


def eval_cells(field: CellwiseLinear, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of `field` at physical points `pts` (m, nq, 2) inside triangles `tris`: (m, nq, *value_shape)."""
    dx = pts - field.mesh.tri_centroids()[tris][:, None, :]
    mono = np.concatenate([np.ones(dx.shape[:2] + (1,)), dx], axis=2)
    c = field.coeffs[tris]
    vals = mono @ c.reshape(len(tris), -1, 3).transpose(0, 2, 1)
    return vals.reshape(dx.shape[:2] + c.shape[1:-1])


def without_hierarchy(mesh: Mesh) -> Mesh:
    """The same triangles, each row's vertices rotated, so no rows form a red group and it is solved on one level.

    The triangles keep their rows, so the velocities of the two meshes compare entry by entry.
    """
    rotated = build_mesh(mesh.vertices, np.roll(mesh.triangles, 1, axis=1), mesh.region)
    assert red_groups(rotated.triangles).size == 0
    return rotated


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes, so that a sign of zero counts too."""
    return a.dtype == b.dtype and a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def jittered(mesh: Mesh, seed: int = 0) -> Mesh:
    """The mesh with every interior vertex moved by 2% of its shortest edge, in a seeded direction.

    No two triangles that touch an interior vertex keep one shape.
    """
    shortest = np.full(mesh.nv, np.inf)
    np.minimum.at(shortest, mesh.edges.ravel(), np.repeat(mesh.edge_lengths(), 2))
    angle = 2.0 * np.pi * np.random.default_rng(seed).random(mesh.nv)
    step = 0.02 * shortest[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    step[mesh.boundary_vertices()] = 0.0
    return build_mesh(mesh.vertices + step, mesh.triangles, mesh.region)


def assert_shape_classes(mesh: Mesh, ulps: int = 0):
    """``mesh.shape_classes()`` against the edge vectors: every member within 1e-13 of its class's first triangle.

    The edge vectors ``x1 - x0`` and ``x2 - x0`` are divided by the first
    one's length.  With `ulps`, a member may differ by that many units in
    the last place of its largest corner coordinate over that length
    where this is coarser: each midpoint of a refinement rounds once, so
    a deep adaptive mesh stores its small triangles' shapes no closer.
    The tri_signs agree, each triangle's scale is that length over its
    first triangle's, and the classes are numbered by their first
    triangle, each first triangle its class's lowest.
    """
    classes, first, scale = mesh.shape_classes()
    assert first[0] == 0 and np.all(np.diff(first) > 0)
    assert np.array_equal(classes[first], np.arange(first.size))
    assert np.all(first[classes] <= np.arange(mesh.nt))
    corners = mesh.vertices[mesh.triangles]
    edges = np.concatenate([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=1)
    length = np.linalg.norm(edges[:, :2], axis=1)
    shape = edges / length[:, None]
    resolution = ulps * np.finfo(float).eps * np.abs(corners).max(axis=(1, 2)) / length
    assert np.all(np.abs(shape - shape[first[classes]]).max(axis=1) <= np.maximum(1e-13, resolution))
    assert np.array_equal(mesh.tri_signs, mesh.tri_signs[first[classes]])
    assert np.abs(scale - length / length[first[classes]]).max() <= 1e-15 * scale.max()


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


def refine_bisecting_green_halves_again(mesh: Mesh, marked) -> Mesh:
    """``refine_marked``, then each green half bisected again, as refinement never does.

    The two halves of a pair share the edge from their parent's apex to
    its split midpoint; a new vertex at that edge's midpoint bisects both,
    so the mesh stays conforming.  The pairs are not recorded.
    """
    refined = refine_marked(mesh, marked)
    pairs = refined.green_pairs
    vertices, triangles = refined.vertices, refined.triangles
    halves = triangles[pairs]  # (ng, 2, 3)
    inner = (halves[:, :, :, None] == halves[:, ::-1, None, :]).any(axis=3)  # vertices on the shared edge
    corner = np.argmin(inner, axis=2)  # each half's vertex off it, opposite the shared local edge
    ends = halves[:, 0][inner[:, 0]].reshape(-1, 2)
    new = len(vertices) + np.arange(len(pairs))
    children = np.concatenate([halves, np.broadcast_to(new[:, None, None], (len(pairs), 2, 1))], axis=2)
    split = np.take_along_axis(children[:, :, None, :], _GREEN_CHILDREN[corner].reshape(len(pairs), 2, 6, 1), axis=3)
    keep = np.ones(len(triangles), dtype=bool)
    keep[pairs.ravel()] = False
    return build_mesh(
        np.vstack([vertices, vertices[ends].mean(axis=1)]),
        np.vstack([triangles[keep], split.reshape(-1, 3)]),
        np.concatenate([refined.region[keep], np.repeat(refined.region[pairs.ravel()], 2)]),
    )


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
