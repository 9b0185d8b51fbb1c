"""Superconvergent postprocessing of the mixed solution.

Two constructions:

* :func:`postprocess_velocity` lifts the piecewise-constant velocity to a
  discontinuous piecewise-linear field element by element.  On each
  triangle the lifted field keeps the cell mean of ``u_h`` and its
  (constant) gradient matches the moments of the discrete pseudostress and
  its derived pressure, i.e. the mean of the deviatoric part of
  ``sigma_h``.  The local problem is a 6x6 linear system (two mean
  constraints + four gradient moments) solved directly.

* :func:`recover_pseudostress` maps an RT0 pseudostress to a continuous
  piecewise-linear tensor field by superconvergent patch recovery: each
  tensor component is sampled at the 3-point interior quadrature nodes of
  the elements around an interior vertex and fitted with a linear
  polynomial; the fit's value at the vertex is the recovered value.
  Boundary vertices take a linear extrapolation through nearby interior
  vertex values (one-sided patch fits would lose an order there);
  degenerate cases fall back to the nearest interior fit, the vertex's own
  patch fit, and finally the patch average.  There is no loop over
  vertices: all patch fits are one batched SVD least-squares solve, all
  extrapolations another.  A trace-mean correction keeps the recovered
  field in the zero-trace-mean space.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import Mesh, group_rows
from .quadrature import triangle_rule
from .spaces import PseudostressField, VelocityField, trace_mean

__all__ = [
    "P1VelocityField",
    "RecoveredTensorField",
    "DerivedPressureField",
    "SymmetricStressField",
    "postprocess_velocity",
    "recover_pseudostress",
    "derived_pressure",
    "symmetric_stress",
]


@dataclass
class P1VelocityField:
    """Discontinuous piecewise-linear velocity.

    coeffs[t, r] = (a0, a1, a2) represents component r on triangle t as
    ``a0 + a1 (x - cx) + a2 (y - cy)`` with (cx, cy) the element centroid.
    """

    mesh: Mesh
    coeffs: np.ndarray  # (nt, 2, 3)
    centroids: np.ndarray  # (nt, 2)

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """(m, nq, 2) values at physical points inside the given triangles."""
        dx = pts - self.centroids[tris][:, None, :]
        mono = np.concatenate([np.ones(dx.shape[:2] + (1,)), dx], axis=2)
        return np.einsum("trm,tqm->tqr", self.coeffs[tris], mono)

    def cell_means(self) -> np.ndarray:
        """(2, nt) cell means (the constant coefficients, by centering)."""
        return self.coeffs[:, :, 0].T.copy()


@dataclass
class RecoveredTensorField:
    """Continuous piecewise-linear tensor field from vertex values.

    values[v] is the 2x2 recovered tensor at vertex v; inside an element
    the field is the barycentric interpolation of its vertex values.
    """

    mesh: Mesh
    values: np.ndarray  # (nv, 2, 2)

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """(m, nq, 2, 2) values at physical points inside the triangles."""
        mesh = self.mesh
        v = mesh.vertices[mesh.triangles[tris]]  # (m, 3, 2)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rel = pts - v[:, 0][:, None, :]
        lam1 = (rel[..., 0] * d2[:, None, 1] - rel[..., 1] * d2[:, None, 0]) / det[:, None]
        lam2 = (d1[:, None, 0] * rel[..., 1] - d1[:, None, 1] * rel[..., 0]) / det[:, None]
        lam0 = 1.0 - lam1 - lam2
        lam = np.stack([lam0, lam1, lam2], axis=2)  # (m, nq, 3)
        vv = self.values[mesh.triangles[tris]]  # (m, 3, 2, 2)
        return np.einsum("tqk,tkrc->tqrc", lam, vv)

    def trace_integral(self) -> float:
        """Exact integral of the trace (linear per element)."""
        mesh = self.mesh
        tr = self.values[:, 0, 0] + self.values[:, 1, 1]
        cell = tr[mesh.triangles].mean(axis=1)
        return float(np.sum(mesh.tri_areas() * cell))


class DerivedPressureField:
    """Pressure ``-(1/2) tr`` of a tensor field, evaluated on demand."""

    def __init__(self, source):
        self.source = source
        self.mesh = source.mesh

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        vals = self.source.eval_cells(tris, pts)
        return -0.5 * (vals[..., 0, 0] + vals[..., 1, 1])


class SymmetricStressField:
    """Symmetric part ``(sigma + sigma^T) / 2`` of a tensor field."""

    def __init__(self, source):
        self.source = source
        self.mesh = source.mesh

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        vals = self.source.eval_cells(tris, pts)
        return 0.5 * (vals + np.swapaxes(vals, -1, -2))


def derived_pressure(field) -> DerivedPressureField:
    """Pressure recovered from a pseudostress-like tensor field."""
    return DerivedPressureField(field)


def symmetric_stress(field) -> SymmetricStressField:
    """Symmetric (true) stress part of a pseudostress-like tensor field."""
    return SymmetricStressField(field)


def postprocess_velocity(sigma_h: PseudostressField, u_h: VelocityField) -> P1VelocityField:
    """Element-local lift of the velocity to discontinuous P1.

    On each element K the lifted field w satisfies

        (w, v)_K      = (u_h, v)_K               for constant v,
        (grad w, grad v)_K = (sigma_h, grad v)_K + (p_h, div v)_K
                                                 for linear mean-free v,

    with the derived pressure ``p_h = -(1/2) tr sigma_h``.  The local 6x6
    systems are assembled with a degree-2 rule (exact here) and solved
    directly; mean preservation holds by construction.
    """
    mesh = u_h.mesh
    if sigma_h.space.mesh is not mesh:
        raise ValueError("sigma and velocity live on different meshes")
    nt = mesh.nt
    area = mesh.tri_areas()
    centroids = mesh.tri_centroids()
    rule = triangle_rule(2)
    tris = np.arange(nt)
    pts = mesh.map_ref_points(rule.points, tris)
    dx = pts - centroids[:, None, :]
    mono = np.concatenate([np.ones(dx.shape[:2] + (1,)), dx], axis=2)  # (nt, nq, 3)
    mono_int = area[:, None] * np.einsum("q,tqm->tm", rule.weights, mono)

    sig = sigma_h.eval_cells(tris, pts)  # (nt, nq, 2, 2)
    sig_int = area[:, None, None] * np.einsum("q,tqrc->trc", rule.weights, sig)
    tr_int = sig_int[:, 0, 0] + sig_int[:, 1, 1]
    p_int = -0.5 * tr_int  # integral of the derived pressure

    mat = np.zeros((nt, 6, 6))
    rhs = np.zeros((nt, 6))
    # mean constraints: rows 0 (component 1) and 1 (component 2)
    mat[:, 0, 0:3] = mono_int
    mat[:, 1, 3:6] = mono_int
    rhs[:, 0] = area * u_h.coeffs[0]
    rhs[:, 1] = area * u_h.coeffs[1]
    # gradient moments: test gradients pick single entries of grad w
    for row, (r, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)), start=2):
        mat[:, row, 3 * r + 1 + c] = area
        rhs[:, row] = sig_int[:, r, c] + (p_int if r == c else 0.0)
    try:
        sol = np.linalg.solve(mat, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - needs degenerate cell
        raise RuntimeError(f"singular local postprocessing system: {exc}") from exc
    coeffs = sol.reshape(nt, 2, 3)
    return P1VelocityField(mesh=mesh, coeffs=coeffs, centroids=centroids)


def _fit_linear(rel: np.ndarray, vals: np.ndarray, count: np.ndarray):
    """Batched least-squares fits ``vals ~ c0 + c1 dx/s + c2 dy/s``.

    Fit i uses the first ``count[i]`` rows of `rel` (k, m, 2), the offsets
    from its centre, and of `vals` (k, m, 4); s is its largest offset
    component.  Padding rows are zeroed, which changes neither the
    solution nor the singular values, so one SVD of the stack matches
    ``np.linalg.lstsq`` fit by fit, rank rule included (cutoff
    ``eps * max(count, 3) * sv_max``).  Returns ``coef`` (k, 3, 4), ``s``,
    ``rank`` and ``sv`` (k, 3).
    """
    real = (np.arange(rel.shape[1]) < count[:, None])[..., None]
    rel = np.where(real, rel, 0.0)
    s = np.abs(rel).max(axis=(1, 2))
    a = np.concatenate([real.astype(float), rel / np.where(s > 0, s, 1.0)[:, None, None]], axis=2)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > np.finfo(float).eps * np.maximum(count, 3)[:, None] * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    ub = np.swapaxes(u, 1, 2) @ np.where(real, vals, 0.0)
    return np.swapaxes(vt, 1, 2) @ (inv[:, :, None] * ub), s, keep.sum(axis=1), sv


def recover_pseudostress(sigma_h: PseudostressField) -> RecoveredTensorField:
    """Patch least-squares recovery of an RT0 pseudostress at the vertices.

    Each tensor component is sampled at three interior points of every
    element.  Interior vertices fit a linear polynomial to the samples of
    their patch; its value at the vertex is second-order accurate because
    sampling errors cancel on (asymptotically) point-symmetric patches.
    Boundary patches are one-sided, so boundary vertices instead take a
    linear extrapolation through nearby fitted interior vertex values.
    Each kind of fit is one batched solve.  A vertex takes the first of:

    1. interior: its patch fit (at least 3 elements, rank 3);
    2. boundary: the fit through the fitted vertices of its 1-ring, or of
       its neighbours' 1-rings if the 1-ring has fewer than 3; it needs at
       least 3 sources, rank 3 and ``sv_min >= 1e-3 sv_max``;
    3. the nearest fitted interior vertex's polynomial (lowest index on ties);
    4. its own patch fit;
    5. the patch average.

    Raises
    ------
    ValueError
        For BDM1 input; recovery is defined for the RT0 pairing only.
    """
    space = sigma_h.space
    if space.kind != "rt0":
        raise ValueError("patch recovery is defined for RT0 pseudostress fields only")
    mesh = space.mesh
    nv, nt, x = mesh.nv, mesh.nt, mesh.vertices

    rule = triangle_rule(2)  # 3 interior sampling nodes per element
    pts = mesh.map_ref_points(rule.points)  # (nt, 3, 2)
    samples = sigma_h.eval_cells(np.arange(nt), pts).reshape(nt, 3, 4)  # s11 s12 s21 s22

    # every vertex's own patch fit, over coefficients {1, dx/s, dy/s}
    patch = group_rows(mesh.triangles, nv) // 3  # (nv, w) patch elements, -1 padded
    n_elems = (patch >= 0).sum(axis=1)
    rows = 3 * patch.shape[1]
    poly, scale, rank, _ = _fit_linear(
        pts[patch].reshape(nv, rows, 2) - x[:, None], samples[patch].reshape(nv, rows, 4), 3 * n_elems
    )
    own = (n_elems >= 3) & (rank == 3)
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[mesh.boundary_vertices()] = True
    fitted = own & ~on_boundary
    values = np.where(fitted[:, None], poly[:, 0], 0.0)  # fit value at the vertex is the constant term
    todo = ~fitted

    # boundary sources: the fitted 1-ring, widened to the 2-ring if short
    tail, head = mesh.edges.T.ravel(), mesh.edges[:, ::-1].T.ravel()
    ring1 = on_boundary[tail] & fitted[head]
    short = np.bincount(tail[ring1], minlength=nv) < 3
    ring1 &= ~short[tail]
    wide = np.flatnonzero(on_boundary & short)
    adj = sparse.csr_matrix((np.ones(tail.size), (tail, head)), shape=(nv, nv))
    ring2 = (adj[wide] @ adj).tocoo()
    dst = np.concatenate([tail[ring1], wide[ring2.row]])
    src = np.concatenate([head[ring1], ring2.col])
    pick = fitted[src]  # never v itself: boundary vertices are not fitted
    bnd = np.flatnonzero(on_boundary)
    src = group_rows(dst[pick], nv, width=3, values=src[pick])[bnd]  # (nb, m), -1 padded
    count = (src >= 0).sum(axis=1)
    ext, _, _, sv = _fit_linear(x[src] - x[bnd, None], values[src], count)
    ok = (count >= 3) & (sv[:, 2] >= 1e-3 * sv[:, 0])  # implies rank 3 and s > 0
    values[bnd[ok]] = ext[ok, 0]
    todo[bnd[ok]] = False

    donors = np.flatnonzero(fitted)
    if donors.size:
        need = np.flatnonzero(todo)
        d = donors[np.argmin(np.linalg.norm(x[donors] - x[need, None], axis=2), axis=1)]
        rel = (x[need] - x[d]) / scale[d, None]
        values[need] = poly[d, 0] + rel[:, :1] * poly[d, 1] + rel[:, 1:] * poly[d, 2]
        todo[need] = False
    values[todo & own] = poly[todo & own, 0]
    rest = np.flatnonzero(todo & ~own)
    in_patch = (patch[rest] >= 0)[:, :, None, None]
    values[rest] = np.where(in_patch, samples[patch[rest]], 0.0).sum(axis=(1, 2)) / (3 * n_elems[rest, None])

    field = RecoveredTensorField(mesh=mesh, values=values.reshape(nv, 2, 2))
    # trace-mean correction onto the zero-trace-mean space
    c = 0.5 * trace_mean(field)
    field.values[:, 0, 0] -= c
    field.values[:, 1, 1] -= c
    return field
