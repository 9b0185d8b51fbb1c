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
  piecewise-linear tensor field by patch least squares: for every
  interior vertex, each tensor component is sampled at the 3-point
  interior quadrature nodes of the surrounding elements and fitted with a
  linear polynomial; the fit's value at the vertex is the recovered
  value.  Boundary vertices take a linear extrapolation through nearby
  interior vertex values (one-sided patch fits would lose an order
  there); degenerate cases fall back to the nearest interior fit, the
  vertex's own patch fit, and finally the patch average.  A trace-mean
  correction keeps the recovered field in the zero-trace-mean space.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
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
        self.mesh = getattr(source, "mesh", None) or source.space.mesh

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        vals = self.source.eval_cells(tris, pts)
        return -0.5 * (vals[..., 0, 0] + vals[..., 1, 1])


class SymmetricStressField:
    """Symmetric part ``(sigma + sigma^T) / 2`` of a tensor field."""

    def __init__(self, source):
        self.source = source
        self.mesh = getattr(source, "mesh", None) or source.space.mesh

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


def _vertex_neighbors(mesh: Mesh):
    """CSR-style vertex-to-vertex adjacency built from the edge list."""
    e = mesh.edges
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=mesh.nv)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return dst[order], offsets


def recover_pseudostress(sigma_h: PseudostressField) -> RecoveredTensorField:
    """Patch least-squares recovery of an RT0 pseudostress at the vertices.

    Interior vertices fit a linear polynomial (per tensor component) to
    the field sampled at three interior points of every patch element;
    the fit's value at the vertex is second-order accurate there because
    sampling errors cancel on (asymptotically) point-symmetric patches.
    Boundary patches are one-sided, so boundary vertices instead take a
    linear extrapolation through nearby interior vertex values, which
    preserves the second-order accuracy.  Fallback chain when a step is
    not available (too few points, rank-deficient geometry): nearest
    interior fit evaluated at the vertex, then the vertex's own patch
    fit, then the plain patch average.

    Raises
    ------
    ValueError
        For BDM1 input; recovery is defined for the RT0 pairing only.
    """
    space = sigma_h.space
    if space.kind != "rt0":
        raise ValueError("patch recovery is defined for RT0 pseudostress fields only")
    mesh = space.mesh
    nv, nt = mesh.nv, mesh.nt

    rule = triangle_rule(2)  # 3 interior sampling nodes per element
    tris = np.arange(nt)
    pts = mesh.map_ref_points(rule.points, tris)  # (nt, 3, 2)
    vals = sigma_h.eval_cells(tris, pts)  # (nt, 3, 2, 2)
    samples = vals.reshape(nt, 3, 4)  # columns: s11 s12 s21 s22

    # vertex -> element adjacency
    flat = mesh.triangles.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=nv)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    patch_elems = order // 3

    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[mesh.boundary_vertices()] = True

    def own_patch_fit(v: int):
        """Linear LSQ fit over the vertex's own patch samples, or None."""
        elems = patch_elems[offsets[v] : offsets[v + 1]]
        if elems.size < 3:
            return None
        p = pts[elems].reshape(-1, 2)
        b = samples[elems].reshape(-1, 4)
        rel = p - mesh.vertices[v]
        s = float(np.abs(rel).max())
        a = np.column_stack([np.ones(rel.shape[0]), rel[:, 0] / s, rel[:, 1] / s])
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < 3:
            return None
        return sol, s

    poly = np.zeros((nv, 3, 4))  # per vertex: coefficients over {1, dx/s, dy/s}
    scale = np.ones(nv)
    fitted = np.zeros(nv, dtype=bool)
    for v in np.flatnonzero(~on_boundary):
        fit = own_patch_fit(v)
        if fit is None:
            continue
        poly[v], scale[v] = fit
        fitted[v] = True

    values = poly[:, 0, :].copy()  # fit value at the vertex is the constant term
    interior_fitted = np.flatnonzero(fitted)
    neigh, noff = _vertex_neighbors(mesh)

    def nearby_sources(v: int) -> np.ndarray:
        """Fitted interior vertices in the 1-ring, widened to the 2-ring."""
        ring1 = neigh[noff[v] : noff[v + 1]]
        src = ring1[fitted[ring1]]
        if src.size >= 3:
            return src
        ring2 = np.unique(np.concatenate([neigh[noff[u] : noff[u + 1]] for u in ring1]))
        ring2 = ring2[(ring2 != v) & fitted[ring2]]
        return ring2

    def extrapolate(v: int, src: np.ndarray):
        """Value at v of the linear fit through the source vertex values."""
        rel = mesh.vertices[src] - mesh.vertices[v]
        s = float(np.abs(rel).max())
        if s == 0.0:
            return None
        a = np.column_stack([np.ones(src.size), rel[:, 0] / s, rel[:, 1] / s])
        sol, _, rank, sv = np.linalg.lstsq(a, values[src], rcond=None)
        if rank < 3 or sv[-1] < 1e-3 * sv[0]:
            return None  # (nearly) collinear sources
        return sol[0]

    def donor_value(v: int):
        """Nearest interior fit's polynomial evaluated at v."""
        if interior_fitted.size == 0:
            return None
        d = interior_fitted[
            np.argmin(np.linalg.norm(mesh.vertices[interior_fitted] - mesh.vertices[v], axis=1))
        ]
        rel = (mesh.vertices[v] - mesh.vertices[d]) / scale[d]
        return poly[d, 0] + rel[0] * poly[d, 1] + rel[1] * poly[d, 2]

    def patch_average(v: int) -> np.ndarray:
        elems = patch_elems[offsets[v] : offsets[v + 1]]
        return samples[elems].reshape(-1, 4).mean(axis=0)

    for v in range(nv):
        if fitted[v]:
            continue
        value = None
        if on_boundary[v]:
            src = nearby_sources(v)
            if src.size >= 3:
                value = extrapolate(v, src)
        if value is None:
            value = donor_value(v)
        if value is None:
            fit = own_patch_fit(v)
            value = fit[0][0] if fit is not None else patch_average(v)
        values[v] = value

    field = RecoveredTensorField(mesh=mesh, values=values.reshape(nv, 2, 2))
    # trace-mean correction onto the zero-trace-mean space
    c = 0.5 * trace_mean(field)
    field.values[:, 0, 0] -= c
    field.values[:, 1, 1] -= c
    return field
