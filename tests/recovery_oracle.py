"""Reference loop implementation of the RT0 pseudostress patch recovery.

This is the per-vertex version that ``postprocess.recover_pseudostress``
replaced with array code, kept as the oracle the array version is checked
against (``tests/test_postprocess.py``).  It samples the field at the
three points of the degree-2 rule in every element and fits them with
``np.linalg.lstsq`` vertex by vertex.
"""

import numpy as np

from conftest import eval_cells, map_ref_points
from oseenstress.mesh import Mesh
from oseenstress.postprocess import RecoveredTensorField
from oseenstress.quadrature import triangle_rule
from oseenstress.spaces import PseudostressField, trace_mean


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
    pts = map_ref_points(mesh, rule.points, tris)  # (nt, 3, 2)
    vals = eval_cells(sigma_h.cellwise(), tris, pts)  # (nt, 3, 2, 2)
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

    values = values.reshape(nv, 2, 2)
    # trace-mean correction onto the zero-trace-mean space
    c = 0.5 * trace_mean(RecoveredTensorField(mesh=mesh, values=values))
    values[:, 0, 0] -= c
    values[:, 1, 1] -= c
    return RecoveredTensorField(mesh=mesh, values=values)
