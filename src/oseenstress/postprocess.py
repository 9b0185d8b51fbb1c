"""Superconvergent postprocessing of the mixed solution.

Two constructions:

* :func:`postprocess_velocity` lifts the piecewise-constant velocity to a
  discontinuous piecewise-linear field element by element.  On each
  triangle the lifted field keeps the cell mean of ``u_h`` and its
  (constant) gradient matches the moments of the discrete pseudostress and
  its derived pressure, i.e. the mean of the deviatoric part of
  ``sigma_h``.  The local problem has a closed form, so the lift is one
  array expression.

* :func:`recover_pseudostress` maps an RT0 pseudostress to a continuous
  piecewise-linear tensor field by superconvergent patch recovery: each
  tensor component is sampled at the 3-point interior quadrature nodes of
  the elements around an interior vertex and fitted with a linear
  polynomial; the fit's value at the vertex is the recovered value.
  Boundary vertices take a linear extrapolation through nearby interior
  vertex values (one-sided patch fits would lose an order there);
  degenerate cases fall back to the nearest interior fit, the vertex's own
  patch fit, and finally the patch average.  There is no loop over
  vertices: the patch fits are solved in closed form from cell moments,
  the extrapolations by one batched SVD.  A trace-mean correction keeps
  the recovered field in the zero-trace-mean space.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .mesh import Mesh, _frame, _read_only, group_rows
from .spaces import CellwiseLinear, PseudostressField, VelocityField, apply_deviatoric, trace_mean

__all__ = ["RecoveredTensorField", "postprocess_velocity", "recover_pseudostress"]

# most entries of the distance table of the nearest-donor fallback at a time
_DONOR_ENTRIES = 1 << 18


@dataclass(frozen=True)
class RecoveredTensorField:
    """Continuous piecewise-linear tensor field from vertex values.

    values[v] is the 2x2 recovered tensor at vertex v; inside an element
    the field is the barycentric interpolation of its vertex values.  The
    field keeps a read-only copy of them, so its cellwise form is computed
    once and cannot go stale.
    """

    mesh: Mesh
    values: np.ndarray  # (nv, 2, 2)

    def __post_init__(self):
        object.__setattr__(self, "values", *_read_only(np.array(self.values, dtype=np.float64)))

    def cell_means(self) -> np.ndarray:
        """Cell means, shape (2, 2, nt): the mean of each cell's three vertex values."""
        return np.moveaxis(self.values[self.mesh.triangles].mean(axis=1), 0, -1)

    def cellwise(self) -> CellwiseLinear:
        """The interpolant on every element, value shape (2, 2); read-only.

        The cell mean is the mean of the three vertex values; the gradient
        solves ``[d1 d2]^T g = [f1 - f0, f2 - f0]`` with ``d_i = x_i - x_0``.
        """
        return self._cellwise

    @cached_property
    def _cellwise(self) -> CellwiseLinear:
        mesh = self.mesh
        f = self.values[mesh.triangles]  # (nt, 3, 2, 2)
        d1, d2, det = _frame(mesh.vertices[mesh.triangles])
        f1, f2 = f[:, 1] - f[:, 0], f[:, 2] - f[:, 0]
        gx = (d2[:, 1, None, None] * f1 - d1[:, 1, None, None] * f2) / det[:, None, None]
        gy = (d1[:, 0, None, None] * f2 - d2[:, 0, None, None] * f1) / det[:, None, None]
        return CellwiseLinear(mesh, *_read_only(np.stack([f.mean(axis=1), gx, gy], axis=-1)))


def postprocess_velocity(sigma_h: PseudostressField, u_h: VelocityField) -> CellwiseLinear:
    """Element-local lift of the velocity to discontinuous P1.

    On each element K the lifted field w satisfies

        (w, v)_K      = (u_h, v)_K               for constant v,
        (grad w, grad v)_K = (sigma_h, grad v)_K + (p_h, div v)_K
                                                 for linear mean-free v,

    with the derived pressure ``p_h = -(1/2) tr sigma_h``.  Testing with
    v = x - cx and v = y - cy picks single entries of the constant
    ``grad w``, so ``grad w = dev(mean_K sigma_h)`` and

        w = u_h + dev(mean_K sigma_h) (x - c_K).
    """
    mesh = u_h.mesh
    if sigma_h.space.mesh is not mesh:
        raise ValueError("sigma and velocity live on different meshes")
    coeffs = u_h.cellwise().coeffs
    coeffs[:, :, 1:] = apply_deviatoric(sigma_h.cellwise().coeffs[..., 0])  # the cell means
    return CellwiseLinear(mesh, coeffs)


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


def _patch_fits(sigma_h: PseudostressField):
    """Each vertex's least-squares fit ``c0 + g.(x - x_v)`` to sigma_h at the degree-2 nodes of its patch.

    sigma_h is ``mean + grad.(x - c_K)`` on each cell, and the rule has
    equal weights and is exact for quadratics, so with e = c_K - x_v and
    M_K the second moments a cell's three nodes add 3x (1, e, e e^T + M_K,
    mean, e mean + M_K grad) to the normal equations; ``np.bincount`` sums
    them per vertex.  Returns ``own`` (nv,), true for at least 3 elements
    and a positive determinant (a cell's nodes are never collinear), and
    per vertex, components s11 s12 s21 s22 last: c0 (nv, 4), g (nv, 2, 4)
    and the patch average (nv, 4).
    """
    mesh = sigma_h.space.mesh
    nv, nt, x = mesh.nv, mesh.nt, mesh.vertices
    corner = mesh.triangles.T  # (3, nt)
    ex, ey = mesh.tri_centroids().T[:, None] - x.T[:, corner]  # (3, nt) each
    m = mesh.tri_second_moments()
    mxx, mxy, myy = m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]
    mean, gx, gy = sigma_h.cellwise().coeffs.reshape(nt, 4, 3).T[:, :, None]  # (4, 1, nt) each: s11 s12 s21 s22
    rows = np.empty((17, 3, nt))
    rows[0], rows[1], rows[2:6] = ex, ey, mean
    rows[6], rows[7], rows[8] = ex * ex + mxx, ex * ey + mxy, ey * ey + myy
    rows[9:13] = ex * mean + (mxx * gx + mxy * gy)
    rows[13:] = ey * mean + (mxy * gx + myy * gy)
    corner = corner.ravel()
    n_elems = np.bincount(corner, minlength=nv)
    avg = np.array([np.bincount(corner, r, minlength=nv) for r in rows.reshape(17, -1)]) / n_elems  # patch means
    # eliminating c0 leaves the centred 2x2 system [[cxx, cxy], [cxy, cyy]] g = (bx, by)
    ax, ay, average = avg[0], avg[1], avg[2:6]
    cxx, cxy, cyy = avg[6] - ax * ax, avg[7] - ax * ay, avg[8] - ay * ay
    bx, by = avg[9:13] - ax * average, avg[13:] - ay * average
    det = cxx * cyy - cxy**2
    own = (n_elems >= 3) & np.isfinite(det) & (det > 0)
    det = np.where(own, det, 1.0)
    grad = np.stack([cyy * bx - cxy * by, cxx * by - cxy * bx]) / det  # (2, 4, nv)
    return own, (average - ax * grad[0] - ay * grad[1]).T, grad.transpose(2, 0, 1), average.T


def recover_pseudostress(sigma_h: PseudostressField) -> RecoveredTensorField:
    """Patch least-squares recovery of an RT0 pseudostress at the vertices.

    Each tensor component is sampled at three interior points of every
    element.  Interior vertices fit a linear polynomial to the samples of
    their patch; its value at the vertex is second-order accurate because
    sampling errors cancel on (asymptotically) point-symmetric patches.
    Boundary patches are one-sided, so boundary vertices instead take a
    linear extrapolation through nearby fitted interior vertex values.
    The patch fits are solved in closed form (:func:`_patch_fits`), the
    extrapolations by one batched SVD.  A vertex takes the first of:

    1. interior: its patch fit (at least 3 elements, determinant > 0);
    2. boundary: the fit through the fitted vertices of its 1-ring, or of
       its neighbours' 1-rings if the 1-ring has fewer than 3; it needs at
       least 3 sources, rank 3 and ``sv_min >= 1e-3 sv_max``;
    3. the nearest fitted interior vertex's polynomial (lowest index on
       ties), searched in blocks of at most ``_DONOR_ENTRIES`` distances;
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
    nv, x = mesh.nv, mesh.vertices

    own, at_vertex, grad, average = _patch_fits(sigma_h)
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[mesh.boundary_vertices()] = True
    fitted = own & ~on_boundary
    values = np.where(fitted[:, None], at_vertex, 0.0)
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
        # the (vertices, donors) distances in blocks of at most _DONOR_ENTRIES, or one vertex
        d = np.empty_like(need)
        step = max(_DONOR_ENTRIES // donors.size, 1)
        for at in range(0, need.size, step):
            block = need[at : at + step]
            d[at : at + step] = donors[np.argmin(np.linalg.norm(x[donors] - x[block, None], axis=2), axis=1)]
        values[need] = at_vertex[d] + np.einsum("ni,nik->nk", x[need] - x[d], grad[d])
        todo[need] = False
    values[todo & own] = at_vertex[todo & own]
    values[todo & ~own] = average[todo & ~own]

    # trace-mean correction onto the zero-trace-mean space
    recovered = RecoveredTensorField(mesh=mesh, values=values.reshape(nv, 2, 2))
    return RecoveredTensorField(mesh=mesh, values=recovered.values - 0.5 * trace_mean(recovered) * np.eye(2))
