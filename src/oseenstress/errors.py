"""L2 error norms, supercloseness measures and convergence-order fits.

Norms against analytic functions use quadrature, a degree-6 triangle rule
by default; when the analytic solution has a corner singularity, elements
touching the corner are geometrically subdivided toward it before the rule
is applied.  Every discrete field f_h is of degree <= 1 on each element,
and the rule integrates quadratics exactly, so the quadrature sum splits
exactly as

    sum w |f_h - f|^2 = ||f_h - Pi f||^2 + sum w |f - Pi f|^2 ,

with Pi f the L2 projection of the analytic field f onto cellwise linears
in the same rule (:func:`project_exact`).  The first term is an exact
cellwise Gram norm (:meth:`~oseenstress.spaces.CellwiseLinear.sq_norms`),
the second depends on f alone; so a projection taken once per mesh serves
the error of every field measured against f.  The distance between two
discrete fields is likewise an exact Gram norm, with no quadrature.

Convergence orders are least-squares slopes of log(error) against log(h)
with h proportional to nt^(-1/2), excluding the first (coarsest) row.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import Mesh
from .quadrature import triangle_rule
from .spaces import CellwiseLinear, PseudostressField, VelocityField

__all__ = [
    "ErrorRow",
    "ExactProjection",
    "project_exact",
    "l2_error",
    "supercloseness",
    "hdiv_error",
    "fit_orders",
    "fit_order",
]


@dataclass
class ErrorRow:
    """Error norms measured on one mesh level."""

    level: int
    nt: int
    ndofs: int
    err_u: Optional[float] = None  # ||u - u_h||
    err_eh: Optional[float] = None  # ||P_h u - u_h|| (velocity supercloseness)
    err_ustar: Optional[float] = None  # ||u - u*|| (postprocessed velocity)
    err_sigma: Optional[float] = None  # ||sigma - sigma_h||
    err_xih: Optional[float] = None  # ||Pi_h sigma - sigma_h|| (supercloseness)
    err_sigmastar: Optional[float] = None  # ||sigma - sigma*|| (recovered)
    err_div: Optional[float] = None  # ||div(sigma - sigma_h)||
    err_rho: Optional[float] = None  # ||u - P_h u|| (projection error)
    err_zeta: Optional[float] = None  # ||sigma - Pi_h sigma|| (interpolation error)

    ERROR_COLUMNS = (
        "err_u",
        "err_eh",
        "err_ustar",
        "err_sigma",
        "err_xih",
        "err_sigmastar",
        "err_div",
        "err_rho",
        "err_zeta",
    )


def _subdivide_toward(verts: np.ndarray, corner: np.ndarray, depth: int):
    """Geometric subdivision of one triangle toward a corner vertex.

    Red-splits the triangle; children still touching the corner are split
    again until `depth` levels are reached.  Returns an array of
    subtriangle vertex coordinates, shape (m, 3, 2).
    """
    work = [(verts, depth)]
    out = []
    while work:
        v, d = work.pop()
        if d == 0:
            out.append(v)
            continue
        m01 = 0.5 * (v[0] + v[1])
        m12 = 0.5 * (v[1] + v[2])
        m20 = 0.5 * (v[2] + v[0])
        children = [
            np.array([v[0], m01, m20]),
            np.array([v[1], m12, m01]),
            np.array([v[2], m20, m12]),
            np.array([m01, m12, m20]),
        ]
        for child in children:
            touches = np.any(np.all(np.abs(child - corner) < 1e-14, axis=1))
            if touches:
                work.append((child, d - 1))
            else:
                out.append(child)
    return np.array(out)


@dataclass(frozen=True)
class ExactProjection:
    """An analytic field projected onto cellwise linears in one quadrature rule.

    `field` is the projection Pi f; `rest` is the rule's sum of
    ``w |f - Pi f|^2`` over the mesh.
    """

    field: CellwiseLinear
    rest: float


def project_exact(
    mesh: Mesh,
    exact,
    degree: int = 6,
    singular_corner=None,
    corner_depth: int = 1,
) -> ExactProjection:
    """L2 projection of an analytic field onto cellwise linears, and its residual.

    Parameters
    ----------
    mesh : Mesh
    exact : callable
        Vectorized analytic field: points (..., 2) to values
        (..., *value_shape).
    degree : int
        Triangle quadrature exactness.
    singular_corner : (float, float), optional
        Corner toward which elements are geometrically subdivided.
    corner_depth : int
        Number of subdivision levels for corner-touching elements.

    Returns
    -------
    ExactProjection
        Pi f as a :class:`~oseenstress.spaces.CellwiseLinear` of the
        analytic field's value shape, and the residual sum.

    The projection's moments are the rule's sums over each element and
    its subtriangles.  The rule is exact for quadratics, so the Gram
    matrix of {1, x - cx, y - cy} is ``|K| diag(1, S/12)``, ``S = sum_i
    d_i d_i^T`` over the vertex offsets d_i from the centroid.  The
    moments are taken of f minus its value at the element's first point,
    which is added back to the mean, so a constant f projects exactly.
    """
    rule = triangle_rule(degree)
    tris = np.arange(mesh.nt)
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    if singular_corner is not None:
        corner = np.asarray(singular_corner, dtype=np.float64)
        near = np.all(np.abs(verts - corner) < 1e-12, axis=2).any(axis=1)
        subs = [_subdivide_toward(verts[t], corner, corner_depth) for t in tris[near]]
        tris = np.concatenate([tris[~near]] + [np.full(len(sub), t) for sub, t in zip(subs, tris[near])])
        verts = np.concatenate([verts[~near]] + subs)
        order = np.argsort(tris, kind="stable")  # each element's subtriangles together
        tris, verts = tris[order], verts[order]
    first = np.searchsorted(tris, np.arange(mesh.nt))  # each element's first subtriangle

    def per_element(a):
        """Sum the last axis over each element's subtriangles."""
        return a if tris.size == mesh.nt else np.add.reduceat(a, first, axis=-1)

    # point arrays are (nq, m) and values (k, nq, m), so that every
    # per-element factor broadcasts along the long last axis
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    w = rule.weights[:, None] * (0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])  # (nq, 3)
    px = bary @ verts[:, :, 0].T
    py = bary @ verts[:, :, 1].T
    vals = np.asarray(exact(np.stack([px, py], axis=-1)), dtype=np.float64)
    if vals.shape[:2] != px.shape:
        raise ValueError(f"analytic field returned shape {vals.shape}, expected {px.shape} + value shape")
    value_shape = vals.shape[2:]
    f = np.ascontiguousarray(np.moveaxis(vals.reshape(px.shape + (-1,)), 2, 0))
    base = f[:, 0, first]  # (k, nt): f at each element's first point
    f -= base[:, tris][:, None]
    centroids = mesh.tri_centroids()[tris]
    dx = px - centroids[:, 0]
    dy = py - centroids[:, 1]
    m0, mx, my = (per_element(np.einsum("kqm,qm->km", f, t)) for t in (w, w * dx, w * dy))

    # Gram |K| diag(1, S / 12); S^-1 in closed form
    d = mesh.tri_offsets()
    sxx, sxy, syy = (np.sum(d[:, :, a] * d[:, :, b], axis=1) for a, b in ((0, 0), (0, 1), (1, 1)))
    area = mesh.tri_areas()
    scale = 12.0 / (area * (sxx * syy - sxy**2))
    mean = m0 / area
    gx = scale * (syy * mx - sxy * my)
    gy = scale * (sxx * my - sxy * mx)

    # rest: the weighted squares of f - Pi f at every point, component by component
    root_w = np.sqrt(w)
    for fk, a0, ax, ay in zip(f, mean[:, tris], gx[:, tris], gy[:, tris]):
        fk -= a0
        fk -= ax * dx
        fk -= ay * dy
        fk *= root_w
    rest = float(np.vdot(f, f))
    coeffs = np.stack([mean + base, gx, gy], axis=-1)  # (k, nt, 3)
    coeffs = np.moveaxis(coeffs, 0, 1).reshape((mesh.nt,) + value_shape + (3,))
    return ExactProjection(field=CellwiseLinear(mesh, coeffs), rest=rest)


def l2_error(
    field,
    exact,
    degree: int = 6,
    singular_corner=None,
    corner_depth: int = 1,
) -> float:
    """L2 norm of (field - exact) over the field's mesh.

    ``sqrt(||field - Pi f||^2 + rest)`` with the exact Gram norm of the
    first term; see the module docstring.

    Parameters
    ----------
    field
        Any discrete field with a ``mesh`` and a ``cellwise()``.
    exact : callable or ExactProjection
        Vectorized analytic field matching the discrete field's value
        shape, projected here with the remaining arguments; or a
        projection from :func:`project_exact` on the field's mesh, which
        carries its own rule (the remaining arguments are then unused).
    degree : int
        Triangle quadrature exactness.
    singular_corner : (float, float), optional
        Corner toward which elements are geometrically subdivided.
    corner_depth : int
        Number of subdivision levels for corner-touching elements.

    Raises
    ------
    ValueError
        If a given projection lives on another mesh, or the analytic
        field's value shape is not the discrete field's.
    """
    field = field.cellwise()
    if not isinstance(exact, ExactProjection):
        exact = project_exact(field.mesh, exact, degree, singular_corner, corner_depth)
    elif exact.field.mesh is not field.mesh:
        raise ValueError("the projection of the exact field lives on another mesh")
    if exact.field.coeffs.shape != field.coeffs.shape:
        raise ValueError(
            f"analytic field has value shape {exact.field.coeffs.shape[1:-1]}, "
            f"expected {field.coeffs.shape[1:-1]}"
        )
    return float(np.sqrt(np.sum((field - exact.field).sq_norms()) + exact.rest))


def supercloseness(field_a, field_b) -> float:
    """Exact L2 norm of the difference of two discrete fields.

    Both fields must be piecewise-constant velocities on the same mesh or
    pseudostress fields in the same space; the difference is of degree
    <= 1 on each element, so its norm is an exact Gram norm.
    """
    if isinstance(field_a, VelocityField) and isinstance(field_b, VelocityField):
        if field_a.mesh is not field_b.mesh:
            raise ValueError("velocity fields live on different meshes")
        diff = VelocityField(mesh=field_a.mesh, coeffs=field_a.coeffs - field_b.coeffs)
    elif isinstance(field_a, PseudostressField) and isinstance(field_b, PseudostressField):
        if field_a.space is not field_b.space:
            raise ValueError("pseudostress fields live in different spaces")
        diff = PseudostressField(space=field_a.space, coeffs=field_a.coeffs - field_b.coeffs)
    else:
        raise TypeError(
            "supercloseness expects two velocity fields or two pseudostress fields, "
            f"got {type(field_a).__name__} and {type(field_b).__name__}"
        )
    return float(np.sqrt(np.sum(diff.cellwise().sq_norms())))


def hdiv_error(sigma_h: PseudostressField, exact_div, degree: int = 6) -> float:
    """L2 norm of ``div(sigma) - div(sigma_h)`` (row-wise divergences).

    `exact_div` is the analytic divergence of the exact pseudostress; for
    a solution of the PDE it equals ``(dev sigma) b + c u - f``.
    """
    mesh = sigma_h.space.mesh
    rule = triangle_rule(degree)
    tris = np.arange(mesh.nt)
    pts = mesh.map_ref_points(rule.points, tris)
    div_h = sigma_h.div_cells(tris)  # (nt, 2), constant per element
    ref = np.asarray(exact_div(pts), dtype=np.float64)  # (nt, nq, 2)
    diff = ref - div_h[:, None, :]
    sq = np.sum(diff**2, axis=2)
    return float(np.sqrt(np.sum(mesh.tri_areas() * (sq @ rule.weights))))


def fit_order(nts, errs) -> float:
    """Least-squares slope of log(err) vs log(h), h ~ nt^(-1/2).

    The first (coarsest) data point is excluded from the fit.  Returns nan
    when fewer than two usable points remain or any error is nonpositive.
    """
    nts = np.asarray(nts, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    if nts.shape != errs.shape or nts.ndim != 1:
        raise ValueError("nts and errs must be 1-d arrays of equal length")
    nts = nts[1:]
    errs = errs[1:]
    if nts.size < 2 or np.any(errs <= 0.0):
        return float("nan")
    h = nts**-0.5
    slope = np.polyfit(np.log(h), np.log(errs), 1)[0]
    return float(slope)


def fit_orders(rows) -> dict:
    """Per-column convergence orders for a list of :class:`ErrorRow`.

    Only columns present (not None) in every row are fitted.
    """
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError("need at least three mesh levels to fit orders")
    nts = [row.nt for row in rows]
    out = {}
    for name in ErrorRow.ERROR_COLUMNS:
        vals = [getattr(row, name) for row in rows]
        if any(v is None for v in vals):
            continue
        out[name] = fit_order(nts, vals)
    return out
