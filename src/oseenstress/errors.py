"""L2 error norms, supercloseness measures and convergence-order fits.

All norms are quadrature-based.  Norms against analytic functions default
to a degree-6 triangle rule; differences of discrete fields use a degree-4
rule, which integrates their (at most quadratic) integrands exactly.  When
the analytic solution has a corner singularity, elements touching the
corner are geometrically subdivided toward it before the rule is applied.

Convergence orders are least-squares slopes of log(error) against log(h)
with h proportional to nt^(-1/2), excluding the first (coarsest) row.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import triangle_rule
from .spaces import PseudostressField, VelocityField

__all__ = ["ErrorRow", "l2_error", "supercloseness", "hdiv_error", "fit_orders", "fit_order"]


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


def _eval_sq_diff(field, exact, tris, pts):
    """Pointwise squared Frobenius difference, shape (m, nq)."""
    vals = field.eval_cells(tris, pts)
    ref = np.asarray(exact(pts), dtype=np.float64)
    if ref.shape != vals.shape:
        raise ValueError(
            f"analytic field returned shape {ref.shape}, expected {vals.shape}"
        )
    diff = vals - ref
    return np.sum(diff.reshape(diff.shape[:2] + (-1,)) ** 2, axis=2)


def l2_error(
    field,
    exact,
    degree: int = 6,
    singular_corner=None,
    corner_depth: int = 1,
) -> float:
    """L2 norm of (field - exact) over the field's mesh.

    Parameters
    ----------
    field
        Any field object with a ``mesh`` and ``eval_cells(tris, physical_points)``.
    exact : callable
        Vectorized analytic field matching the discrete field's value shape.
    degree : int
        Triangle quadrature exactness.
    singular_corner : (float, float), optional
        Corner toward which elements are geometrically subdivided.
    corner_depth : int
        Number of subdivision levels for corner-touching elements.
    """
    mesh = field.mesh
    rule = triangle_rule(degree)
    tris = np.arange(mesh.nt)
    area = mesh.tri_areas()

    corner_tris = np.empty(0, dtype=np.int64)
    if singular_corner is not None:
        corner = np.asarray(singular_corner, dtype=np.float64)
        touch = np.all(np.abs(mesh.vertices - corner) < 1e-12, axis=1)
        if np.any(touch):
            corner_tris = np.flatnonzero(np.any(touch[mesh.triangles], axis=1))

    regular = np.setdiff1d(tris, corner_tris, assume_unique=True)
    total = 0.0
    if regular.size:
        pts = mesh.map_ref_points(rule.points, regular)
        sq = _eval_sq_diff(field, exact, regular, pts)
        total += float(np.sum(area[regular] * (sq @ rule.weights)))

    if corner_tris.size:
        corner = np.asarray(singular_corner, dtype=np.float64)
        for t in corner_tris:
            sub = _subdivide_toward(
                mesh.vertices[mesh.triangles[t]], corner, corner_depth
            )
            v0 = sub[:, 0]
            d1 = sub[:, 1] - sub[:, 0]
            d2 = sub[:, 2] - sub[:, 0]
            sub_area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            pts = (
                v0[:, None, :]
                + rule.points[None, :, 0, None] * d1[:, None, :]
                + rule.points[None, :, 1, None] * d2[:, None, :]
            )
            tt = np.full(sub.shape[0], t, dtype=np.int64)
            sq = _eval_sq_diff(field, exact, tt, pts)
            total += float(np.sum(sub_area * (sq @ rule.weights)))
    return float(np.sqrt(total))


def supercloseness(field_a, field_b) -> float:
    """Exact L2 norm of the difference of two discrete fields.

    Both fields must be piecewise-constant velocities on the same mesh or
    pseudostress fields in the same space; the integrand is a piecewise
    polynomial, so the norm carries no quadrature error.
    """
    if isinstance(field_a, VelocityField) and isinstance(field_b, VelocityField):
        if field_a.mesh is not field_b.mesh:
            raise ValueError("velocity fields live on different meshes")
        diff = field_a.coeffs - field_b.coeffs
        area = field_a.mesh.tri_areas()
        return float(np.sqrt(np.sum(area * np.sum(diff**2, axis=0))))
    if isinstance(field_a, PseudostressField) and isinstance(field_b, PseudostressField):
        if field_a.space is not field_b.space:
            raise ValueError("pseudostress fields live in different spaces")
        space = field_a.space
        mesh = space.mesh
        diff = PseudostressField(space=space, coeffs=field_a.coeffs - field_b.coeffs)
        rule = triangle_rule(4)
        tris = np.arange(mesh.nt)
        pts = mesh.map_ref_points(rule.points, tris)
        vals = diff.eval_cells(tris, pts)
        sq = np.sum(vals.reshape(vals.shape[:2] + (-1,)) ** 2, axis=2)
        return float(np.sqrt(np.sum(mesh.tri_areas() * (sq @ rule.weights))))
    raise TypeError(
        "supercloseness expects two velocity fields or two pseudostress fields, "
        f"got {type(field_a).__name__} and {type(field_b).__name__}"
    )


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
