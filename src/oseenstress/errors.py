"""L2 error norms, supercloseness measures and convergence-order fits.

Norms against analytic functions use quadrature, a degree-6 triangle rule;
when the analytic solution has a corner singularity, elements touching the
corner are geometrically subdivided toward it before the rule is applied.
Every discrete field f_h is of degree <= 1 on each element, and the rule
integrates quadratics exactly, so the quadrature sum splits exactly as

    sum w |f_h - f|^2 = ||f_h - Pi f||^2 + sum w |f - Pi f|^2 ,

with Pi f the L2 projection of the analytic field f onto cellwise linears
in the same rule (:func:`~oseenstress.spaces.project_exact`).  The first
term is an exact cellwise Gram norm
(:meth:`~oseenstress.spaces.CellwiseLinear.sq_norms`), the second depends
on f alone; so a projection taken once per mesh serves the error of every
field measured against f.  The divergence error is such a norm too, of the
cellwise-constant divergence.  The distance between two discrete fields is
likewise an exact Gram norm, with no quadrature.

Convergence orders are least-squares slopes of log(error) against log(h)
with h proportional to nt^(-1/2), excluding the first (coarsest) row.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import CellwiseLinear, ExactProjection, PseudostressField, VelocityField, project_exact

__all__ = [
    "ErrorRow",
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


def l2_error(field, exact, singular_corner=None, corner_depth: int = 1) -> float:
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
        projection from :func:`~oseenstress.spaces.project_exact` on the
        field's mesh, which carries its own rule (the remaining arguments
        are then unused).
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
        exact = project_exact(field.mesh, exact, singular_corner=singular_corner, corner_depth=corner_depth)
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


def hdiv_error(sigma_h: PseudostressField, exact_div) -> float:
    """L2 norm of ``div(sigma) - div(sigma_h)`` (row-wise divergences).

    `exact_div` is the analytic divergence of the exact pseudostress; for
    a solution of the PDE it equals ``(dev sigma) b + c u - f``.  The
    discrete divergence is constant on each element, so this is
    :func:`l2_error` of that cellwise constant; ValueError if `exact_div`
    does not return one 2-vector per point.
    """
    mesh = sigma_h.mesh
    coeffs = np.zeros((mesh.nt, 2, 3))
    coeffs[:, :, 0] = sigma_h.div_cells()
    return l2_error(CellwiseLinear(mesh, coeffs), exact_div)


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
