"""L2 error norms, supercloseness measures and convergence-order fits.

Every reported error is one distance: the exact cellwise Gram norm
(:meth:`~oseenstress.spaces.CellwiseLinear.sq_norms`) of the difference
of two cellwise-linear forms, every discrete field being of degree <= 1
on each element.  An analytic field f enters through its projection Pi f
onto cellwise linears in a degree-6 triangle rule
(:func:`~oseenstress.spaces.project_exact`), whose elements with a
vertex on a singular corner take the rule on the four red children of
the reference triangle.  The rule integrates quadratics
exactly, so its sum splits exactly as

    sum w |f_h - f|^2 = ||f_h - Pi f||^2 + sum w |f - Pi f|^2 ,

and the second term, the projection's ``rest``, depends on f alone; so a
projection taken once per mesh serves the error of every field measured
against f.  The divergence error is such a norm too, of the
cellwise-constant divergence.  The distance between two discrete fields
is the first term alone.

Convergence orders are least-squares slopes of log(error) against log(h)
with h proportional to nt^(-1/2), excluding the first (coarsest) row.
"""

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .spaces import ExactProjection, PseudostressField, VelocityField, project_exact

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
    """Error norms measured on one mesh level; ``ERROR_COLUMNS`` names the error fields in order."""

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


ErrorRow.ERROR_COLUMNS = tuple(f.name for f in fields(ErrorRow))[3:]  # every field after level, nt and ndofs


def _sq_distance(field_a, field_b) -> float:
    """Squared exact L2 distance of two fields of degree <= 1 per cell.

    ValueError unless both live on one mesh with one value shape
    (``CellwiseLinear.__sub__``).
    """
    return float(np.sum((field_a.cellwise() - field_b.cellwise()).sq_norms()))


def l2_error(field, projection: ExactProjection) -> float:
    """L2 norm of (field - f) over the field's mesh, f an analytic field.

    ``sqrt(||field - Pi f||^2 + rest)`` with `projection` the
    :func:`~oseenstress.spaces.project_exact` of f on the field's mesh;
    see the module docstring.  ValueError if the projection lives on
    another mesh or has another value shape.
    """
    return float(np.sqrt(_sq_distance(field, projection.field) + projection.rest))


def supercloseness(field_a, field_b) -> float:
    """Exact L2 norm of the difference of two discrete fields on one mesh."""
    return float(np.sqrt(_sq_distance(field_a, field_b)))


def hdiv_error(sigma_h: PseudostressField, exact_div) -> float:
    """L2 norm of ``div(sigma) - div(sigma_h)`` (row-wise divergences).

    `exact_div` is the analytic divergence of the exact pseudostress; for
    a solution of the PDE it equals ``(dev sigma) b + c u - f``.  The
    discrete divergence is constant on each element, so this is
    :func:`l2_error` of that cellwise constant, held as a
    :class:`~oseenstress.spaces.VelocityField`; ValueError if `exact_div`
    does not return one 2-vector per point.
    """
    mesh = sigma_h.mesh
    return l2_error(VelocityField(mesh, sigma_h.div_cells().T), project_exact(mesh, exact_div))


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
