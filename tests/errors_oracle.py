"""Reference L2 error by direct quadrature, the test oracle for ``errors.l2_error``.

This is the quadrature ``l2_error`` that ``errors.l2_error`` replaced: it
evaluates the discrete and the analytic field at the points of a
degree-`degree` rule on every cell, the cells touching `singular_corner`
geometrically subdivided toward it, and sums the weighted squared
differences.  ``errors.l2_error`` splits that sum into an exact Gram norm
against a projection of the analytic field plus the projection's residual,
which is the same sum in exact arithmetic.
"""

import numpy as np

from conftest import eval_cells
from oseenstress.quadrature import triangle_rule
from oseenstress.spaces import CellwiseLinear


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


def _eval_sq_diff(field: CellwiseLinear, exact, tris, pts):
    """Pointwise squared Frobenius difference, shape (m, nq)."""
    vals = eval_cells(field, tris, pts)
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
        Any discrete field with a ``mesh`` and a ``cellwise()``.
    exact : callable
        Vectorized analytic field matching the discrete field's value shape.
    degree : int
        Triangle quadrature exactness.
    singular_corner : (float, float), optional
        Corner toward which elements are geometrically subdivided.
    corner_depth : int
        Number of subdivision levels for corner-touching elements.
    """
    field = field.cellwise()
    mesh = field.mesh
    rule = triangle_rule(degree)
    tris = np.arange(mesh.nt)
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    if singular_corner is not None:
        corner = np.asarray(singular_corner, dtype=np.float64)
        near = np.all(np.abs(verts - corner) < 1e-12, axis=2).any(axis=1)
        subs = [_subdivide_toward(verts[t], corner, corner_depth) for t in tris[near]]
        tris = np.concatenate([tris[~near]] + [np.full(len(sub), t) for sub, t in zip(subs, tris[near])])
        verts = np.concatenate([verts[~near]] + subs)

    d1 = (verts[:, 1] - verts[:, 0])[:, None, :]
    d2 = (verts[:, 2] - verts[:, 0])[:, None, :]
    area = 0.5 * np.abs(d1[:, 0, 0] * d2[:, 0, 1] - d1[:, 0, 1] * d2[:, 0, 0])
    pts = verts[:, 0][:, None, :] + rule.points[None, :, 0, None] * d1 + rule.points[None, :, 1, None] * d2
    sq = _eval_sq_diff(field, exact, tris, pts)
    return float(np.sqrt(np.sum(area * (sq @ rule.weights))))
