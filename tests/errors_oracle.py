"""Test oracles of the error layer: the L2 error by direct quadrature, and the physical-frame projection.

``l2_error`` is the quadrature ``l2_error`` that ``errors.l2_error``
replaced: it evaluates the discrete and the analytic field at the points
of a degree-`degree` rule on every cell, the cells touching
`singular_corner` geometrically subdivided toward it, and sums the
weighted squared differences.  ``errors.l2_error`` splits that sum into an
exact Gram norm against a projection of the analytic field plus the
projection's residual, which is the same sum in exact arithmetic.

``project_moments`` is the projection that ``spaces.project_moments``
replaced: moments in the physical frame, and the Gram matrix of each cell
inverted from its area and second moments.
"""

import numpy as np

from conftest import eval_cells
from oseenstress.mesh import _frame, _red_children
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


def project_moments(mesh, exact, degree: int = 6, singular_corner=None):
    """The physical-frame projection that ``spaces.project_moments`` replaced, its oracle.

    Every cell is expanded into its subtriangles (itself, or its four red
    children where a vertex lies within an absolute 1e-12 of
    `singular_corner`), the rule is mapped onto each, and the moments
    against {1, x - cx, y - cy} are summed back per cell.  The Gram matrix
    ``|K| diag(1, M)``, with M the cell's second moments, is inverted in
    closed form.  Returns Pi f as a :class:`CellwiseLinear` and a function
    that returns the rule's sum of ``w |f - Pi f|^2``, called at most once.
    """
    rule = triangle_rule(degree)
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    near = np.zeros(mesh.nt, dtype=bool)
    if singular_corner is not None:
        near = np.all(np.abs(verts - np.asarray(singular_corner, dtype=np.float64)) < 1e-12, axis=2).any(axis=1)
    # each element's subtriangles are consecutive: itself, or its four red children
    count = np.where(near, 4, 1)
    first = np.cumsum(count) - count
    tris = np.repeat(np.arange(mesh.nt), count)
    split = verts[near]
    mids = 0.5 * (split[:, [1, 2, 0]] + split[:, [2, 0, 1]])  # local edge k is opposite vertex k
    verts = np.repeat(verts, count, axis=0)
    verts[first[near, None] + np.arange(4)] = _red_children(split, mids)

    def per_element(a):
        """Sum the last axis over each element's subtriangles."""
        return a if tris.size == mesh.nt else np.add.reduceat(a, first, axis=-1)

    w = rule.weights[:, None] * (0.5 * np.abs(_frame(verts)[2]))
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])  # (nq, 3)
    px = bary @ verts[:, :, 0].T
    py = bary @ verts[:, :, 1].T
    vals = np.asarray(exact(np.stack([px, py], axis=-1)), dtype=np.float64)
    value_shape = vals.shape[2:]
    f = np.ascontiguousarray(np.moveaxis(vals.reshape(px.shape + (-1,)), 2, 0))
    base = f[:, 0, first]  # (k, nt): f at each element's first point
    f -= base[:, tris][:, None]
    centroids = mesh.tri_centroids()[tris]
    dx = px - centroids[:, 0]
    dy = py - centroids[:, 1]
    m0, mx, my = (per_element(np.einsum("kqm,qm->km", f, t)) for t in (w, w * dx, w * dy))

    m = mesh.tri_second_moments()
    mxx, mxy, myy = m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]
    area = mesh.tri_areas()
    scale = 1.0 / (area * (mxx * myy - mxy**2))
    mean = m0 / area
    gx = scale * (myy * mx - mxy * my)
    gy = scale * (mxx * my - mxy * mx)

    coeffs = np.stack([mean + base, gx, gy], axis=-1)  # (k, nt, 3)
    coeffs = np.moveaxis(coeffs, 0, 1).reshape((mesh.nt,) + value_shape + (3,))

    def rest() -> float:
        for fk, a0, ax, ay in zip(f, mean[:, tris], gx[:, tris], gy[:, tris]):
            fk -= a0 + ax * dx + ay * dy
            fk *= np.sqrt(w)
        return float(np.vdot(f, f))

    return CellwiseLinear(mesh, coeffs), rest
