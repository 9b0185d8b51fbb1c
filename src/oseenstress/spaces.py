"""Lowest-order H(div) tensor spaces and piecewise-constant velocities.

The pseudostress lives row-wise in an H(div)-conforming space: each row of
the 2x2 tensor is an RT0 or BDM1 vector field.  Degrees of freedom are
global edge moments taken with respect to the global edge orientation
(lower to higher vertex index, normal = 90-degree clockwise rotation of the
tangent):

* RT0: one moment per edge, ``int_E v.n ds``;
* BDM1: additionally ``int_E v.n q ds`` with ``q`` the odd linear Legendre
  polynomial along the oriented edge.

Local bases are constructed per element as the dual basis of these global
functionals (a small generalized Vandermonde solve), so normal-trace
continuity across interior edges holds by construction and orientation
flips never need explicit sign fixups in assembly.  Basis functions are
stored as monomial coefficients over {1, x - cx, y - cy} centered at the
element centroid; their divergences are elementwise constants.

Every discrete field of the method (a pseudostress row, the cellwise
constant velocity, the lifted velocity and the recovered pseudostress) is
a polynomial of degree <= 1 on each triangle.  :class:`CellwiseLinear`
holds any of them in that monomial basis, and each field type converts to
it with ``cellwise()``; evaluation, cell means, exact L2 norms and the
exact cell integrals of products of two such fields are defined there
once.  An analytic field enters only through :func:`project_exact`, its
projection onto cellwise linears in one triangle rule; every cell
integral of the package is then an exact product of cellwise linears.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh
from .quadrature import edge_gauss_rule, triangle_rule

__all__ = [
    "CellwiseLinear",
    "ExactProjection",
    "HdivSpace",
    "PseudostressField",
    "VelocityField",
    "apply_deviatoric",
    "build_space",
    "identity_coeffs",
    "interpolate_pseudostress",
    "project_exact",
    "project_velocity",
    "trace_mean",
    "trace_mean_of_means",
]

_KINDS = ("rt0", "bdm1")

# vector monomials over {1, dx, dy}: shape (ndof_local, component, monomial)
_MONO_RT0 = np.array(
    [
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # (1, 0)
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],  # (0, 1)
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # (dx, dy)
    ]
)
_DIV_RT0 = np.array([0.0, 0.0, 2.0])

_MONO_BDM1 = np.array(
    [
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # (1, 0)
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],  # (dx, 0)
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],  # (dy, 0)
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],  # (0, 1)
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # (0, dx)
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # (0, dy)
    ]
)
_DIV_BDM1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


def apply_deviatoric(m: np.ndarray) -> np.ndarray:
    """Trace-free part ``m - (1/2) tr(m) I`` of 2x2 matrices.

    Accepts any array of shape (..., 2, 2).  The operator is idempotent,
    self-adjoint under the Frobenius inner product and annihilates
    multiples of the identity.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected trailing shape (2, 2), got {m.shape}")
    tr = m[..., 0, 0] + m[..., 1, 1]
    out = m.copy()
    out[..., 0, 0] -= 0.5 * tr
    out[..., 1, 1] -= 0.5 * tr
    return out


@dataclass
class CellwiseLinear:
    """Field of degree <= 1 on each triangle, discontinuous across edges.

    coeffs[t, ..., :] = (a0, a1, a2) represents the field on triangle t as
    ``a0 + a1 (x - cx) + a2 (y - cy)`` with (cx, cy) the element centroid,
    so a0 is the cell mean.  The middle axes are the value shape: (2,) for
    a velocity, (2, 2) for a tensor.
    """

    mesh: Mesh
    coeffs: np.ndarray  # (nt, *value_shape, 3)

    def cellwise(self) -> "CellwiseLinear":
        """Itself, so it goes wherever a discrete field does."""
        return self

    def __sub__(self, other: "CellwiseLinear") -> "CellwiseLinear":
        if self.mesh is not other.mesh:
            raise ValueError("cellwise fields live on different meshes")
        return CellwiseLinear(mesh=self.mesh, coeffs=self.coeffs - other.coeffs)

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Values at physical points `pts` (m, nq, 2) inside triangles `tris`.

        Returns shape (m, nq, *value_shape).
        """
        dx = pts - self.mesh.tri_centroids()[tris][:, None, :]
        mono = np.concatenate([np.ones(dx.shape[:2] + (1,)), dx], axis=2)
        c = self.coeffs[tris]
        vals = mono @ c.reshape(len(tris), -1, 3).transpose(0, 2, 1)
        return vals.reshape(dx.shape[:2] + c.shape[1:-1])

    def cell_means(self) -> np.ndarray:
        """Cell means, shape (*value_shape, nt)."""
        return np.moveaxis(self.coeffs[..., 0], 0, -1).copy()

    def sq_norms(self) -> np.ndarray:
        """Exact squared L2 norm on each triangle, summed over components.

        With g the gradient and M the cell's second moments
        (:meth:`~oseenstress.mesh.Mesh.tri_second_moments`),
        ``int_K (a0 + g.(x - c))^2 = |K| (a0^2 + g^T M g)``.
        """
        mesh = self.mesh
        c = self.coeffs.reshape(mesh.nt, -1, 3)
        m = mesh.tri_second_moments()[:, None]  # (nt, 1, 2, 2)
        a0, gx, gy = c[:, :, 0], c[:, :, 1], c[:, :, 2]
        sq = a0**2 + m[..., 0, 0] * gx**2 + 2.0 * m[..., 0, 1] * gx * gy + m[..., 1, 1] * gy**2
        return mesh.tri_areas() * np.sum(sq, axis=1)

    def inner(self, other: "CellwiseLinear") -> np.ndarray:
        """Exact integral over each triangle of every product of two components.

        Returns shape (nt, m, k): entry (t, i, j) is the integral over
        triangle t of component i of this field times component j of
        `other`, each value shape flattened.  For linears a and b,
        ``int_K a b = |K| (a0 b0 + g_a^T M g_b)``.
        """
        if self.mesh is not other.mesh:
            raise ValueError("cellwise fields live on different meshes")
        mesh = self.mesh
        a = self.coeffs.reshape(mesh.nt, -1, 3)
        b = other.coeffs.reshape(mesh.nt, -1, 3)
        weighted = np.concatenate([a[:, :, :1], a[:, :, 1:] @ mesh.tri_second_moments()], axis=2)
        return mesh.tri_areas()[:, None, None] * (weighted @ b.transpose(0, 2, 1))


@dataclass
class HdivSpace:
    """Per-row H(div) space (RT0 or BDM1) over a mesh.

    Attributes
    ----------
    kind : str
        "rt0" or "bdm1".
    mesh : Mesh
    n_dofs_per_row : int
        Edge-moment count: ne (RT0) or 2*ne (BDM1).
    dof_map : ndarray, shape (nt, nl)
        Global dof index of each local basis function.
    basis_coeff : ndarray, shape (nt, nl, 2, 3)
        Monomial coefficients of each local basis function over
        {1, x-cx, y-cy} centered at the element centroid, so
        ``CellwiseLinear(mesh, basis_coeff)`` evaluates the local bases.
    basis_div : ndarray, shape (nt, nl)
        Constant divergence of each local basis function.
    """

    kind: str
    mesh: Mesh
    n_dofs_per_row: int
    dof_map: np.ndarray
    basis_coeff: np.ndarray
    basis_div: np.ndarray

    @property
    def ndof_local(self) -> int:
        return self.dof_map.shape[1]


def build_space(mesh: Mesh, kind: str) -> HdivSpace:
    """Construct the RT0 or BDM1 space over a mesh."""
    if kind not in _KINDS:
        raise ValueError(f"unknown element kind {kind!r}; expected one of {_KINDS}")
    mono = _MONO_RT0 if kind == "rt0" else _MONO_BDM1
    mono_div = _DIV_RT0 if kind == "rt0" else _DIV_BDM1
    moments = 1 if kind == "rt0" else 2
    nl = 3 * moments
    nt = mesh.nt

    centroids = mesh.tri_centroids()
    lengths = mesh.edge_lengths()
    normals = mesh.edge_normals()

    # 2-point Gauss on each edge is exact for the (at most quadratic)
    # integrands v.n and v.n*q of the construction functionals
    tq, wq = edge_gauss_rule(2)
    epts = mesh.edge_points(tq)  # (ne, q, 2)
    legendre = 2.0 * tq - 1.0

    te = mesh.tri_edges  # (nt, 3)
    # dx of edge points relative to the owning element centroid: (nt, 3, q, 2)
    dx = epts[te] - centroids[:, None, None, :]
    mono_pts = np.concatenate([np.ones(dx.shape[:-1] + (1,)), dx], axis=3)
    # monomial values at edge points: (nt, 3, q, k, comp)
    vals = np.einsum("kcm,teqm->teqkc", mono, mono_pts)
    # normal flux of each monomial: (nt, 3, q, k)
    flux = np.einsum("teqkc,tec->teqk", vals, normals[te])
    w_int = lengths[te][:, :, None] * wq[None, None, :]  # (nt, 3, q)
    g0 = np.einsum("teq,teqk->tek", w_int, flux)  # zeroth moments
    if kind == "rt0":
        gmat = g0.reshape(nt, 3, nl)
        dof_map = te.copy()
    else:
        g1 = np.einsum("teq,q,teqk->tek", w_int, legendre, flux)
        gmat = np.empty((nt, nl, nl))
        gmat[:, 0::2, :] = g0
        gmat[:, 1::2, :] = g1
        dof_map = np.empty((nt, nl), dtype=np.int64)
        dof_map[:, 0::2] = 2 * te
        dof_map[:, 1::2] = 2 * te + 1

    ginv = np.linalg.inv(gmat)  # (nt, k, j): coeff of monomial k in basis j
    basis_coeff = np.einsum("tkj,kcm->tjcm", ginv, mono)
    basis_div = np.einsum("tkj,k->tj", ginv, mono_div)

    return HdivSpace(
        kind=kind,
        mesh=mesh,
        n_dofs_per_row=moments * mesh.ne,
        dof_map=dof_map,
        basis_coeff=basis_coeff,
        basis_div=basis_div,
    )


@dataclass(frozen=True)
class PseudostressField:
    """Tensor field with rows in an H(div) space.

    coeffs[r, :] holds the global edge-moment coefficients of row r.  The
    field keeps a read-only copy of them, so its cellwise form is computed
    once and cannot go stale.
    """

    space: HdivSpace
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.float64)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh

    @cached_property
    def _cellwise(self) -> CellwiseLinear:
        w = self.coeffs[:, self.space.dof_map]  # (2, nt, nl)
        coeffs = np.einsum("rtj,tjcm->trcm", w, self.space.basis_coeff)
        coeffs.setflags(write=False)
        return CellwiseLinear(self.mesh, coeffs)

    def cellwise(self) -> CellwiseLinear:
        """The tensor field on every element, value shape (2, 2); read-only."""
        return self._cellwise

    def div_cells(self, tris=None) -> np.ndarray:
        """Row-wise divergence, constant per element: (m, 2)."""
        if tris is None:
            tris = np.arange(self.space.mesh.nt)
        w = self.coeffs[:, self.space.dof_map[tris]]  # (2, m, nl)
        return np.einsum("rtj,tj->tr", w, self.space.basis_div[tris])


@dataclass
class VelocityField:
    """Piecewise-constant velocity: coeffs[r, t] is component r on triangle t."""

    mesh: Mesh
    coeffs: np.ndarray

    def cellwise(self) -> CellwiseLinear:
        """The velocity with zero gradient, value shape (2,)."""
        coeffs = np.zeros((self.mesh.nt, 2, 3))
        coeffs[:, :, 0] = self.coeffs.T
        return CellwiseLinear(self.mesh, coeffs)


def identity_coeffs(space: HdivSpace) -> np.ndarray:
    """Exact edge-moment coefficients of the identity tensor, shape (2, n).

    Row r holds the coefficients of the constant vector field e_r: on each
    edge its zeroth moment ``|E| e_r . n_E``; the odd Legendre moment of a
    constant is zero.  ``dev`` and ``div`` both annihilate the identity.
    """
    mesh = space.mesh
    flux = mesh.edge_lengths()[None, :] * mesh.edge_normals().T  # (2, ne)
    if space.kind == "rt0":
        return flux
    out = np.zeros((2, space.n_dofs_per_row))
    out[:, 0::2] = flux
    return out


def trace_mean(field) -> float:
    """Mean of the tensor trace over the domain.

    `field` is any tensor field with a ``cellwise()``.
    """
    return trace_mean_of_means(field.mesh, field.cellwise().cell_means())


def trace_mean_of_means(mesh: Mesh, means: np.ndarray) -> float:
    """Mean of the tensor trace over the domain, from the cell means (2, 2, nt).

    The integral of a field of degree <= 1 over a triangle is its area
    times its cell mean.
    """
    area = mesh.tri_areas()
    return float(np.sum(area * (means[0, 0] + means[1, 1]))) / float(np.sum(area))


def apply_trace_correction(field: PseudostressField) -> PseudostressField:
    """Subtract the trace mean: sigma -> sigma - (mean tr sigma / 2) I.

    The identity tensor is represented exactly in the space (its rows are
    constant fields), so the corrected field has zero trace mean up to
    roundoff.
    """
    space = field.space
    c = 0.5 * trace_mean(field)
    coeffs = field.coeffs - c * identity_coeffs(space)
    return PseudostressField(space=space, coeffs=coeffs)


def interpolate_pseudostress(space: HdivSpace, sigma) -> PseudostressField:
    """Canonical (edge-moment) interpolation of an analytic tensor field.

    The moments are 3-point Gauss sums on every edge, and the trace mean
    is subtracted afterwards (:func:`apply_trace_correction`).  Without
    that correction the interpolant commutes with the cellwise projection
    of the divergence; the correction changes no divergence.

    Parameters
    ----------
    space : HdivSpace
    sigma : callable
        Vectorized map from points of shape (..., 2) to tensors of shape
        (..., 2, 2).
    """
    mesh = space.mesh
    lengths = mesh.edge_lengths()
    normals = mesh.edge_normals()
    tq, wq = edge_gauss_rule(3)
    pts = mesh.edge_points(tq)
    vals = np.asarray(sigma(pts), dtype=np.float64)  # (ne, q, 2, 2)
    if vals.shape != pts.shape[:2] + (2, 2):
        raise ValueError(
            f"sigma must return shape {pts.shape[:2] + (2, 2)}, got {vals.shape}"
        )
    flux = np.einsum("eqrc,ec->eqr", vals, normals)  # (ne, q, 2)
    coeffs = np.empty((2, space.n_dofs_per_row))
    m0 = lengths[:, None] * np.einsum("q,eqr->er", wq, flux)
    if space.kind == "rt0":
        coeffs[0] = m0[:, 0]
        coeffs[1] = m0[:, 1]
    else:
        legendre = 2.0 * tq - 1.0
        m1 = lengths[:, None] * np.einsum("q,q,eqr->er", wq, legendre, flux)
        coeffs[0, 0::2] = m0[:, 0]
        coeffs[0, 1::2] = m1[:, 0]
        coeffs[1, 0::2] = m0[:, 1]
        coeffs[1, 1::2] = m1[:, 1]
    return apply_trace_correction(PseudostressField(space=space, coeffs=coeffs))


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
        Pi f as a :class:`CellwiseLinear` of the analytic field's value
        shape, and the residual sum.

    The projection's moments are the rule's sums over each element and
    its subtriangles.  The rule is exact for quadratics, so the Gram
    matrix of {1, x - cx, y - cy} is ``|K| diag(1, M)`` with M the cell's
    second moments (:meth:`~oseenstress.mesh.Mesh.tri_second_moments`),
    and for every cellwise linear v the rule's sum of ``w v f`` is the
    exact ``int_K v Pi f``.  The moments are taken of f minus its value at
    the element's first point, which is added back to the mean, so a
    constant f projects exactly.
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

    # Gram |K| diag(1, M); M^-1 in closed form
    m = mesh.tri_second_moments()
    mxx, mxy, myy = m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]
    area = mesh.tri_areas()
    scale = 1.0 / (area * (mxx * myy - mxy**2))
    mean = m0 / area
    gx = scale * (myy * mx - mxy * my)
    gy = scale * (mxx * my - mxy * mx)

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


def project_velocity(mesh: Mesh, u) -> VelocityField:
    """Cellwise mean (L2 projection onto piecewise constants) of a velocity.

    The means of :func:`project_exact` in its degree-6 rule, without
    corner subdivision.

    Parameters
    ----------
    mesh : Mesh
    u : callable
        Vectorized map from points of shape (..., 2) to velocities of the
        same leading shape plus a trailing component axis.
    """
    field = project_exact(mesh, u).field
    if field.coeffs.shape[1:-1] != (2,):
        raise ValueError(f"u must return value shape (2,), got {field.coeffs.shape[1:-1]}")
    return VelocityField(mesh=mesh, coeffs=field.cell_means())
