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
flips never need explicit sign fixups in assembly.  The moments are taken
in one place, ``_edge_moments``, for the bases and for the canonical
interpolant; by the duality, a basis function's normal trace on its own
edge is ``(2k + 1) P_k / |E|``, which the Dirichlet load uses directly.  Basis functions are
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

from .mesh import Mesh, _red_children
from .quadrature import edge_gauss_rule, triangle_rule

__all__ = [
    "CellwiseLinear",
    "ExactProjection",
    "HdivSpace",
    "PseudostressField",
    "VelocityField",
    "apply_deviatoric",
    "build_space",
    "edge_rule",
    "identity_coeffs",
    "interpolate_pseudostress",
    "project_exact",
    "project_velocity",
    "trace_mean",
]

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

# monomials and their divergences; 3 edges times 1 (RT0) or 2 (BDM1) moments
_KINDS = {"rt0": (_MONO_RT0, _DIV_RT0), "bdm1": (_MONO_BDM1, _DIV_BDM1)}


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
        """The difference of two fields on one mesh, of one value shape; ValueError otherwise."""
        if self.mesh is not other.mesh:
            raise ValueError("cellwise fields live on different meshes")
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError(
                f"cellwise fields have value shapes {self.coeffs.shape[1:-1]} and {other.coeffs.shape[1:-1]}"
            )
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

    @property
    def moments(self) -> int:
        """Edge moments per edge and row: 1 (RT0) or 2 (BDM1)."""
        return self.n_dofs_per_row // self.mesh.ne


def edge_rule(npoints: int, moments: int):
    """Points and weights of the edge-moment functionals in an `npoints` Gauss rule.

    Returns the points t_q on [0, 1] along the oriented edge and the
    weights ``w_q P_k(t_q)``, shape (moments, npoints), with P_0 = 1 and
    P_1 = 2t - 1 the odd Legendre polynomial; moment k of v on edge E is
    then ``|E| sum_q w_q P_k(t_q) v(x_q).n_E``.
    """
    tq, wq = edge_gauss_rule(npoints)
    return tq, wq * np.stack([np.ones_like(tq), 2.0 * tq - 1.0])[:moments]


def _edge_moments(mesh: Mesh, edges: np.ndarray, npoints: int, moments: int, field) -> np.ndarray:
    """The first `moments` edge moments of vector fields on the edges `edges`.

    These are the degrees of freedom of both spaces (see the module
    docstring), taken in the `npoints` Gauss rule (:func:`edge_rule`).
    `field` maps the rule's points, shape ``edges.shape + (npoints, 2)``,
    to k vector fields there, ``edges.shape + (npoints, k, 2)``.  Returns
    ``edges.shape + (moments, k)``; moment j of edge e is global dof
    ``moments e + j``.
    """
    tq, weights = edge_rule(npoints, moments)
    pts = mesh.edge_points(tq, edges.ravel()).reshape(edges.shape + (npoints, 2))
    flux = np.einsum("...qkc,...c->...qk", field(pts), mesh.edge_normals()[edges])
    w_int = mesh.edge_lengths()[edges][..., None, None] * weights  # (..., moments, q)
    return np.einsum("...mq,...qk->...mk", w_int, flux)


def build_space(mesh: Mesh, kind: str) -> HdivSpace:
    """Construct the RT0 or BDM1 space over a mesh.

    The local bases are dual to the edge moments (:func:`_edge_moments`),
    each taken in 2-point Gauss, which is exact for the at most quadratic
    ``v.n P_k`` of a linear v.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown element kind {kind!r}; expected one of {tuple(_KINDS)}")
    mono, mono_div = _KINDS[kind]
    nl = len(mono)
    moments = nl // 3
    nt = mesh.nt
    centroids = mesh.tri_centroids()
    te = mesh.tri_edges  # (nt, 3)

    def monomials(pts):  # (nt, 3, q, 2) -> (nt, 3, q, nl, 2), about each element's centroid
        dx = pts - centroids[:, None, None, :]
        mono_pts = np.concatenate([np.ones(dx.shape[:-1] + (1,)), dx], axis=3)
        return np.einsum("kcm,teqm->teqkc", mono, mono_pts)

    gmat = _edge_moments(mesh, te, 2, moments, monomials).reshape(nt, nl, nl)
    ginv = np.linalg.inv(gmat)  # (nt, k, j): coeff of monomial k in basis j
    return HdivSpace(
        kind=kind,
        mesh=mesh,
        n_dofs_per_row=moments * mesh.ne,
        dof_map=(moments * te[:, :, None] + np.arange(moments)).reshape(nt, nl),
        basis_coeff=np.einsum("tkj,kcm->tjcm", ginv, mono),
        basis_div=np.einsum("tkj,k->tj", ginv, mono_div),
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

    def cell_means(self) -> np.ndarray:
        """Cell means, shape (2, 2, nt): the coefficients times the bases' cell means."""
        w = self.coeffs[:, self.space.dof_map, None]  # (2, nt, nl, 1)
        return np.moveaxis(np.sum(w * self.space.basis_coeff[..., 0], axis=2), 1, 2)

    def div_cells(self) -> np.ndarray:
        """Row-wise divergence, constant per element: (nt, 2)."""
        w = self.coeffs[:, self.space.dof_map]  # (2, nt, nl)
        return np.einsum("rtj,tj->tr", w, self.space.basis_div)


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
    out = np.zeros((2, space.n_dofs_per_row))
    out[:, :: space.moments] = mesh.edge_lengths() * mesh.edge_normals().T
    return out


def trace_mean(field) -> float:
    """Mean of the tensor trace over the domain.

    `field` is a tensor field with ``cell_means()`` of shape (2, 2, nt);
    the integral of a field of degree <= 1 over a triangle is its area
    times its cell mean.
    """
    means = field.cell_means()
    area = field.mesh.tri_areas()
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

    The moments of both rows (:func:`_edge_moments`) are 3-point Gauss
    sums on every edge, and the trace mean is subtracted afterwards
    (:func:`apply_trace_correction`).  Without that correction the
    interpolant commutes with the cellwise projection of the divergence;
    the correction changes no divergence.

    Parameters
    ----------
    space : HdivSpace
    sigma : callable
        Vectorized map from points of shape (..., 2) to tensors of shape
        (..., 2, 2).
    """
    mesh = space.mesh

    def rows(pts):
        vals = np.asarray(sigma(pts), dtype=np.float64)  # (ne, q, 2, 2)
        if vals.shape != pts.shape[:2] + (2, 2):
            raise ValueError(f"sigma must return shape {pts.shape[:2] + (2, 2)}, got {vals.shape}")
        return vals

    moments = _edge_moments(mesh, np.arange(mesh.ne), 3, space.moments, rows)
    coeffs = moments.reshape(space.n_dofs_per_row, 2).T
    return apply_trace_correction(PseudostressField(space=space, coeffs=coeffs))


@dataclass(frozen=True)
class ExactProjection:
    """An analytic field projected onto cellwise linears in one quadrature rule.

    `field` is the projection Pi f; `rest` is the rule's sum of
    ``w |f - Pi f|^2`` over the mesh.
    """

    field: CellwiseLinear
    rest: float


def project_exact(mesh: Mesh, exact, degree: int = 6, singular_corner=None) -> ExactProjection:
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
        Corner of a singular solution; the elements touching it are
        red-split once, and the rule is applied on their four children.

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


def project_velocity(projection: ExactProjection) -> VelocityField:
    """Cellwise mean (L2 projection onto piecewise constants) of a velocity.

    The cell means of the velocity's :func:`project_exact`, so one
    projection serves both P_h u and the L2 errors against u.

    Raises
    ------
    ValueError
        If the projected field is not a vector field, value shape (2,).
    """
    field = projection.field
    if field.coeffs.shape[1:-1] != (2,):
        raise ValueError(f"u must return value shape (2,), got {field.coeffs.shape[1:-1]}")
    return VelocityField(mesh=field.mesh, coeffs=field.cell_means())
