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
functionals, so normal-trace continuity across interior edges holds by
construction and orientation flips never need explicit sign fixups in
assembly.  The generalized Vandermonde matrix of the functionals is
inverted once per shape class of the mesh (``Mesh.shape_classes``), on
its first triangle; the space keeps these class bases and scales them to
the members asked for (``HdivSpace.bases``).
The moments are taken in one place, ``_edge_moments``, for the bases and
for the canonical interpolant; by the duality, a basis function's normal
trace on its own edge is ``(2k + 1) P_k / |E|``, which the Dirichlet load
uses directly.  Basis functions are stored as monomial coefficients over
{1, x - cx, y - cy} centered at the element centroid; their divergences
are elementwise constants.

Every discrete field of the method (a pseudostress row, the cellwise
constant velocity, the lifted velocity and the recovered pseudostress) is
a polynomial of degree <= 1 on each triangle.  :class:`CellwiseLinear`
holds any of them in that monomial basis, and each field type converts to
it with ``cellwise()``; cell means and exact L2 norms are defined there
once, and the exact cell integrals of products of two stacks of such
fields in :func:`cell_gram`.  An analytic field enters only through
:func:`project_exact`, its projection onto cellwise linears in one
triangle rule (or that projection's moment part, :func:`project_moments`,
without the residual); every cell integral of the package is then an
exact product of cellwise linears.  The projection is taken on the
reference triangle, whose Gram matrix is one constant, not the cell's
``|K| diag(1, M)``; cells at a singular corner take the rule on the
reference triangle's four red children.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh, _frame, _read_only, _red_children
from .quadrature import edge_gauss_rule, triangle_rule
from .sparsela import tally

__all__ = [
    "CellwiseLinear",
    "ExactProjection",
    "HdivSpace",
    "PseudostressField",
    "VelocityField",
    "apply_deviatoric",
    "build_space",
    "cell_gram",
    "edge_rule",
    "identity_coeffs",
    "interpolate_pseudostress",
    "project_exact",
    "project_moments",
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

# the monomials of each kind; 3 edges times 1 (RT0) or 2 (BDM1) moments
_KINDS = {"rt0": _MONO_RT0, "bdm1": _MONO_BDM1}


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


def cell_gram(area: np.ndarray, moments: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integrals (k, m, n) over k cells of every product of two stacks of linears.

    `a` (k, m, 3) and `b` (k, n, 3) hold monomial coefficients over {1,
    x - cx, y - cy} on cells of areas `area` (k,) and second moments
    `moments` (k, 2, 2) (:meth:`~oseenstress.mesh.Mesh.tri_second_moments`).
    For linears a and b, ``int_K a b = |K| (a0 b0 + g_a^T M g_b)``.
    """
    weighted = np.concatenate([a[:, :, :1], a[:, :, 1:] @ moments], axis=2)
    return area[:, None, None] * (weighted @ b.transpose(0, 2, 1))


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
    class_coeff : ndarray, shape (nc, nl, 2, 3)
        The local bases of the first triangle of every shape class
        (:meth:`~oseenstress.mesh.Mesh.shape_classes`), as monomial
        coefficients over {1, x-cx, y-cy} centered at its centroid.  They
        are stored component by component, as the assembly stacks them:
        a view of a C-ordered (nc, 2, nl, 3) array.
    class_div : ndarray, shape (nc, nl)
        Their constant divergences.
    ledger : dict
        The batched dense solves of the construction, by kind
        (:class:`~oseenstress.sparsela.DenseSolves`).

    No per-element basis is kept: :meth:`bases` scales the class's to
    the triangles asked for, and :meth:`means` and :meth:`divergences`
    the parts that the cell means and the divergences read.
    """

    kind: str
    mesh: Mesh
    n_dofs_per_row: int
    dof_map: np.ndarray
    class_coeff: np.ndarray
    class_div: np.ndarray
    ledger: dict

    @property
    def ndof_local(self) -> int:
        return self.dof_map.shape[1]

    @property
    def moments(self) -> int:
        """Edge moments per edge and row: 1 (RT0) or 2 (BDM1)."""
        return self.n_dofs_per_row // self.mesh.ne

    def _members(self, rows):
        """The class (k,) of each triangle `rows` and the inverse 1/h (k,) of its size against the class's first."""
        classes, _, scale = self.mesh.shape_classes()
        return classes[rows], 1.0 / scale[rows]

    def bases(self, rows=slice(None)):
        """The local bases (k, nl, 2, 3) of the triangles `rows` (a slice or indices), and their divergences (k, nl).

        A member h times its class's first triangle has the class's bases
        with the constant monomials scaled by ``h**-1`` and the linear
        ones, and every divergence, by ``h**-2`` (:func:`build_space`);
        ``CellwiseLinear(mesh, space.bases()[0])`` evaluates every local
        basis.  The bases keep the layout of ``class_coeff``:
        ``basis.transpose(0, 2, 1, 3)`` is C-ordered.  :meth:`means` and
        :meth:`divergences` give one part alone, with the same bits.
        """
        member, shrink = self._members(rows)
        stacked = self.class_coeff.transpose(0, 2, 1, 3).take(member, axis=0)  # (k, 2, nl, 3)
        constant = stacked[..., 0] * shrink[:, None, None]
        stacked *= (shrink * shrink)[:, None, None, None]  # right for the linear monomials, over {dx, dy}
        stacked[..., 0] = constant
        return stacked.transpose(0, 2, 1, 3), self.divergences(rows)

    def means(self, rows=slice(None)) -> np.ndarray:
        """The cell means (k, nl, 2) of the local bases of the triangles `rows`: their constant coefficients."""
        member, shrink = self._members(rows)
        return self.class_coeff[..., 0].take(member, axis=0) * shrink[:, None, None]

    def divergences(self, rows=slice(None)) -> np.ndarray:
        """The constant divergences (k, nl) of the local bases of the triangles `rows`."""
        member, shrink = self._members(rows)
        div = self.class_div.take(member, axis=0)
        div *= (shrink * shrink)[:, None]
        return div


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
    ``v.n P_k`` of a linear v.  Their generalized Vandermonde matrix is
    inverted on the first triangle of every shape class only
    (:meth:`~oseenstress.mesh.Mesh.shape_classes`).  A member h times that
    size has the same edge normals and orientations, and a moment of a
    monomial of degree d over its centroid scales by ``h**(1 + d)``; so
    its basis is the class's with the constant monomials scaled by
    ``h**-1`` and the linear ones, and every divergence, by ``h**-2``.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown element kind {kind!r}; expected one of {tuple(_KINDS)}")
    mono = _KINDS[kind]
    mono_div = mono[:, 0, 1] + mono[:, 1, 2]  # d/dx of the first component plus d/dy of the second
    nl = len(mono)
    moments = nl // 3
    first = mesh.shape_classes()[1]
    centroids = mesh.tri_centroids()[first]
    te = mesh.tri_edges

    def monomials(pts):  # (nc, 3, q, 2) -> (nc, 3, q, nl, 2), about each element's centroid
        dx = pts - centroids[:, None, None, :]
        mono_pts = np.concatenate([np.ones(dx.shape[:-1] + (1,)), dx], axis=3)
        return np.einsum("kcm,teqm->teqkc", mono, mono_pts)

    gmat = _edge_moments(mesh, te[first], 2, moments, monomials).reshape(len(first), nl, nl)
    ginv = np.linalg.inv(gmat)  # (nc, k, j): coeff of monomial k in basis j
    ledger = {}
    tally(ledger, "class Vandermonde inverse", ginv)
    return HdivSpace(
        kind=kind,
        mesh=mesh,
        n_dofs_per_row=moments * mesh.ne,
        dof_map=(moments * te[:, :, None] + np.arange(moments)).reshape(mesh.nt, nl),
        class_coeff=np.einsum("tkj,kcm->tcjm", ginv, mono).transpose(0, 2, 1, 3),
        class_div=np.einsum("tkj,k->tj", ginv, mono_div),
        ledger=ledger,
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
        object.__setattr__(self, "coeffs", *_read_only(np.array(self.coeffs, dtype=np.float64)))

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh

    @cached_property
    def _cellwise(self) -> CellwiseLinear:
        w = self.coeffs[:, self.space.dof_map]  # (2, nt, nl)
        return CellwiseLinear(self.mesh, *_read_only(np.einsum("rtj,tjcm->trcm", w, self.space.bases()[0])))

    def cellwise(self) -> CellwiseLinear:
        """The tensor field on every element, value shape (2, 2); read-only."""
        return self._cellwise

    def cell_means(self) -> np.ndarray:
        """Cell means, shape (2, 2, nt): those of the cellwise form, summed from the means of the bases alone."""
        w = self.coeffs[:, self.space.dof_map]  # (2, nt, nl)
        return np.einsum("rtj,tjc->rct", w, self.space.means())

    def div_cells(self) -> np.ndarray:
        """Row-wise divergence, constant per element: (nt, 2)."""
        w = self.coeffs[:, self.space.dof_map]  # (2, nt, nl)
        return np.einsum("rtj,tj->tr", w, self.space.divergences())


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
    out = np.zeros((2, space.n_dofs_per_row))
    out[:, :: space.moments] = _identity_moments(space.mesh, slice(None))
    return out


def _identity_moments(mesh: Mesh, edges) -> tuple:
    """The zeroth moments ``|E| e_r . n_E`` of the constant fields e_r on the edges `edges`, one array of their shape per r.

    `edges` is a slice or an index array; these are the nonzero
    coefficients of the identity tensor (:func:`identity_coeffs`).
    """
    lengths, normals = mesh.edge_lengths()[edges], mesh.edge_normals()
    return lengths * normals[:, 0][edges], lengths * normals[:, 1][edges]


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
        Corner of a singular solution; the elements with a vertex on it
        (to 1e-12 of their longest edge) take the rule on the four red
        children of the reference triangle instead.

    Returns
    -------
    ExactProjection
        Pi f as a :class:`CellwiseLinear` of the analytic field's value
        shape, and the residual sum.

    The L2 projection onto linears commutes with the affine map of each
    cell, so every cell is projected on the reference triangle, with the
    rule's points mapped through the cell's frame ``x0 + s d1 + t d2``
    (:func:`~oseenstress.mesh._frame`).  The rule is exact for
    quadratics, so the Gram matrix of {1, s - 1/3, t - 1/3} is the one
    constant ``diag(1, R)`` (weights summing to 1), with R the reference
    triangle's second moments about its centroid, ``R^-1 = [[24, 12],
    [12, 24]]``; for every cellwise linear v the rule's sum of ``w v f``
    is then the exact ``int_K v Pi f``.  The mean is ``sum w f``, the
    reference gradient ``R^-1 sum w (s - 1/3, t - 1/3) f``, and the
    physical gradient is ``J^-T`` of it, J = [d1 d2], whose determinant
    is twice the area: nothing grows faster than the cell size squared.
    The moments are taken of f minus its value at the element's first
    point, which is added back to the mean, so a constant f projects
    exactly.
    """
    field, rest = project_moments(mesh, exact, degree, singular_corner)
    return ExactProjection(field=field, rest=rest())


def project_moments(mesh: Mesh, exact, degree: int = 6, singular_corner=None):
    """The moment part of :func:`project_exact`: Pi f, and a function that returns its residual sum.

    Pi f is bitwise the field of :func:`project_exact`.  The residual pass
    over the sampled values is left to the caller, since the projected
    data of the assembly do not use it; the function reuses the samples
    in place, so it is called at most once.
    """
    corners = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    near = np.zeros(mesh.nt, dtype=bool)
    if singular_corner is not None:
        off = np.abs(corners - np.asarray(singular_corner, dtype=np.float64)).max(axis=2)  # (nt, 3)
        near = np.any(off < 1e-12 * mesh.tri_diameters()[:, None], axis=1)  # to 1e-12 of the longest edge
    coeffs, parts = None, []
    for cells, split in ((~near, False), (near, True)):
        if not cells.any():
            continue
        points, weights = _reference_rule(degree, split)
        d1, d2, det = _frame(corners[cells])
        # points are (nq, m, 2) and values (k, nq, m), so that every
        # per-cell factor broadcasts along the long last axis
        pts = corners[cells, 0] + points[:, None, :1] * d1 + points[:, None, 1:] * d2
        vals = np.asarray(exact(pts), dtype=np.float64)
        if vals.shape[:2] != pts.shape[:2]:
            raise ValueError(f"analytic field returned shape {vals.shape}, expected {pts.shape[:2]} + value shape")
        value_shape = vals.shape[2:]
        f = np.ascontiguousarray(np.moveaxis(vals.reshape(pts.shape[:2] + (-1,)), 2, 0))
        base = f[:, 0].copy()  # (k, m): f at each cell's first point
        f -= base[:, None]
        basis = np.vstack([np.ones_like(weights), (points - 1.0 / 3.0).T])  # {1, s - 1/3, t - 1/3} at the points
        mean, ms, mt = np.matmul(basis * weights, f).transpose(1, 0, 2)
        gs, gt = 24.0 * ms + 12.0 * mt, 12.0 * ms + 24.0 * mt  # R^-1 = [[24, 12], [12, 24]]
        if coeffs is None:
            coeffs = np.empty((mesh.nt, len(f), 3))
        gx, gy = (d2[:, 1] * gs - d1[:, 1] * gt) / det, (d1[:, 0] * gt - d2[:, 0] * gs) / det  # J^-T (gs, gt), J = [d1 d2]
        coeffs[cells] = np.stack([mean + base, gx, gy], axis=-1).transpose(1, 0, 2)
        parts.append((f, np.stack([mean, gs, gt], axis=1), basis, np.sqrt(np.outer(weights, 0.5 * np.abs(det)))))

    def rest() -> float:
        """The weighted squares of f - Pi f at every point, component by component."""
        total = 0.0
        for f, ref, basis, root_w in parts:
            for fk, ref_k in zip(f, ref):  # ref_k (3, m): Pi f over the reference basis
                fk -= basis.T @ ref_k
                fk *= root_w
            total += np.vdot(f, f)
        return float(total)

    return CellwiseLinear(mesh, coeffs.reshape((mesh.nt,) + value_shape + (3,))), rest


def _reference_rule(degree: int, split: bool):
    """Points (nq, 2) and weights (nq,) summing to 1 of the degree-`degree` rule on the reference triangle.

    With `split`, the rule is applied on the reference triangle's four red
    children (:func:`~oseenstress.mesh._red_children`), each child's
    weights divided by 4.
    """
    rule = triangle_rule(degree)
    if not split:
        return rule.points, rule.weights
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    children = _red_children(ref[None], 0.5 * (ref[[1, 2, 0]] + ref[[2, 0, 1]])[None])[0]  # (4, 3, 2)
    d1, d2, _ = _frame(children)
    points = children[:, None, 0] + rule.points[:, :1] * d1[:, None] + rule.points[:, 1:] * d2[:, None]
    return points.reshape(-1, 2), np.tile(rule.weights / 4.0, 4)


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
