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
it with ``cellwise()``; evaluation, cell means and exact L2 norms are
defined there once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh
from .quadrature import edge_gauss_rule, triangle_rule

__all__ = [
    "CellwiseLinear",
    "HdivSpace",
    "PseudostressField",
    "VelocityField",
    "apply_deviatoric",
    "build_space",
    "identity_coeffs",
    "interpolate_pseudostress",
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

        With g the gradient and d_i = vertex_i - centroid,
        ``int_K (a0 + g.(x - c))^2 = |K| (a0^2 + (1/12) sum_i (g.d_i)^2)``.
        """
        mesh = self.mesh
        c = self.coeffs.reshape(mesh.nt, -1, 3)
        gd = c[:, :, 1:] @ mesh.tri_offsets().transpose(0, 2, 1)  # (nt, k, 3)
        sq = np.sum(c[:, :, 0] ** 2, axis=1) + np.sum(gd**2, axis=(1, 2)) / 12.0
        return mesh.tri_areas() * sq


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
    dof_signs : ndarray, shape (nt, nl)
        Orientation of the local edge relative to the global edge (+1 when
        the outward normal equals the global normal).  The local bases are
        dual to the *global* functionals, so these signs are bookkeeping
        for flux identities, not assembly fixups.
    basis_coeff : ndarray, shape (nt, nl, 2, 3)
        Monomial coefficients of each local basis function over
        {1, x-cx, y-cy} centered at the element centroid.
    basis_div : ndarray, shape (nt, nl)
        Constant divergence of each local basis function.
    centroids : ndarray, shape (nt, 2)
    """

    kind: str
    mesh: Mesh
    n_dofs_per_row: int
    dof_map: np.ndarray
    dof_signs: np.ndarray
    basis_coeff: np.ndarray
    basis_div: np.ndarray
    centroids: np.ndarray

    @property
    def ndof_local(self) -> int:
        return self.dof_map.shape[1]

    def eval_cells(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Evaluate all local basis functions at physical points.

        Parameters
        ----------
        tris : ndarray, shape (m,)
        pts : ndarray, shape (m, nq, 2)
            Physical points inside the respective triangles.

        Returns
        -------
        ndarray, shape (m, nq, nl, 2)
        """
        dx = pts - self.centroids[tris][:, None, :]
        mono = np.concatenate([np.ones(dx.shape[:2] + (1,)), dx], axis=2)
        return np.einsum("tjcm,tqm->tqjc", self.basis_coeff[tris], mono)


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
    dof_signs = mesh.tri_signs if kind == "rt0" else np.repeat(mesh.tri_signs, 2, axis=1)

    return HdivSpace(
        kind=kind,
        mesh=mesh,
        n_dofs_per_row=moments * mesh.ne,
        dof_map=dof_map,
        dof_signs=dof_signs.copy(),
        basis_coeff=basis_coeff,
        basis_div=basis_div,
        centroids=centroids,
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


def interpolate_pseudostress(
    space: HdivSpace, sigma, trace_correct: bool = True, edge_points: int = 3
) -> PseudostressField:
    """Canonical (edge-moment) interpolation of an analytic tensor field.

    Parameters
    ----------
    space : HdivSpace
    sigma : callable
        Vectorized map from points of shape (..., 2) to tensors of shape
        (..., 2, 2).
    trace_correct : bool
        Subtract the trace mean after interpolation (default).  The
        uncorrected interpolant commutes with the cellwise projection of
        the divergence; the correction does not change any divergence.
    edge_points : int
        Gauss points per edge for the moment integrals (default 3).
    """
    mesh = space.mesh
    lengths = mesh.edge_lengths()
    normals = mesh.edge_normals()
    tq, wq = edge_gauss_rule(edge_points)
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
    field = PseudostressField(space=space, coeffs=coeffs)
    if trace_correct:
        field = apply_trace_correction(field)
    return field


def project_velocity(mesh: Mesh, u, degree: int = 6) -> VelocityField:
    """Cellwise mean (L2 projection onto piecewise constants) of a velocity.

    Parameters
    ----------
    mesh : Mesh
    u : callable
        Vectorized map from points of shape (..., 2) to velocities of the
        same leading shape plus a trailing component axis.
    degree : int
        Triangle quadrature exactness for the cell means.
    """
    rule = triangle_rule(degree)
    tris = np.arange(mesh.nt)
    pts = mesh.map_ref_points(rule.points, tris)
    vals = np.asarray(u(pts), dtype=np.float64)  # (nt, nq, 2)
    if vals.shape != pts.shape[:2] + (2,):
        raise ValueError(f"u must return shape {pts.shape[:2] + (2,)}, got {vals.shape}")
    means = np.einsum("q,tqr->rt", rule.weights, vals)
    return VelocityField(mesh=mesh, coeffs=means)
