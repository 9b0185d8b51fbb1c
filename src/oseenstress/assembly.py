"""Assembly and direct solution of the mixed pseudostress-velocity system.

Discrete problem: find a tensor field ``sigma_h`` with H(div) rows, a
piecewise-constant velocity ``u_h`` and a scalar multiplier ``lam`` with

    (dev sigma_h, tau)   + (div tau, u_h) + lam (tr tau, 1) = <g, tau n>
    -(div sigma_h, v) + ((dev sigma_h) b, v) + (c u_h, v)   = (f, v)
    (tr sigma_h, 1)                                         = 0

for all test rows ``tau`` and constants ``v``, where ``dev`` is the
deviatoric (trace-free) part.  The single Lagrange multiplier imposes the
zero-trace-mean normalization of the pseudostress space; restricted to
trace-mean-free test functions the first equation reduces to the
constrained formulation, so the solved pair coincides with it.

Unknown layout (n = edge moments per tensor row, nt = triangles):

    [ sigma row 1 | sigma row 2 | u component 1 | u component 2 | lam ]
      n entries     n entries     nt entries      nt entries      1

Total dimension N = 2 n + 2 nt + 1.

:func:`assemble` returns this bordered matrix, but :func:`solve_oseen`
never factors it.  The identity tensor I lies in the kernel of the
unbordered operator K on both sides (``dev I = 0``, ``div I = 0``), so
testing with ``tau = I`` gives the multiplier in closed form,
``lam = <g, n> / (2 |Omega|)`` (the net boundary flux over twice the
area), which vanishes for compatible data.  SuperLU then factors K with
the multiplier row and column removed and one pseudostress unknown
pinned to zero, a sparse matrix of size N - 2 without the dense border,
and a multiple of I restores the zero trace mean.  The result is the
solution of the bordered system, whose residual is checked.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .problems import ProblemSpec, spot_check_boundary_data
from .quadrature import edge_gauss_rule, triangle_rule
from .sparsela import CsrMatrix, SingularMatrixError, lu_solve, relative_residual, to_csr
from .spaces import (
    HdivSpace,
    PseudostressField,
    VelocityField,
    apply_trace_correction,
    build_space,
    identity_coeffs,
)

__all__ = [
    "SystemLayout",
    "LinearSystem",
    "OseenSolution",
    "assemble",
    "assemble_dirichlet_rhs",
    "solve_oseen",
]


@dataclass(frozen=True)
class SystemLayout:
    """Block offsets of the saddle-point system."""

    n_row_dofs: int
    nt: int

    @property
    def offset_u(self) -> int:
        return 2 * self.n_row_dofs

    @property
    def multiplier(self) -> int:
        return 2 * self.n_row_dofs + 2 * self.nt

    @property
    def size(self) -> int:
        return 2 * self.n_row_dofs + 2 * self.nt + 1

    def sigma_rows(self, r: int) -> slice:
        return slice(r * self.n_row_dofs, (r + 1) * self.n_row_dofs)

    def u_rows(self, r: int) -> slice:
        base = self.offset_u + r * self.nt
        return slice(base, base + self.nt)


@dataclass
class LinearSystem:
    """Assembled sparse operator, right-hand side and layout."""

    matrix: CsrMatrix
    rhs: np.ndarray
    layout: SystemLayout
    space: HdivSpace


@dataclass
class OseenSolution:
    """Solved fields plus solver diagnostics."""

    sigma: PseudostressField
    u: VelocityField
    multiplier: float
    residual: float
    ndofs: int


def _boundary_data(problem: ProblemSpec, mesh: Mesh, edge_points: int):
    """Dirichlet data at the Gauss points of every boundary edge.

    Returns the owning triangle and the length of each boundary edge, the
    points (nbe, q, 2), the Gauss weights, the values of g there
    (nbe, q, 2) and the outward unit normals (nbe, 2).
    """
    bed = mesh.boundary_edges
    tri, loc = mesh.edge_owners()
    tris = tri[bed, 0]
    lengths = mesh.edge_lengths()[bed]
    tq, wq = edge_gauss_rule(edge_points)
    pts = mesh.edge_points(tq, bed)
    gv = np.asarray(problem.g(pts), dtype=np.float64)
    if gv.shape != pts.shape[:2] + (2,):
        raise ValueError(f"g must return shape {pts.shape[:2] + (2,)}, got {gv.shape}")
    n_out = mesh.edge_normals()[bed] * mesh.tri_signs[tris, loc[bed, 0]][:, None]
    return tris, lengths, pts, wq, gv, n_out


def _check_compatibility(problem: ProblemSpec, mesh: Mesh) -> None:
    """Warn when the Dirichlet data has a nonzero net boundary flux."""
    _, lengths, _, wq, gv, n_out = _boundary_data(problem, mesh, 5)
    flux = float(np.sum(lengths * np.einsum("q,eqc,ec->e", wq, gv, n_out)))
    perimeter = float(lengths.sum())
    scale = (1.0 + float(np.abs(gv).max(initial=0.0))) * perimeter
    if abs(flux) > 1e-4 * scale:
        warnings.warn(
            f"boundary data for {problem.name!r} has net flux {flux:.3e}; "
            "the incompressibility constraint is incompatible",
            stacklevel=3,
        )


def assemble_dirichlet_rhs(
    problem: ProblemSpec, mesh: Mesh, space: HdivSpace, edge_points: int = 3
) -> np.ndarray:
    """Boundary functional ``<g, tau n>`` of the first equation.

    Returns the full-length right-hand side vector with only the
    sigma-block entries filled.  ``n`` is the outward domain normal; the
    integrals use `edge_points`-point Gauss per boundary edge.
    """
    layout = SystemLayout(n_row_dofs=space.n_dofs_per_row, nt=mesh.nt)
    rhs = np.zeros(layout.size)
    if mesh.boundary_edges.size == 0:
        return rhs

    tris, lengths, pts, wq, gv, n_out = _boundary_data(problem, mesh, edge_points)
    basis = space.eval_cells(tris, pts)  # (nbe, q, nl, 2)
    flux = np.einsum("eqjc,ec->eqj", basis, n_out)
    # contribution of basis j to the row-r equation: |E| sum_q w g_r flux_j
    contrib = lengths[:, None, None] * np.einsum("q,eqr,eqj->erj", wq, gv, flux)

    gdofs = space.dof_map[tris]  # (nbe, nl)
    for r in range(2):
        np.add.at(rhs, r * space.n_dofs_per_row + gdofs, contrib[:, r, :])
    return rhs


def assemble(
    problem: ProblemSpec, mesh: Mesh, space: HdivSpace, quad_degree: int = 4
) -> LinearSystem:
    """Assemble the saddle-point system for a problem on a mesh.

    Parameters
    ----------
    problem : ProblemSpec
    mesh : Mesh
    space : HdivSpace
        Must have been built on `mesh`.
    quad_degree : int
        Element quadrature exactness; at least 4.
    """
    if space.mesh is not mesh:
        raise ValueError("space was not built on the given mesh")
    if quad_degree < 4:
        raise ValueError(f"element quadrature degree must be >= 4, got {quad_degree}")
    spot_check_boundary_data(problem, mesh)
    _check_compatibility(problem, mesh)

    n = space.n_dofs_per_row
    nt = mesh.nt
    nl = space.ndof_local
    layout = SystemLayout(n_row_dofs=n, nt=nt)
    blocks = []  # (rows, cols, vals) triplet blocks in insertion order

    rule = triangle_rule(quad_degree)
    w = rule.weights
    tris = np.arange(nt)
    pts = mesh.map_ref_points(rule.points, tris)  # (nt, nq, 2)
    area = mesh.tri_areas()
    phi = space.eval_cells(tris, pts)  # (nt, nq, nl, 2)
    bq = np.asarray(problem.b(pts), dtype=np.float64)
    cq = np.asarray(problem.c(pts), dtype=np.float64)
    fq = np.asarray(problem.f(pts), dtype=np.float64)

    gdofs = space.dof_map  # (nt, nl)
    row_sigma = np.empty((2, nt, nl), dtype=np.int64)
    row_sigma[0] = gdofs
    row_sigma[1] = gdofs + n
    row_u = layout.offset_u + np.stack([tris, nt + tris])  # (2, nt)

    # --- deviatoric block: (dev sigma, tau) = (sigma, tau) - 1/2 (tr sigma, tr tau)
    mass = np.einsum("q,tqic,tqjc->tij", w, phi, phi) * area[:, None, None]
    trm = np.einsum("q,tqir,tqjs->tirjs", w, phi, phi) * area[:, None, None, None, None]
    aloc = np.zeros((nt, 2, nl, 2, nl))
    for r in range(2):
        aloc[:, r, :, r, :] = mass
    aloc -= 0.5 * np.transpose(trm, (0, 2, 1, 4, 3))
    rows = np.broadcast_to(row_sigma.transpose(1, 0, 2)[:, :, :, None, None], aloc.shape)
    cols = np.broadcast_to(row_sigma.transpose(1, 0, 2)[:, None, None, :, :], aloc.shape)
    blocks.append((rows, cols, aloc))

    # --- divergence coupling: (div tau, u) and its negative transpose
    divint = area[:, None] * space.basis_div  # (nt, nl): exact, divergences constant
    for r in range(2):
        ucol = np.broadcast_to(row_u[r][:, None], (nt, nl))
        blocks.append((row_sigma[r], ucol, divint))
        blocks.append((ucol, row_sigma[r], -divint))

    # --- convection: ((dev tau) b, v) with row-r trial tensor tau
    conv_par = np.einsum("q,tqjc,tqc->tj", w, phi, bq) * area[:, None]
    conv_tr = np.einsum("q,tqjr,tqp->tjrp", w, phi, bq) * area[:, None, None, None]
    for rp in range(2):
        for r in range(2):
            val = -0.5 * conv_tr[:, :, r, rp]
            if rp == r:
                val = val + conv_par
            urow = np.broadcast_to(row_u[rp][:, None], (nt, nl))
            blocks.append((urow, row_sigma[r], val))

    # --- reaction: (c u, v), diagonal per component
    react = area * np.einsum("q,tq->t", w, cq)
    for r in range(2):
        blocks.append((row_u[r], row_u[r], react))

    # --- trace-mean constraint row/column (symmetric bordering)
    trint = np.einsum("q,tqjr->tjr", w, phi) * area[:, None, None]
    for r in range(2):
        mrow = np.full((nt, nl), layout.multiplier, dtype=np.int64)
        blocks.append((row_sigma[r], mrow, trint[:, :, r]))
        blocks.append((mrow, row_sigma[r], trint[:, :, r]))

    rhs = assemble_dirichlet_rhs(problem, mesh, space)
    fint = area[:, None] * np.einsum("q,tqr->tr", w, fq)
    for r in range(2):
        rhs[row_u[r]] += fint[:, r]

    rows, cols, vals = (np.concatenate([np.ravel(b[i]) for b in blocks]) for i in range(3))
    matrix = to_csr(rows, cols, vals, layout.size)
    return LinearSystem(matrix=matrix, rhs=rhs, layout=layout, space=space)


_RTOL = 1e-9  # relative residual bound of every direct solve


def _solve_bordered(system: LinearSystem):
    """Solve the bordered system without factoring its border.

    With ``t`` the trace-mean column and ``z`` the coefficients of sigma = I
    (zero on the velocity rows), ``K z = 0`` and ``z^T K = 0`` for the
    unbordered operator K.  So ``lam = z^T b / z^T t``, ``K s = b - lam t``
    is consistent, and pinning the entry k where ``|z|`` is largest removes
    both the kernel and the one dependent row: K without row and column k
    is nonsingular whenever the bordered matrix is.  Adding a multiple of z
    then meets the constraint ``t^T s = rhs[-1]``.

    Returns ``(x, residual)`` with the relative residual of x in the
    bordered system.
    """
    m = system.layout.multiplier
    bordered = system.matrix.to_scipy()
    t = bordered[m].toarray().ravel()[:m]
    b = system.rhs[:m]
    z = np.zeros(m)
    z[: system.layout.offset_u] = identity_coeffs(system.space).ravel()
    zt = z @ t  # = 2 |Omega|
    lam = (z @ b) / zt

    k = int(np.argmax(np.abs(z)))
    coo = bordered.tocoo()
    inside = (coo.row < m) & (coo.col < m) & (coo.row != k) & (coo.col != k)
    rows, cols = coo.row[inside], coo.col[inside]
    pinned = to_csr(rows - (rows > k), cols - (cols > k), coo.data[inside], m - 1)
    keep = np.arange(m) != k
    s = np.zeros(m)
    s[keep], _ = lu_solve(pinned, (b - lam * t)[keep], rtol=_RTOL)
    s += (system.rhs[m] - t @ s) / zt * z

    x = np.append(s, lam)
    residual = relative_residual(bordered, x, system.rhs)
    if residual > _RTOL:
        raise SingularMatrixError(f"bordered residual {residual:.3e} exceeds tolerance {_RTOL:.1e}")
    return x, residual


def solve_oseen(
    problem: ProblemSpec, mesh: Mesh, kind: str = "rt0", quad_degree: int = 4
) -> OseenSolution:
    """Assemble and solve; returns trace-mean-corrected fields.

    The bordered matrix is never factored: the multiplier has a closed
    form and SuperLU factors the system without its dense trace-mean row
    and column and with one pseudostress dof pinned (see
    :func:`_solve_bordered`).  The reported residual is that of the full
    bordered system.

    Raises
    ------
    SingularMatrixError
        If the direct factorization fails or a relative residual exceeds
        1e-9; for convection-dominated data this typically means the mesh
        is too coarse for the discrete system to be invertible.
    """
    space = build_space(mesh, kind)
    system = assemble(problem, mesh, space, quad_degree=quad_degree)
    try:
        x, residual = _solve_bordered(system)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"Oseen solve failed on mesh with nt={mesh.nt}: {exc}; "
            "the mesh may be too coarse for this convection field"
        ) from exc
    layout = system.layout
    sigma = PseudostressField(
        space=space, coeffs=np.stack([x[layout.sigma_rows(0)], x[layout.sigma_rows(1)]])
    )
    sigma = apply_trace_correction(sigma)
    u = VelocityField(mesh=mesh, coeffs=np.stack([x[layout.u_rows(0)], x[layout.u_rows(1)]]))
    return OseenSolution(
        sigma=sigma,
        u=u,
        multiplier=float(x[layout.multiplier]),
        residual=residual,
        ndofs=layout.size,
    )
