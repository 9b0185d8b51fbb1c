"""Reference monolithic assembly and bordered solve of the Oseen system.

This is the assembly of the whole saddle-point matrix, trace-mean border
included, and its solve with the multiplier in closed form and one
pseudostress dof pinned, which ``assembly.assemble`` and
``assembly.solve_oseen`` replaced with the hybridized (element-condensed)
solve.  It is kept as the oracle the hybridized solve is checked against
(``tests/test_assembly.py``), factored with SuperLU's own column order
and partial pivoting (``conftest.colamd_lu_solve``).

It also keeps the boundary functional as it was assembled before the
Dirichlet load became the dual edge moments of g: a quadrature over the
basis functions' normal traces, at any number of edge Gauss points, plus
the net-flux check in 5-point Gauss.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from conftest import colamd_lu_solve, eval_cells, map_ref_points
from oseenstress.mesh import Mesh
from oseenstress.problems import ProblemSpec
from oseenstress.quadrature import edge_gauss_rule, triangle_rule
from oseenstress.sparsela import RTOL, CsrMatrix, SingularMatrixError, relative_residual, to_csr
from oseenstress.spaces import (
    CellwiseLinear,
    HdivSpace,
    PseudostressField,
    apply_trace_correction,
    build_space,
    identity_coeffs,
)


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


def _boundary_data(problem: ProblemSpec, mesh: Mesh, edge_points: int):
    """Dirichlet data at the Gauss points of every boundary edge.

    Returns the owning triangle and the length of each boundary edge, the
    points (nbe, q, 2), the Gauss weights, the values of g there (nbe, q,
    2) and the outward unit normals (nbe, 2).
    """
    bed = mesh.boundary_edges
    # a triangle of every edge and its sign there: the only one on a boundary edge
    tri, sign = np.empty((2, mesh.ne), dtype=np.int64)
    tri[mesh.tri_edges], sign[mesh.tri_edges] = np.arange(mesh.nt)[:, None], mesh.tri_signs
    tris = tri[bed]
    lengths = mesh.edge_lengths()[bed]
    tq, wq = edge_gauss_rule(edge_points)
    pts = mesh.edge_points(tq, bed)
    gv = np.asarray(problem.g(pts), dtype=np.float64)
    if gv.shape != pts.shape[:2] + (2,):
        raise ValueError(f"g must return shape {pts.shape[:2] + (2,)}, got {gv.shape}")
    n_out = mesh.edge_normals()[bed] * sign[bed, None]
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
    basis = eval_cells(CellwiseLinear(mesh, space.bases()[0]), tris, pts)  # (nbe, q, nl, 2)
    flux = np.einsum("eqjc,ec->eqj", basis, n_out)
    # contribution of basis j to the row-r equation: |E| sum_q w g_r flux_j
    contrib = lengths[:, None, None] * np.einsum("q,eqr,eqj->erj", wq, gv, flux)

    gdofs = space.dof_map[tris]  # (nbe, nl)
    for r in range(2):
        np.add.at(rhs, r * space.n_dofs_per_row + gdofs, contrib[:, r, :])
    return rhs


@dataclass
class LinearSystem:
    """Assembled sparse operator, right-hand side and layout."""

    matrix: CsrMatrix
    rhs: np.ndarray
    layout: SystemLayout
    space: HdivSpace


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
    _check_compatibility(problem, mesh)

    n = space.n_dofs_per_row
    nt = mesh.nt
    nl = space.ndof_local
    layout = SystemLayout(n_row_dofs=n, nt=nt)
    blocks = []  # (rows, cols, vals) triplet blocks in insertion order

    rule = triangle_rule(quad_degree)
    w = rule.weights
    tris = np.arange(nt)
    pts = map_ref_points(mesh, rule.points, tris)  # (nt, nq, 2)
    area = mesh.tri_areas()
    phi = eval_cells(CellwiseLinear(mesh, space.bases()[0]), tris, pts)  # (nt, nq, nl, 2)
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
    divint = area[:, None] * space.bases()[1]  # (nt, nl): exact, divergences constant
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
    keep = np.flatnonzero(np.arange(m) != k)
    sub = bordered[keep][:, keep]  # slicing keeps indices sorted
    pinned = CsrMatrix(m - 1, sub.indptr, sub.indices, sub.data)
    s = np.zeros(m)
    s[keep], _ = colamd_lu_solve(pinned, (b - lam * t)[keep])
    s += (system.rhs[m] - t @ s) / zt * z

    x = np.append(s, lam)
    residual = relative_residual(bordered @ x - system.rhs, system.rhs)
    if residual > RTOL:
        raise SingularMatrixError(f"bordered residual {residual:.3e} exceeds tolerance {RTOL:.1e}")
    return x, residual


def oracle_solve(problem: ProblemSpec, mesh: Mesh, kind: str = "rt0"):
    """The monolithic solve: ``(sigma coeffs, u coeffs, lam)`` as the old ``solve_oseen`` returned them."""
    system = assemble(problem, mesh, build_space(mesh, kind))
    x, _ = _solve_bordered(system)
    lay = system.layout
    sigma = PseudostressField(space=system.space, coeffs=np.stack([x[lay.sigma_rows(0)], x[lay.sigma_rows(1)]]))
    u = np.stack([x[lay.u_rows(0)], x[lay.u_rows(1)]])
    return apply_trace_correction(sigma).coeffs, u, float(x[lay.multiplier])
