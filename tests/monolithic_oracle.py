"""Reference monolithic assembly and bordered solve of the Oseen system.

This is the assembly of the whole saddle-point matrix, trace-mean border
included, and its solve with the multiplier in closed form and one
pseudostress dof pinned, which ``assembly.assemble`` and
``assembly.solve_oseen`` replaced with the hybridized (element-condensed)
solve.  It is kept as the oracle the hybridized solve is checked against
(``tests/test_assembly.py``), factored with SuperLU's own column order
and partial pivoting (``conftest.colamd_lu_solve``).
"""

from dataclasses import dataclass

import numpy as np

from conftest import colamd_lu_solve
from oseenstress.assembly import SystemLayout, _check_compatibility, assemble_dirichlet_rhs
from oseenstress.mesh import Mesh
from oseenstress.problems import ProblemSpec, spot_check_boundary_data
from oseenstress.quadrature import triangle_rule
from oseenstress.sparsela import RTOL, CsrMatrix, SingularMatrixError, relative_residual, to_csr
from oseenstress.spaces import (
    CellwiseLinear,
    HdivSpace,
    PseudostressField,
    apply_trace_correction,
    build_space,
    identity_coeffs,
)


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
    spot_check_boundary_data(problem, mesh)
    _check_compatibility(problem, mesh, mesh.edge_owners())

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
    phi = CellwiseLinear(mesh, space.basis_coeff).eval_cells(tris, pts)  # (nt, nq, nl, 2)
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
    pinned = CsrMatrix.from_scipy(bordered[keep][:, keep])  # slicing keeps indices sorted
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
