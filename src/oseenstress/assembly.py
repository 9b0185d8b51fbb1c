"""Assembly and hybridized direct solution of the pseudostress-velocity system.

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

Unknown layout of the bordered system (n = edge moments per tensor row,
nt = triangles):

    [ sigma row 1 | sigma row 2 | u component 1 | u component 2 | lam ]
      n entries     n entries     nt entries      nt entries      1

Total dimension N = 2 n + 2 nt + 1, the count reported as ``ndofs``.

No global matrix of this size is built.  The system is hybridized
(Arnold & Brezzi, M2AN 19, 1985): each triangle K keeps its own copy of
the pseudostress edge moments, and the normal continuity of the rows
across every interior edge is imposed by one multiplier per interior
edge moment and row (the velocity trace).  Each element then carries
its local block L_K on m = 2 nl + 2 unknowns ``[sigma row 1 | sigma row
2 | u_1 | u_2]`` (m = 8 for RT0, 14 for BDM1).

Every entry of L_K and of the element load integrates over K a basis
function times another or times the data b, c or f.  The data are
projected onto cellwise linears in a degree-4 rule
(``spaces.project_exact``), which changes no such integral in that rule,
and each entry is then an exact Gram product of cellwise linears
(``CellwiseLinear.inner``) or a cell mean times |K|.

The identity tensor lies in the kernel of L_K on both sides
(``dev I = 0``, ``div I = 0``); z_K denotes its local coefficients.  So
each element pins its pseudostress unknown with the largest ``|z_K|``,
keeps the coefficient c_K of I on K as a global unknown, and eliminates
the rest with the inverse of L_K without the pinned row and column.
What is left to factor is the condensed system on the interior edge
multipliers and the c_K: continuity of the moments on every interior
edge, and per element the solvability of its local system (L_K tested
with z_K).  One c is pinned against the global kernel I.  The trace-mean
multiplier has the closed form ``lam = z^T b / z^T t``, the net boundary
flux over twice the area, which vanishes for compatible data.  Each
element adds one dense block ``[[S G_K S, -S z_K], [z_K^T S, 0]]`` on its
multipliers and c_K (G_K the pinned inverse, S = ``tri_signs``, opposite
on the two sides of an edge, whose +1 copy carries the global unknown).

The condensed operator is structurally symmetric, but a third of its
diagonal is zero: every c_K row and some multiplier rows.  Its
elimination order is therefore built on the interior edges, not on the
unknowns: a minimum-degree order of the graph in which two interior
edges are adjacent when they share a triangle, expanded so that the
multipliers of each edge are consecutive, with each c_K placed directly
after the last of its own interior edges.  Every condensed unknown is
numbered by its position in that order, so the assembled operator is
already in factor order and SuperLU factors it as numbered, equilibrated
and with diagonal pivots; on the finest p1 BDM1 level this halves the
fill of SuperLU's own COLAMD column order.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .problems import ProblemSpec, spot_check_boundary_data
from .sparsela import CsrMatrix, SingularMatrixError, checked_residual, lu_solve, minimum_degree, to_csr
from .spaces import (
    CellwiseLinear,
    HdivSpace,
    PseudostressField,
    VelocityField,
    build_space,
    edge_rule,
    identity_coeffs,
    project_exact,
)

__all__ = [
    "ElementBlocks",
    "LinearSystem",
    "OseenSolution",
    "assemble",
    "solve_oseen",
]


@dataclass
class ElementBlocks:
    """Local blocks and maps of the hybridized system, one row per triangle.

    The m = 2 nl + 2 local unknowns are ``[sigma row 1 | sigma row 2 | u_1
    | u_2]``; the first 2 nl are the pseudostress unknowns.
    """

    operator: np.ndarray  # (nt, m, m) local block L_K of the unbordered operator
    inverse: np.ndarray  # (nt, m, m) inverse of L_K without its pinned row and column, zero there
    dofs: np.ndarray  # (nt, m) index of each local unknown in the bordered layout
    kernel: np.ndarray  # (nt, m) local coefficients z_K of sigma = I
    trace: np.ndarray  # (nt, m) local trace-mean column t_K
    load: np.ndarray  # (nt, m) local right-hand side b_K; each entry of b sits in one local copy
    pin: np.ndarray  # (nt,) the pinned sigma unknown, where |z_K| is largest
    index: np.ndarray  # (nt, 2 nl + 1) condensed index of each sigma multiplier, then c_K; `size` where none
    sign: np.ndarray  # (nt, 2 nl) tri_signs of each sigma unknown's interior edge, 0 on the boundary
    size: int  # number N of condensed unknowns, numbered by elimination position


@dataclass
class LinearSystem:
    """Condensed operator and right-hand side, with the element blocks.

    The condensed unknowns are the interior edge multipliers and c_K for
    every triangle but the last, each numbered by its position in the
    elimination order.  The right-hand side already carries the
    trace-mean multiplier.
    """

    matrix: CsrMatrix
    rhs: np.ndarray
    multiplier: float
    space: HdivSpace
    elements: ElementBlocks


@dataclass
class OseenSolution:
    """Solved fields plus solver diagnostics."""

    sigma: PseudostressField
    u: VelocityField
    multiplier: float
    residual: float
    ndofs: int


def _dirichlet_load(problem: ProblemSpec, space: HdivSpace):
    """Boundary functional ``<g, tau n>`` on the sigma dofs, shape (2, n), and its flux scale.

    ``n`` is the outward domain normal.  The local bases are dual to the edge
    moments, so on its own edge E a basis function has the normal trace
    ``(2k + 1) P_k / |E|`` along n_E (:func:`~oseenstress.spaces.edge_rule`).
    Row r of the moment-k dof of a boundary edge is then
    ``sign_E sum_q w_q g_r(x_q) (2k + 1) P_k(t_q)`` in 3-point Gauss,
    without evaluating a basis function; sign_E is +1 where n_E points
    out of the domain.  g is sampled once, and checked there against the
    exact velocity (:func:`~oseenstress.problems.spot_check_boundary_data`).
    The flux scale is ``(1 + max |g|)`` times the perimeter.
    """
    mesh = space.mesh
    bed = mesh.boundary_edges
    tq, weights = edge_rule(3, space.moments)
    pts = mesh.edge_points(tq, bed)
    gv = np.asarray(problem.g(pts), dtype=np.float64)
    if gv.shape != pts.shape:
        raise ValueError(f"g must return shape {pts.shape}, got {gv.shape}")
    spot_check_boundary_data(problem, pts, gv)
    dual = np.array([1.0, 3.0])[: space.moments, None] * weights  # (2k + 1) w_q P_k(t_q)
    # the two signs of an interior edge cancel, leaving that of the one side
    sign = np.bincount(mesh.tri_edges.ravel(), weights=mesh.tri_signs.ravel())[bed]
    load = np.zeros((2, mesh.ne, space.moments))
    load[:, bed] = sign[:, None] * np.einsum("kq,eqr->rek", dual, gv)
    scale = (1.0 + float(np.abs(gv).max(initial=0.0))) * float(mesh.edge_lengths()[bed].sum())
    return load.reshape(2, -1), scale


def _pinned_inverse(operator: np.ndarray, pin: np.ndarray) -> np.ndarray:
    """Inverse of each block without row and column ``pin``, zero-padded back.

    Raises
    ------
    SingularMatrixError
        If a block is not finite or is singular once pinned.
    """
    if not np.all(np.isfinite(operator)):
        raise SingularMatrixError("a local element block is not finite")
    k = np.arange(len(operator))
    a = operator.copy()
    a[k, pin, :] = 0.0
    a[k, :, pin] = 0.0
    a[k, pin, pin] = 1.0
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"a local element block is singular: {exc}") from exc
    if not np.all(np.isfinite(inverse)):
        raise SingularMatrixError("a local element block has a non-finite inverse")
    inverse[k, pin, pin] = 0.0
    return inverse


def _projected_data(mesh: Mesh, data, name: str, value_shape: tuple) -> CellwiseLinear:
    """Problem data projected in the element rule; ValueError unless of `value_shape`."""
    field = project_exact(mesh, data, degree=_QUAD_DEGREE).field
    if field.coeffs.shape[1:-1] != value_shape:
        raise ValueError(f"{name} must return value shape {value_shape} per point, got {field.coeffs.shape[1:-1]}")
    return field


def _element_blocks(problem: ProblemSpec, mesh: Mesh, space: HdivSpace, dirichlet: np.ndarray) -> ElementBlocks:
    """Local blocks, loads and maps of every element.

    `dirichlet` is the boundary functional on the sigma dofs
    (:func:`_dirichlet_load`).
    """
    n = space.n_dofs_per_row
    nt = mesh.nt
    nl = space.ndof_local
    ns = 2 * nl

    tris = np.arange(nt)
    area = mesh.tri_areas()
    # the local bases as one stack: component r of basis j at r nl + j
    basis = CellwiseLinear(mesh, space.basis_coeff.transpose(0, 2, 1, 3).reshape(nt, ns, 3))
    b = _projected_data(mesh, problem.b, "b", (2,))
    c = _projected_data(mesh, problem.c, "c", ())
    f = _projected_data(mesh, problem.f, "f", (2,))

    operator = np.zeros((nt, ns + 2, ns + 2))
    # --- deviatoric block: (dev sigma, tau) = (sigma, tau) - 1/2 (tr sigma, tr tau)
    gram = basis.inner(basis)  # int phi_i[r] phi_j[s]
    mass = gram[:, :nl, :nl] + gram[:, nl:, nl:]
    operator[:, :ns, :ns] = -0.5 * gram
    operator[:, :nl, :nl] += mass
    operator[:, nl:ns, nl:ns] += mass

    # --- divergence coupling (div tau, u) and its negative transpose, exact
    divint = area[:, None] * space.basis_div  # (nt, nl)
    # --- convection ((dev tau) b, v) of the row-r trial tensor in velocity row p
    conv = basis.inner(b)  # (nt, ns, 2): int phi_j[r] b_p
    operator[:, ns:, :ns] = -0.5 * conv.transpose(0, 2, 1)
    conv_par = conv[:, :nl, 0] + conv[:, nl:, 1]  # int phi_j . b
    for r in range(2):
        rows = slice(r * nl, (r + 1) * nl)
        operator[:, rows, ns + r] = divint
        operator[:, ns + r, rows] += conv_par - divint
    # --- reaction (c u, v), diagonal per component
    react = area * c.cell_means()
    operator[:, ns, ns] = react
    operator[:, ns + 1, ns + 1] = react

    dofs = np.empty((nt, ns + 2), dtype=np.int64)
    dofs[:, :nl] = space.dof_map
    dofs[:, nl:ns] = space.dof_map + n
    dofs[:, ns] = 2 * n + tris
    dofs[:, ns + 1] = 2 * n + nt + tris

    # one multiplier per interior edge moment and row, which ties the two
    # local copies of that moment, with opposite tri_signs, together
    moments = space.moments
    interior = np.ones(mesh.ne, dtype=bool)
    interior[mesh.boundary_edges] = False
    inner = np.repeat(interior, moments)  # (n,) per edge moment
    n_inner = int(inner.sum())
    sign = np.where(inner[space.dof_map], np.repeat(mesh.tri_signs, moments, axis=1), 0.0)
    sign = np.concatenate([sign, sign], axis=1)
    rank = np.cumsum(inner) - 1
    # the condensed unknowns by elimination position; the boundary slots
    # and the last, pinned c point past them, at N
    size = 2 * n_inner + nt - 1
    position = np.append(_elimination_order(mesh, interior, moments), size)
    index = np.empty((nt, ns + 1), dtype=np.int64)
    index[:, :ns] = np.where(sign == 0, size, position[np.concatenate([rank, n_inner + rank])[dofs[:, :ns]]])
    index[:, ns] = position[2 * n_inner + tris]

    kernel = np.zeros((nt, ns + 2))
    kernel[:, :ns] = identity_coeffs(space).ravel()[dofs[:, :ns]]
    trace = np.zeros((nt, ns + 2))
    trace[:, :ns] = (area * basis.cell_means()).T  # (tr tau, 1)

    # a boundary edge has one side, so its load sits in one local copy
    load = np.empty((nt, ns + 2))
    load[:, :ns] = dirichlet.ravel()[dofs[:, :ns]]
    load[:, ns:] = (area * f.cell_means()).T

    pin = np.argmax(np.abs(kernel), axis=1)
    return ElementBlocks(
        operator=operator,
        inverse=_pinned_inverse(operator, pin),
        dofs=dofs,
        kernel=kernel,
        trace=trace,
        load=load,
        pin=pin,
        index=index,
        sign=sign,
        size=size,
    )


def _condensed_rhs(el: ElementBlocks, local: np.ndarray) -> np.ndarray:
    """Condensed right-hand side of the local right-hand sides `local` (nt, m).

    Edge rows: the jump of the local solutions ``G_K local_K`` across
    every interior edge.  Element rows: ``z_K^T local_K``, the last element
    left out.
    """
    ns = el.sign.shape[1]
    solved = (el.inverse[:, :ns] @ local[:, :, None])[:, :, 0]
    weights = np.concatenate([el.sign * solved, np.sum(el.kernel * local, axis=1)[:, None]], axis=1)
    return np.bincount(el.index.ravel(), weights=weights.ravel(), minlength=el.size + 1)[:-1]


def _elimination_order(mesh: Mesh, interior: np.ndarray, moments: int) -> np.ndarray:
    """Fill-reducing order of the condensed unknowns (see the module docstring).

    `interior` marks the interior edges, each with `moments` multipliers
    per row.  The unknowns are listed as the multipliers (row r, moment k
    of interior edge i at ``r n_edges moments + i moments + k``), then c_K
    of every triangle but the last.  Returns the position in the
    elimination order of each.
    """
    n_edges = int(interior.sum())
    if n_edges == 0:
        return np.arange(mesh.nt - 1)
    rank = np.cumsum(interior) - 1
    inner = interior[mesh.tri_edges]  # (nt, 3)
    ranks = rank[mesh.tri_edges]
    # the interior edges of one triangle are pairwise adjacent
    a, b = np.nonzero(~np.eye(3, dtype=bool))
    pair = inner[:, a] & inner[:, b]
    position = minimum_degree(ranks[:, a][pair], ranks[:, b][pair], n_edges)
    # multiplier r n_edges moments + i moments + k sits on interior edge i
    key_mult = np.tile(2 * np.repeat(position, moments), 2)
    last = np.where(inner, position[ranks], -1).max(axis=1)[:-1]
    key_c = 2 * np.where(last >= 0, last, n_edges) + 1
    key = np.concatenate([key_mult, key_c])
    order = np.argsort(key * key.size + np.arange(key.size))  # ties go by index
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return position


_QUAD_DEGREE = 4  # exactness of the rule the data b, c and f are projected in


def assemble(problem: ProblemSpec, mesh: Mesh, space: HdivSpace) -> LinearSystem:
    """Assemble the element blocks and the condensed system.

    Parameters
    ----------
    problem : ProblemSpec
    mesh : Mesh
    space : HdivSpace
        Must have been built on `mesh`.

    Raises
    ------
    ValueError
        If g returns the wrong shape or differs from the exact velocity on
        the boundary, or if b, c or f return the wrong value shape.
    SingularMatrixError
        If a local block is not finite or is singular once pinned.

    Warns
    -----
    UserWarning
        If g has a net boundary flux ``z^T b`` above 1e-4 times its scale
        (:func:`_dirichlet_load`).
    """
    if space.mesh is not mesh:
        raise ValueError("space was not built on the given mesh")
    dirichlet, scale = _dirichlet_load(problem, space)
    el = _element_blocks(problem, mesh, space, dirichlet)
    flux = np.sum(el.kernel * el.load)  # z^T b, the net boundary flux of g
    if abs(flux) > 1e-4 * scale:
        warnings.warn(
            f"boundary data for {problem.name!r} has net flux {flux:.3e}; "
            "the incompressibility constraint is incompatible",
            stacklevel=2,
        )
    lam = flux / np.sum(el.kernel * el.trace)  # z^T b / z^T t
    ns = el.sign.shape[1]

    # the condensed block of each element on its multipliers and c_K, with
    # S = diag(sign): [[S G_K S, -S z_K], [z_K^T S, 0]]; G_K enters on its
    # unpinned interior entries, zeros included, the coupling where S z_K != 0
    zs = el.kernel[:, :ns] * el.sign
    block = np.zeros((mesh.nt, ns + 1, ns + 1))
    block[:, :ns, :ns] = el.inverse[:, :ns, :ns] * el.sign[:, :, None] * el.sign[:, None, :]
    block[:, :ns, ns] = -zs
    block[:, ns, :ns] = zs
    live = (el.sign != 0) & (np.arange(ns) != el.pin[:, None])
    keep = np.zeros(block.shape, dtype=bool)
    keep[:, :ns, :ns] = live[:, :, None] & live[:, None, :]
    keep[:, :ns, ns] = keep[:, ns, :ns] = (zs != 0) & (el.index[:, ns:] < el.size)
    rows = np.broadcast_to(el.index[:, :, None], block.shape)[keep]
    cols = np.broadcast_to(el.index[:, None, :], block.shape)[keep]
    return LinearSystem(
        matrix=to_csr(rows, cols, block[keep], el.size),
        rhs=_condensed_rhs(el, el.load - lam * el.trace),
        multiplier=float(lam),
        space=space,
        elements=el,
    )


def _owned_copies(el: ElementBlocks) -> np.ndarray:
    """(nt, m) mask of one local copy per unknown: an edge's +1 or only side, every velocity."""
    return np.pad(el.sign, ((0, 0), (0, 2)), constant_values=1.0) >= 0


def _solve_hybrid(system: LinearSystem):
    """Solve the condensed system and back-substitute element by element.

    Returns ``(s, residual)``: the sigma and u coefficients in the bordered
    layout and the relative residual of ``(s, lam)`` in the bordered
    system, computed blockwise.
    """
    el = system.elements
    ns = el.sign.shape[1]
    lam = system.multiplier

    y, _ = lu_solve(system.matrix, system.rhs)
    y = np.append(y, 0.0)  # the boundary slots and the last element's c are zero
    local = el.load - lam * el.trace
    local[:, :ns] -= el.sign * y[el.index[:, :ns]]
    x = y[el.index[:, ns]][:, None] * el.kernel + (el.inverse @ local[:, :, None])[:, :, 0]
    # restore the zero trace mean with a multiple of I
    x -= np.sum(el.trace * x) / np.sum(el.kernel * el.trace) * el.kernel

    owned = _owned_copies(el)
    s = np.empty(2 * system.space.n_dofs_per_row + 2 * system.space.mesh.nt)
    s[el.dofs[owned]] = x[owned]

    gathered = s[el.dofs]
    applied = (el.operator @ gathered[:, :, None])[:, :, 0] + lam * el.trace - el.load
    misfit = np.bincount(el.dofs.ravel(), weights=applied.ravel(), minlength=s.size)
    misfit = np.append(misfit, np.sum(el.trace * gathered))
    residual = checked_residual(misfit, el.load, "bordered")  # each entry of b sits in one local copy
    return s, residual


def solve_oseen(problem: ProblemSpec, mesh: Mesh, kind: str = "rt0") -> OseenSolution:
    """Assemble and solve; returns trace-mean-corrected fields.

    The bordered system is solved by hybridization (see the module
    docstring): the multiplier has a closed form, SuperLU factors only the
    condensed system on the interior edge multipliers and one c_K per
    element, in the minimum-degree edge order with diagonal pivots, and
    each element's (sigma_K, u_K) follows by back-substitution.  A
    multiple of I then restores the zero trace mean.  The reported
    residual is that of the full bordered system.

    Raises
    ------
    SingularMatrixError
        If a local block or the condensed factorization is singular or a
        relative residual exceeds 1e-9; for convection-dominated data this
        typically means the mesh is too coarse for the discrete system to
        be invertible.
    SolverMemoryError
        If SuperLU runs out of memory; it passes through unchanged.
    """
    space = build_space(mesh, kind)
    try:
        system = assemble(problem, mesh, space)
        s, residual = _solve_hybrid(system)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"Oseen solve failed on mesh with nt={mesh.nt}: {exc}; "
            "the mesh may be too coarse for this convection field"
        ) from exc
    nsigma = 2 * space.n_dofs_per_row
    sigma = PseudostressField(space=space, coeffs=s[:nsigma].reshape(2, -1))
    u = VelocityField(mesh=mesh, coeffs=s[nsigma:].reshape(2, mesh.nt))
    return OseenSolution(sigma=sigma, u=u, multiplier=system.multiplier, residual=residual, ndofs=s.size + 1)
