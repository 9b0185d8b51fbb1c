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
flux over twice the area, which vanishes for compatible data.

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
from .quadrature import edge_gauss_rule, triangle_rule
from .sparsela import RTOL, CsrMatrix, SingularMatrixError, lu_solve, minimum_degree, relative_residual, to_csr
from .spaces import HdivSpace, PseudostressField, VelocityField, build_space, identity_coeffs

__all__ = [
    "SystemLayout",
    "ElementBlocks",
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
class ElementBlocks:
    """Local blocks and maps of the hybridized system, one row per triangle.

    The m = 2 nl + 2 local unknowns are ``[sigma row 1 | sigma row 2 | u_1
    | u_2]``; the first 2 nl are the pseudostress unknowns.
    """

    operator: np.ndarray  # (nt, m, m) local block L_K of the unbordered operator
    inverse: np.ndarray  # (nt, m, m) inverse of L_K without its pinned row and column, zero there
    dofs: np.ndarray  # (nt, m) index of each local unknown in the bordered layout
    owned: np.ndarray  # (nt, m) True on the one local copy that carries each global unknown
    kernel: np.ndarray  # (nt, m) local coefficients z_K of sigma = I
    trace: np.ndarray  # (nt, m) local trace-mean column t_K
    load: np.ndarray  # (nt, m) local right-hand side b_K, nonzero on owned copies only
    pin: np.ndarray  # (nt,) the pinned sigma unknown, where |z_K| is largest
    edge: np.ndarray  # (nt, 2 nl) condensed index of the multiplier of each sigma unknown, `size` on the boundary
    c: np.ndarray  # (nt,) condensed index of c_K, `size` for the last (pinned) element
    sign: np.ndarray  # (nt, 2 nl) +1 and -1 on the two sides of an interior edge, 0 on the boundary
    size: int  # number N of condensed unknowns, numbered by elimination position


@dataclass
class LinearSystem:
    """Condensed operator and right-hand sides, with the element blocks.

    The condensed unknowns are the interior edge multipliers and c_K for
    every triangle but the last, each numbered by its position in the
    elimination order.  The right-hand side for the trace-mean multiplier
    lam is ``rhs - lam * rhs_trace``.
    """

    matrix: CsrMatrix
    rhs: np.ndarray
    rhs_trace: np.ndarray
    layout: SystemLayout
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


def _boundary_data(problem: ProblemSpec, mesh: Mesh, edge_points: int, owners):
    """Dirichlet data at the Gauss points of every boundary edge.

    `owners` is ``mesh.edge_owners()``.  Returns the owning triangle and
    the length of each boundary edge, the points (nbe, q, 2), the Gauss
    weights, the values of g there (nbe, q, 2) and the outward unit
    normals (nbe, 2).
    """
    bed = mesh.boundary_edges
    tri, loc = owners
    tris = tri[bed, 0]
    lengths = mesh.edge_lengths()[bed]
    tq, wq = edge_gauss_rule(edge_points)
    pts = mesh.edge_points(tq, bed)
    gv = np.asarray(problem.g(pts), dtype=np.float64)
    if gv.shape != pts.shape[:2] + (2,):
        raise ValueError(f"g must return shape {pts.shape[:2] + (2,)}, got {gv.shape}")
    n_out = mesh.edge_normals()[bed] * mesh.tri_signs[tris, loc[bed, 0]][:, None]
    return tris, lengths, pts, wq, gv, n_out


def _check_compatibility(problem: ProblemSpec, mesh: Mesh, owners) -> None:
    """Warn when the Dirichlet data has a nonzero net boundary flux."""
    _, lengths, _, wq, gv, n_out = _boundary_data(problem, mesh, 5, owners)
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
    problem: ProblemSpec, mesh: Mesh, space: HdivSpace, edge_points: int = 3, owners=None
) -> np.ndarray:
    """Boundary functional ``<g, tau n>`` of the first equation.

    Returns the full-length right-hand side vector with only the
    sigma-block entries filled.  ``n`` is the outward domain normal; the
    integrals use `edge_points`-point Gauss per boundary edge.  `owners`
    is ``mesh.edge_owners()``, computed here if not given.
    """
    layout = SystemLayout(n_row_dofs=space.n_dofs_per_row, nt=mesh.nt)
    rhs = np.zeros(layout.size)
    if mesh.boundary_edges.size == 0:
        return rhs

    if owners is None:
        owners = mesh.edge_owners()
    tris, lengths, pts, wq, gv, n_out = _boundary_data(problem, mesh, edge_points, owners)
    basis = space.eval_cells(tris, pts)  # (nbe, q, nl, 2)
    flux = np.einsum("eqjc,ec->eqj", basis, n_out)
    # contribution of basis j to the row-r equation: |E| sum_q w g_r flux_j
    contrib = lengths[:, None, None] * np.einsum("q,eqr,eqj->erj", wq, gv, flux)

    gdofs = space.dof_map[tris]  # (nbe, nl)
    for r in range(2):
        np.add.at(rhs, r * space.n_dofs_per_row + gdofs, contrib[:, r, :])
    return rhs


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


def _element_blocks(problem: ProblemSpec, mesh: Mesh, space: HdivSpace, owners) -> ElementBlocks:
    """Local blocks, loads and maps of every element; `owners` is ``mesh.edge_owners()``."""
    n = space.n_dofs_per_row
    nt = mesh.nt
    nl = space.ndof_local
    ns = 2 * nl
    layout = SystemLayout(n_row_dofs=n, nt=nt)

    rule = triangle_rule(_QUAD_DEGREE)
    w = rule.weights
    tris = np.arange(nt)
    pts = mesh.map_ref_points(rule.points, tris)  # (nt, nq, 2)
    area = mesh.tri_areas()
    phi = space.eval_cells(tris, pts)  # (nt, nq, nl, 2)
    bq = np.asarray(problem.b(pts), dtype=np.float64)
    cq = np.asarray(problem.c(pts), dtype=np.float64)
    fq = np.asarray(problem.f(pts), dtype=np.float64)

    # q[t, r nl + j, k]: row r of basis j at point k; qw adds the weights
    q = np.ascontiguousarray(phi.transpose(0, 3, 2, 1)).reshape(nt, ns, len(w))
    qw = q * (area[:, None] * w)[:, None, :]
    operator = np.zeros((nt, ns + 2, ns + 2))
    # --- deviatoric block: (dev sigma, tau) = (sigma, tau) - 1/2 (tr sigma, tr tau)
    gram = qw @ q.transpose(0, 2, 1)  # int phi_i[r] phi_j[s]
    mass = gram[:, :nl, :nl] + gram[:, nl:, nl:]
    operator[:, :ns, :ns] = -0.5 * gram
    operator[:, :nl, :nl] += mass
    operator[:, nl:ns, nl:ns] += mass

    # --- divergence coupling (div tau, u) and its negative transpose, exact
    divint = area[:, None] * space.basis_div  # (nt, nl)
    # --- convection ((dev tau) b, v) of the row-r trial tensor in velocity row p
    conv = qw @ bq  # (nt, ns, 2): int phi_j[r] b_p
    operator[:, ns:, :ns] = -0.5 * conv.transpose(0, 2, 1)
    conv_par = conv[:, :nl, 0] + conv[:, nl:, 1]  # int phi_j . b
    for r in range(2):
        rows = slice(r * nl, (r + 1) * nl)
        operator[:, rows, ns + r] = divint
        operator[:, ns + r, rows] += conv_par - divint
    # --- reaction (c u, v), diagonal per component
    react = area * np.einsum("q,tq->t", w, cq)
    operator[:, ns, ns] = react
    operator[:, ns + 1, ns + 1] = react

    dofs = np.empty((nt, ns + 2), dtype=np.int64)
    dofs[:, :nl] = space.dof_map
    dofs[:, nl:ns] = space.dof_map + n
    dofs[:, ns] = layout.offset_u + tris
    dofs[:, ns + 1] = layout.offset_u + nt + tris

    # one multiplier per interior edge moment and row; each sigma moment is
    # owned by the lower-index triangle of its edge (side 0)
    owner = owners[0]
    moments = n // mesh.ne
    interior = owner[np.arange(n) // moments, 1] >= 0  # (n,) per edge moment
    n_inner = int(interior.sum())
    edge_of = space.dof_map // moments  # (nt, nl)
    side0 = owner[edge_of, 0] == tris[:, None]
    sign = np.where(interior[space.dof_map], np.where(side0, 1.0, -1.0), 0.0)
    sign = np.concatenate([sign, sign], axis=1)
    rank = np.cumsum(interior) - 1
    # the condensed unknowns by elimination position; the boundary slots
    # and the last, pinned c point past them, at N
    size = 2 * n_inner + nt - 1
    position = np.append(_elimination_order(mesh, owner[:, 1] >= 0, moments), size)
    mult = np.concatenate([rank[space.dof_map], n_inner + rank[space.dof_map]], axis=1)
    edge = np.where(sign == 0, size, position[mult])
    owned = np.ones((nt, ns + 2), dtype=bool)
    owned[:, :ns] = np.concatenate([side0, side0], axis=1)

    kernel = np.zeros((nt, ns + 2))
    kernel[:, :ns] = identity_coeffs(space).ravel()[dofs[:, :ns]]
    trace = np.zeros((nt, ns + 2))
    trace[:, :ns] = qw.sum(axis=2)  # (tr tau, 1)

    rhs = assemble_dirichlet_rhs(problem, mesh, space, owners=owners)
    fint = area[:, None] * np.einsum("q,tqr->tr", w, fq)
    load = np.where(owned, rhs[dofs], 0.0)
    load[:, ns:] += fint

    pin = np.argmax(np.abs(kernel), axis=1)
    return ElementBlocks(
        operator=operator,
        inverse=_pinned_inverse(operator, pin),
        dofs=dofs,
        owned=owned,
        kernel=kernel,
        trace=trace,
        load=load,
        pin=pin,
        edge=edge,
        c=position[2 * n_inner :],
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
    index = np.concatenate([el.edge, el.c[:, None]], axis=1)
    weights = np.concatenate([el.sign * solved, np.sum(el.kernel * local, axis=1)[:, None]], axis=1)
    return np.bincount(index.ravel(), weights=weights.ravel(), minlength=el.size + 1)[:-1]


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


_QUAD_DEGREE = 4  # exactness of the element quadrature


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
    SingularMatrixError
        If a local block is not finite or is singular once pinned.
    """
    if space.mesh is not mesh:
        raise ValueError("space was not built on the given mesh")
    spot_check_boundary_data(problem, mesh)
    owners = mesh.edge_owners()
    _check_compatibility(problem, mesh, owners)

    el = _element_blocks(problem, mesh, space, owners)
    nt = mesh.nt
    ns = el.sign.shape[1]

    # edge rows: jump of the multiplier-driven local solutions G_K C_K^T mu ...
    live = (el.sign != 0) & (np.arange(ns) != el.pin[:, None])
    both = live[:, :, None] & live[:, None, :]
    shape = (nt, ns, ns)
    rows = [np.broadcast_to(el.edge[:, :, None], shape)[both]]
    cols = [np.broadcast_to(el.edge[:, None, :], shape)[both]]
    vals = [(el.inverse[:, :ns, :ns] * el.sign[:, :, None] * el.sign[:, None, :])[both]]
    # ... minus that of c_K z_K; element rows: z_K^T C_K^T mu
    zs = el.kernel[:, :ns] * el.sign
    coupled = (zs != 0) & (el.c < el.size)[:, None]
    ctri = np.broadcast_to(el.c[:, None], zs.shape)[coupled]
    rows += [el.edge[coupled], ctri]
    cols += [ctri, el.edge[coupled]]
    vals += [-zs[coupled], zs[coupled]]

    matrix = to_csr(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), el.size)
    return LinearSystem(
        matrix=matrix,
        rhs=_condensed_rhs(el, el.load),
        rhs_trace=_condensed_rhs(el, el.trace),
        layout=SystemLayout(n_row_dofs=space.n_dofs_per_row, nt=nt),
        space=space,
        elements=el,
    )


def _solve_hybrid(system: LinearSystem):
    """Solve the condensed system and back-substitute element by element.

    Returns ``(s, lam, residual)``: the sigma and u coefficients in the
    bordered layout, the trace-mean multiplier and the relative residual
    of ``(s, lam)`` in the bordered system, computed blockwise.
    """
    el = system.elements
    ns = el.sign.shape[1]
    nsigma = system.layout.offset_u
    lam = np.sum(el.kernel * el.load) / np.sum(el.kernel * el.trace)  # z^T b / z^T t

    y, _ = lu_solve(system.matrix, system.rhs - lam * system.rhs_trace)
    y = np.append(y, 0.0)  # the boundary slots and the last element's c are zero
    local = el.load - lam * el.trace
    local[:, :ns] -= el.sign * y[el.edge]
    x = y[el.c][:, None] * el.kernel + (el.inverse @ local[:, :, None])[:, :, 0]

    s = np.empty(system.layout.size - 1)
    s[el.dofs[el.owned]] = x[el.owned]
    # restore the zero trace mean with a multiple of I
    t = np.bincount(el.dofs[:, :ns].ravel(), weights=el.trace[:, :ns].ravel(), minlength=nsigma)
    z = identity_coeffs(system.space).ravel()
    s[:nsigma] -= (t @ s[:nsigma]) / (z @ t) * z

    applied = (el.operator @ s[el.dofs][:, :, None])[:, :, 0] + lam * el.trace - el.load
    misfit = np.append(np.bincount(el.dofs.ravel(), weights=applied.ravel(), minlength=s.size), t @ s[:nsigma])
    residual = relative_residual(misfit, el.load)  # each entry of b sits in one local copy
    if residual > RTOL:
        raise SingularMatrixError(f"bordered residual {residual:.3e} exceeds tolerance {RTOL:.1e}")
    return s, lam, residual


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
        s, lam, residual = _solve_hybrid(system)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"Oseen solve failed on mesh with nt={mesh.nt}: {exc}; "
            "the mesh may be too coarse for this convection field"
        ) from exc
    layout = system.layout
    sigma = PseudostressField(
        space=space, coeffs=np.stack([s[layout.sigma_rows(0)], s[layout.sigma_rows(1)]])
    )
    u = VelocityField(mesh=mesh, coeffs=np.stack([s[layout.u_rows(0)], s[layout.u_rows(1)]]))
    return OseenSolution(sigma=sigma, u=u, multiplier=float(lam), residual=residual, ndofs=layout.size)
