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
(``spaces.cell_gram``) or a cell mean times |K|.

The identity tensor lies in the kernel of L_K on both sides
(``dev I = 0``, ``div I = 0``); z_K denotes its local coefficients.  So
each element pins one pseudostress unknown, keeps the coefficient c_K
of I on K as a global unknown, and eliminates the rest with the inverse
G_K of L_K without the pinned row and column.

These inverses go by shape class (``Mesh.shape_classes``): under red
refinement every triangle is a scaled, moved or point-reflected copy of
a start triangle, and the triangles of one class are scaled and moved
copies of its first, with the same edge orientations.  In the dual bases
L_K without its convection and reaction, ``[[A, B], [-B^T, 0]]`` with A
the deviatoric mass and B the divergence, is then the same on every
member, and so is z_K up to the scale.  So that block is pinned at its
largest ``|z_K|`` and inverted once per class, on the class's first
triangle, and each element adds its two velocity rows V_K (convection
and reaction) by a rank-2 Woodbury update with a 2x2 inverse in closed
form.  No dense solve is made per element.  On the finest p1 levels of
the benchmark this leaves 469 class inverses for 19,456 RT0 triangles
and 463 for 4,864 BDM1 ones; a mesh with no repeated shape has one class
per triangle and takes the same path.

What is left to factor is the condensed system on the interior edge
multipliers and the c_K: continuity of the moments on every interior
edge, and per element the solvability of its local system (L_K tested
with z_K).  One c is pinned against the global kernel I.  The trace-mean
multiplier has the closed form ``lam = z^T b / z^T t``, the net boundary
flux over twice the area, which vanishes for compatible data.  Each
element adds one dense block ``[[S G_K S, -S z_K], [z_K^T S, 0]]`` on its
multipliers and c_K (G_K the pinned inverse, S = ``tri_signs``, opposite
on the two sides of an edge, whose +1 copy carries the global unknown).
After the back-substitution the owned copies are scattered to the
bordered layout, and ``spaces.apply_trace_correction``, the correction
the interpolant uses, subtracts the multiple of I that restores the zero
trace mean, which the pinned c leaves open.

The condensed operator is structurally symmetric, but a third of its
diagonal is zero: every c_K row and some multiplier rows.  Its
elimination order is therefore built on edges, not on the unknowns: a
minimum-degree order of the graph in which two edges are adjacent when
they share a unit (below: a triangle or a condensed red group).  One
stable sort numbers every condensed unknown by its position in the
elimination: a multiplier on the edge at position p of that order has
the key 2 p, the c of a unit 2 p + 1 with p the position of the unit's
last edge, and ties go by multiplier and then by unit.  So the
multipliers of each edge are consecutive, and each c comes directly
after the last of its unit's edges.  The assembled operator is then
already in factor order and SuperLU factors it as numbered, equilibrated
and with diagonal pivots; on the finest p1 BDM1 level this halves the
fill of SuperLU's own COLAMD column order.

Before that, the condensation goes on through the red groups of the
mesh, which serve as nested-dissection separators (George, SINUM 10,
1973).  Both refinements write the four children of a red split as
consecutive rows, the middle child last, and the groups are read back
off the triangle array (``mesh.red_groups``).  The four children of a
group sum their condensed blocks into one dense group block; the
multipliers on the three edges inside the parent and the c of the three
corner children are eliminated in one batched solve, and the middle
child's c is kept as the parent's.  The four c columns sum to zero on
every eliminated row (I is continuous across the inner edges), so the
Schur complement on the rest is again a block ``[[A, -v], [w^T, 0]]`` on
the parent's edge multipliers, twice as many per edge and row, and on
its c; its c-c entry is exactly zero.  A triangle in no red group is a
unit of its own, its block padded to the parent's size with dead slots.
The units of a level are condensed again, with the parents' triangles
read off the groups, while the last level left no triangle alone and
the parents' edges carry at most 32 multipliers per row, so a top unit
holds at most 1,024 fine triangles.  On a uniform refinement that gives
up to 5 levels for RT0 and 4 for BDM1: the finest p1 levels of both
condense down to the 19-triangle start mesh, and SuperLU factors 1,426
unknowns with 0.56M fill, against 7,183 with 1.72M at 8 multipliers
per row.  An adaptive mesh, whose red groups sit beside green pairs and
unrefined triangles, stops after one level.  The edges of the top
system are the sets of fine edges that two top units share, numbered by
their first fine edge (on a uniform hierarchy, the interior edges of
the coarse mesh in its own order), and only the top system is factored
by SuperLU; each level keeps its solved group blocks, and the
back-substitution runs from the top down.  A mesh without red groups is
condensed once, on its own triangles.  At every depth SuperLU gets the
nonzero entries of the top blocks on live unknowns.

The condensation holds one chunk of the mesh at a time.  Its structure
is read first, in one pass over whole levels: the red groups of every
level, the unit each block goes into, the slots of its unknowns there
and the multiplier ids moved into them, up to the ids of the top units,
which number the top system.  Then chunks of whole top units go from
their inverses G_K, updated from their classes', through every level to
their top blocks.  A chunk is sized by its dense entries, not by a fixed
count of triangles: ``_CHUNK_ENTRIES`` = 2048 * 8² entries of local
blocks of size m make runs of about 2,048 fine RT0 triangles (m = 8) and
668 BDM1 ones (m = 14), each rounded up to the next top unit, so the
group blocks of a BDM1 chunk take about what an RT0 chunk's do;
only numbers are condensed there, and they are written, with each
level's solved group blocks and each element's rank-2 update, into
arrays allocated once at full size.  So what the solve keeps is what it
reads after the factorization and the mesh and the space do not give:
the element loads and projected data, the class inverses Ĝ (nc, m, m)
and the updates Z_K (nt, 2, m), from which G_K is rebuilt one chunk at
a time for the back-substitution, every level's solved group blocks and
the top system: 16 m bytes per triangle and 8 m² per class for the
inverses, where the G_K themselves would take 8 m² per triangle.  The
space keeps the bases of its shape classes only (``HdivSpace.bases``
scales them to the triangles asked for).  The element maps (each local
unknown's place in the bordered layout, z_K, the trace-mean column t_K
and the edge signs) and the local bases are built per chunk where they
are read (``_ElementMaps``): by the condensation, by the
back-substitution, which scatters each chunk's unknowns before the
trace-mean correction, and by the residual check after it.  Only the
net flux and ``lam`` are read off maps of the whole mesh, which are
dropped before the hierarchy is read, so that both keep their bits.
Beside that the assembly holds the dense blocks of one chunk, not those
of a whole level.  Neither L_K nor G_K is ever built whole: the
condensation and the back-substitution build G_K, element by element,
chunk by chunk, and the residual check applies each L_K to its
element's unknowns without forming it (``_local_products``).  The top
blocks are freed before the CSR conversion, whose int32 indices are
passed on to SuperLU without a copy.

Every batched dense solve is counted in the ``ledger`` of the returned
``LinearSystem``, by kind: the class Vandermonde inverse of the space,
the class inverse, and the condensation at each depth, each with its
calls, matrices, block size and right-hand sides, summed over chunks
(``sparsela.DenseSolves``).
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import _RED_CHILDREN, Mesh, group_rows, mesh_stats, red_groups
from .problems import ProblemSpec, spot_check_boundary_data
from .sparsela import CsrMatrix, SingularMatrixError, checked_residual, lu_solve, minimum_degree, tally, to_csr
from .spaces import (
    CellwiseLinear,
    HdivSpace,
    PseudostressField,
    VelocityField,
    _identity_moments,
    apply_trace_correction,
    build_space,
    cell_gram,
    edge_rule,
    project_moments,
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
    """Loads, projected data and pinned inverses of the hybridized system, one row per triangle.

    The m = 2 nl + 2 local unknowns are ``[sigma row 1 | sigma row 2 | u_1
    | u_2]``; the first 2 nl are the pseudostress unknowns.  Only what the
    solve reads after the condensation and is no function of the mesh and
    the space alone is kept.  For a run of rows, :class:`_ElementMaps`
    builds the element maps (the dofs, z_K, t_K and the signs),
    :func:`_local_operator` the local blocks L_K from the data held here,
    and :func:`_pinned_inverses` the pinned inverses G_K from the inverse
    Ĝ of the element's shape class and its rank-2 update, ``G_K = Ĝ - Ĝ U
    Z_K`` with U the two velocity columns of the identity
    (:func:`_element_condensed`).
    """

    update: np.ndarray  # (nt, 2, m) Z_K = (I + V_K Ĝ U)^-1 V_K Ĝ of each element
    load: np.ndarray  # (nt, m) local right-hand side b_K; each entry of b sits in one local copy
    b: np.ndarray  # (nt, 2, 3) the projected convection field's CellwiseLinear coefficients
    reaction: np.ndarray  # (nt,) |K| times the cell mean of the projected c
    class_inverse: np.ndarray | None = None  # (nc, m, m) Ĝ of every shape class, set by _condense


@dataclass
class CondensationStep:
    """One level of the condensation: each red group into its parent, every other block padded.

    A group's unknowns are its parent's (its block's s' = 12 q + 1
    unknowns) followed by the eliminated ones: the multipliers on the
    three edges inside it, then the c of three children.  A block that
    the level leaves alone is its own unit, with the unknowns of each edge
    in the first half of the parent-sized edge.  The maps are read off the
    whole level before any block is condensed (:func:`_hierarchy`);
    `solved` is filled chunk by chunk (:func:`_condense_step`).  The
    gather tables that sum a group's children are held only while
    :func:`_condense` runs.
    """

    unit: np.ndarray  # (n,) unit of the next level that each block goes into
    member: np.ndarray  # (n,) row of `slots` for each block: its child index in a red group, 4 if alone
    slots: np.ndarray  # (5, s) position of each block unknown among its unit's [kept | eliminated] unknowns
    groups: np.ndarray  # (ng,) unit of each red group
    solved: np.ndarray  # (ng, e, s' + 1): the eliminated block solved against [coupling to the kept | rhs]
    tables: tuple = ()  # the _sum_table of the group blocks and of their right-hand sides, while condensing

    def expand(self, kept: np.ndarray) -> np.ndarray:
        """The unknowns (n, s) of this level's blocks, from those of its units (nu, s')."""
        nu, s = kept.shape
        group = kept[self.groups]
        eliminated = self.solved[:, :, -1] - (self.solved[:, :, :-1] @ group[:, :, None])[:, :, 0]
        values = np.zeros((nu, s + eliminated.shape[1]))
        values[:, :s] = kept
        values[self.groups, s:] = eliminated
        return values[self.unit[:, None], self.slots[self.member]]


@dataclass
class LinearSystem:
    """Top condensed operator and right-hand side, with the levels below it.

    The condensed unknowns of the top units are the multipliers on the
    edges they share and c for every unit but the last, each numbered by
    its position in the elimination order.  The right-hand side already
    carries the trace-mean multiplier.  `sizes` lists the condensed size
    of every level, finest first; the last is ``matrix.n``.
    """

    matrix: CsrMatrix
    rhs: np.ndarray
    multiplier: float
    space: HdivSpace
    elements: ElementBlocks
    index: np.ndarray  # (nu, s) int32 condensed index of each top unknown; matrix.n where none
    steps: tuple  # the CondensationStep of every level, finest first
    sizes: tuple
    ledger: dict  # the DenseSolves of the space and the assembly, by kind

    @property
    def depth(self) -> int:
        """Levels condensed into the top system; 0 is the single-level solve."""
        return len(self.steps)


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


def _checked_solve(a: np.ndarray, b: np.ndarray, name: str, labels, inputs=()) -> np.ndarray:
    """Solve every dense block ``a[k] x = b[k]``.

    `labels[k]` names block k in a message.  `inputs`, if given, are the
    arrays `a` and `b` were taken from, and are checked in their place.

    Raises
    ------
    SingularMatrixError
        ``"{name} {labels[k]} is not finite"`` if block k of the `inputs`,
        or of `a` and `b` without them, has a non-finite entry, else
        ``"{name} {labels[k]} is singular"`` if a[k] is singular or gives a
        non-finite solution, for the first such k; never numpy's
        ``LinAlgError``.
    """
    checked = inputs or (a, b)
    finite = np.all([np.isfinite(array).all(axis=tuple(range(1, array.ndim))) for array in checked], axis=0)
    if not finite.all():
        raise SingularMatrixError(f"{name} {labels[np.argmin(finite)]} is not finite")
    try:
        x = np.linalg.solve(a, b)
        regular = np.all(np.isfinite(x), axis=(1, 2))
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(a)[0] != 0
    if not regular.all():
        raise SingularMatrixError(f"{name} {labels[np.argmin(regular)]} is singular")
    return x


def _projected_data(mesh: Mesh, data, name: str, value_shape: tuple) -> CellwiseLinear:
    """Problem data projected in the element rule; ValueError unless of `value_shape`."""
    field, _ = project_moments(mesh, data, degree=_QUAD_DEGREE)
    if field.coeffs.shape[1:-1] != value_shape:
        raise ValueError(f"{name} must return value shape {value_shape} per point, got {field.coeffs.shape[1:-1]}")
    return field


def _interior_edges(mesh: Mesh) -> np.ndarray:
    """(ne,) True on every interior edge, whose moments carry a multiplier."""
    interior = np.ones(mesh.ne, dtype=bool)
    interior[mesh.boundary_edges] = False
    return interior


class _ElementMaps:
    """What the elements `rows` (a slice or indices) take from the mesh and the space alone.

    Each part is built when first read, with one row per element:

    * `bases`: the areas (k,), the second moments (k, 2, 2), the local
      bases as one stack (k, 2 nl, 3), component r of basis j at r nl + j,
      and their divergences (k, nl) (``HdivSpace.bases``);
    * `dofs` (k, m): the index of each local unknown in the bordered layout;
    * `kernel` (k, m): the local coefficients z_K of sigma = I;
    * `trace` (k, m): the local trace-mean column t_K, from the means of
      the bases alone (``HdivSpace.means``);
    * `sign` (k, 2 nl): the tri_signs of each sigma unknown's interior
      edge, 0 on the boundary.

    The condensation, the back-substitution and the residual check build
    those they read, one chunk at a time; the local blocks of a chunk
    (:func:`_local_operator`, :func:`_velocity_rows`) and their products
    (:func:`_local_products`) read its bases here.
    """

    def __init__(self, space: HdivSpace, rows):
        self.space, self.rows = space, rows

    @cached_property
    def bases(self):
        mesh, rows = self.space.mesh, self.rows
        basis, div = self.space.bases(rows)
        return mesh.tri_areas()[rows], mesh.tri_second_moments()[rows], basis.transpose(0, 2, 1, 3).reshape(len(basis), -1, 3), div

    @cached_property
    def dofs(self) -> np.ndarray:
        space, rows = self.space, self.rows
        n, nt, nl = space.n_dofs_per_row, space.mesh.nt, space.ndof_local
        dof_map = space.dof_map[rows]
        dofs = np.empty((len(dof_map), 2 * nl + 2), dtype=np.int64)
        dofs[:, :nl] = dof_map
        np.add(dof_map, n, out=dofs[:, nl : 2 * nl])
        # the velocity unknowns follow the 2 n sigma unknowns, component by component
        tris = np.arange(*rows.indices(nt)) if isinstance(rows, slice) else rows
        np.add(tris, 2 * n, out=dofs[:, 2 * nl])
        np.add(tris, 2 * n + nt, out=dofs[:, 2 * nl + 1])
        return dofs

    @cached_property
    def sign(self) -> np.ndarray:
        # one multiplier per interior edge moment and row, which ties the two
        # local copies of that moment, with opposite tri_signs, together
        mesh, rows = self.space.mesh, self.rows
        signed = np.where(_interior_edges(mesh)[mesh.tri_edges[rows]], mesh.tri_signs[rows], 0.0)
        return signed[:, np.tile(np.repeat(np.arange(3), self.space.moments), 2)]  # the local edge of each sigma unknown

    @cached_property
    def kernel(self) -> np.ndarray:
        # the zeroth moment of each edge and row; component r of local edge e at r nl + e moments
        space, rows = self.space, self.rows
        nl, moments = space.ndof_local, space.moments
        first, second = _identity_moments(space.mesh, space.mesh.tri_edges[rows])  # (k, 3) each
        kernel = np.zeros((len(first), 2 * nl + 2))
        kernel[:, :nl:moments] = first
        kernel[:, nl : 2 * nl : moments] = second
        return kernel

    @cached_property
    def trace(self) -> np.ndarray:
        # (tr tau, 1): the areas times the cell means of the local bases, component r of basis j at r nl + j
        means = self.space.means(self.rows).transpose(0, 2, 1)  # (k, 2, nl)
        trace = np.zeros((len(means), means[0].size + 2))
        trace[:, :-2] = self.space.mesh.tri_areas()[self.rows][:, None] * means.reshape(len(means), -1)
        return trace


def _element_blocks(problem: ProblemSpec, mesh: Mesh, space: HdivSpace, dirichlet: np.ndarray):
    """Loads and projected data of every element, the multiplier ids of its sigma unknowns, and the trace-mean multiplier.

    `dirichlet` is the boundary functional on the sigma dofs
    (:func:`_dirichlet_load`).  Returns the ``ElementBlocks``, whose
    `update` is allocated but not filled and whose `class_inverse` is
    not yet set (:func:`_condense` sets it and fills `update` chunk by
    chunk); the ids (nt, 2 nl): the multiplier on each sigma unknown's
    edge moment and row, numbered by interior moment, row 2 after row 1,
    -1 on the boundary; the net boundary flux ``z^T b`` of g; and the
    multiplier ``lam = z^T b / z^T t``.  These are read off the maps of
    the whole mesh (:class:`_ElementMaps`), which are dropped on return.
    """
    nt = mesh.nt
    ns = 2 * space.ndof_local
    area = mesh.tri_areas()
    b = _projected_data(mesh, problem.b, "b", (2,))
    c = _projected_data(mesh, problem.c, "c", ())
    f = _projected_data(mesh, problem.f, "f", (2,))

    maps = _ElementMaps(space, slice(None))
    inner = np.repeat(_interior_edges(mesh), space.moments)  # (n,) per edge moment
    rank = np.cumsum(inner) - 1
    ids = np.where(maps.sign == 0, -1, np.concatenate([rank, int(inner.sum()) + rank])[maps.dofs[:, :ns]])

    # a boundary edge has one side, so its load sits in one local copy
    load = np.empty((nt, ns + 2))
    load[:, :ns] = dirichlet.ravel()[maps.dofs[:, :ns]]
    load[:, ns:] = (area * f.cell_means()).T
    flux = np.sum(maps.kernel * load)  # z^T b, the net boundary flux of g
    el = ElementBlocks(update=np.empty((nt, 2, ns + 2)), load=load, b=b.coeffs, reaction=area * c.cell_means())
    return el, ids, flux, flux / np.sum(maps.kernel * maps.trace)


def _convection(area, moments, basis, b):
    """The convection terms ((dev tau) b, v) of the row-r trial tensor in velocity row p, in two parts.

    For the bases of some elements (``_ElementMaps.bases``) and their projected b (k, 2, 3):
    ``-1/2 int phi_j[r] b_p`` (k, 2, 2 nl), and ``int phi_j . b`` (k, nl),
    which adds to row r in the sigma unknowns of row r.
    """
    nl = basis.shape[1] // 2
    conv = cell_gram(area, moments, basis, b)  # (k, ns, 2): int phi_j[r] b_p
    return -0.5 * conv.transpose(0, 2, 1), conv[:, :nl, 0] + conv[:, nl:, 1]


def _local_operator(el: ElementBlocks, maps: _ElementMaps, velocity: bool = True) -> np.ndarray:
    """The local blocks L_K (k, m, m) of the unbordered operator, for the elements of `maps`.

    Without `velocity`, the convection and the reaction are left out: the
    block ``[[A, B], [-B^T, 0]]`` of the deviatoric mass A and the
    divergence B, which depends on the element's shape alone.  The solve
    builds that block only, for the class inverses; the residual check
    applies the whole L_K without forming it (:func:`_local_products`).
    """
    area, moments, basis, div = maps.bases
    nl = div.shape[1]
    ns = 2 * nl

    operator = np.zeros((len(area), ns + 2, ns + 2))
    # --- deviatoric block: (dev sigma, tau) = (sigma, tau) - 1/2 (tr sigma, tr tau)
    gram = cell_gram(area, moments, basis, basis)  # int phi_i[r] phi_j[s]
    mass = gram[:, :nl, :nl] + gram[:, nl:, nl:]
    operator[:, :ns, :ns] = -0.5 * gram
    operator[:, :nl, :nl] += mass
    operator[:, nl:ns, nl:ns] += mass

    # --- divergence coupling (div tau, u) and its negative transpose, exact
    divint = area[:, None] * div  # (k, nl)
    # --- convection ((dev tau) b, v) and reaction (c u, v), diagonal per component
    along = 0.0
    if velocity:
        half, along = _convection(area, moments, basis, el.b[maps.rows])
        operator[:, ns:, :ns] = half
        operator[:, ns, ns] = operator[:, ns + 1, ns + 1] = el.reaction[maps.rows]
    for r in range(2):
        block = slice(r * nl, (r + 1) * nl)
        operator[:, block, ns + r] = divint
        operator[:, ns + r, block] += along - divint
    return operator


def _local_products(el: ElementBlocks, maps: _ElementMaps, x: np.ndarray) -> np.ndarray:
    """``L_K x_K`` (k, m) of the local vectors `x` (k, m) of the elements of `maps`, without forming L_K.

    The sigma unknowns of x_K make a tensor whose row r, component c is
    a linear q[r, c]; the products are ``(dev q, tau) + (div tau, u)``
    in the sigma rows and ``((dev q) b, v) - (div q, v) + (c u, v)`` in
    the velocity rows, each integral exact (``int_K f g = |K| (f0 g0 +
    grad f . M grad g)``).  They sum the terms of :func:`_local_operator`
    in another order, so they equal ``L_K x_K`` up to roundoff.
    """
    area, moments, basis, div = maps.bases
    k, ns = basis.shape[:2]
    sigma, u = x[:, :ns].reshape(k, 2, -1), x[:, ns:]
    flat = basis.reshape(k, 2, -1, 3).transpose(0, 2, 1, 3).reshape(k, -1, 6)  # basis j: component c, then monomial
    q = (sigma @ flat).reshape(k, 2, 2, 3)
    half_trace = 0.5 * (q[:, 0, 0] + q[:, 1, 1])
    q[:, 0, 0] -= half_trace
    q[:, 1, 1] -= half_trace
    m = moments[:, None, None]
    gx, gy = q[..., 1], q[..., 2]
    weighted = np.stack([q[..., 0], gx * m[..., 0, 0] + gy * m[..., 1, 0], gx * m[..., 0, 1] + gy * m[..., 1, 1]], axis=-1)
    weighted = weighted.reshape(k, 2, 6).transpose(0, 2, 1)  # (k, 6, 2): dev q tested as |K| f0 g0 + grad f . M grad g
    divint = area[:, None] * div  # (k, nl)
    out = np.empty_like(x)
    out[:, :ns] = (area[:, None, None] * (flat @ weighted).transpose(0, 2, 1) + divint[:, None, :] * u[:, :, None]).reshape(k, ns)
    convection = (el.b[maps.rows].reshape(k, 1, 6) @ weighted)[:, 0]
    out[:, ns:] = area[:, None] * convection - (sigma @ divint[:, :, None])[:, :, 0] + el.reaction[maps.rows][:, None] * u
    return out


def _velocity_rows(el: ElementBlocks, maps: _ElementMaps) -> np.ndarray:
    """V_K (k, 2, m): the convection and reaction in the velocity rows of L_K, for the elements of `maps`."""
    area, moments, basis, _ = maps.bases
    ns = basis.shape[1]
    nl = ns // 2
    half, along = _convection(area, moments, basis, el.b[maps.rows])
    v = np.zeros((len(area), 2, ns + 2))
    v[:, :, :ns] = half
    v[:, 0, :nl] += along
    v[:, 1, nl:ns] += along
    v[:, 0, ns] = v[:, 1, ns + 1] = el.reaction[maps.rows]
    return v


def _class_inverses(el: ElementBlocks, space: HdivSpace, ledger: dict) -> np.ndarray:
    """Ĝ (nc, m, m) of every shape class: the pinned inverse of L_K without convection and reaction.

    It is taken on the first triangle of each class
    (:meth:`~oseenstress.mesh.Mesh.shape_classes`).  That block, the
    operator of :func:`_local_operator` without `velocity`, is the same
    on every member: in the dual bases a member h times the size has
    bases h**-1 and gradients h**-2 times the class's, second moments and
    area h**2 times, so each Gram product keeps its value; so is the pin,
    since z_K scales by h.  The block is pinned at the largest |z_K|, with
    a unit row and column there, inverted, and then zero there: the
    pinned row and column of Ĝ are exactly zero.  A failing class is named
    by its first triangle.
    """
    first = space.mesh.shape_classes()[1]
    maps = _ElementMaps(space, first)
    operator = _local_operator(el, maps, velocity=False)
    classes = np.arange(len(first))
    pin = np.argmax(np.abs(maps.kernel), axis=1)
    operator[classes, pin, :] = 0.0
    operator[classes, :, pin] = 0.0
    operator[classes, pin, pin] = 1.0
    eye = np.broadcast_to(np.eye(operator.shape[1]), operator.shape)
    inverse = _checked_solve(operator, eye, "the local block of element", labels=first, inputs=(operator,))
    inverse[classes, pin, pin] = 0.0
    tally(ledger, "class inverse", inverse)
    return inverse


def _pinned_inverses(el: ElementBlocks, space: HdivSpace, rows: slice) -> np.ndarray:
    """G_K (k, m, m) of the elements `rows`: each class's Ĝ less its rank-2 update, ``Ĝ - Ĝ U Z_K``.

    The one place G_K is built, for the condensation and for the
    back-substitution alike (:func:`_element_condensed`).
    """
    ns = 2 * space.ndof_local
    inverse = np.take(el.class_inverse, space.mesh.shape_classes()[0][rows], axis=0)
    inverse -= inverse[:, :, ns:] @ el.update[rows]
    return inverse


def _element_condensed(el: ElementBlocks, space: HdivSpace, lam: float, lo: int, hi: int):
    """Write the updates Z_K of the elements `lo`..`hi` into ``el.update``, and return their condensed (block, rhs) pair.

    G_K is L_K with a unit row and column at its class's pin, inverted,
    then zero there.  L_K differs from the block of its class in its two
    velocity rows only, by V_K (:func:`_velocity_rows`); Ĝ, the class's
    inverse (``el.class_inverse``, :func:`_class_inverses`), is zero in
    the pinned row, so V_K Ĝ is the same with V_K zero in the pinned
    column.  With U the two velocity columns of the identity, the
    Woodbury identity then gives ``G_K = Ĝ - (Ĝ U) Z_K`` with ``Z_K = (I
    + V_K Ĝ U)^-1 (V_K Ĝ)``, the 2x2 inverse in closed form; Z_K is kept,
    G_K rebuilt from it (:func:`_pinned_inverses`).  A failing element is
    named by its index in the mesh.  Each element's block on its
    multipliers and c_K is ``[[S G_K S, -S z_K], [z_K^T S, 0]]`` with S =
    diag(sign); its right-hand side is the jump ``S G_K local_K`` of the
    local solution, for the local right-hand side ``local_K = b_K - lam
    t_K`` with the trace-mean multiplier `lam`, then ``z_K^T local_K``.
    The c_K-c_K entry is zero.
    """
    rows = slice(lo, hi)
    member = space.mesh.shape_classes()[0][rows]
    maps = _ElementMaps(space, rows)
    sign, kernel = maps.sign, maps.kernel
    local = el.load[rows] - lam * maps.trace
    nt, ns = sign.shape
    v = _velocity_rows(el, maps)
    vg = v @ np.take(el.class_inverse, member, axis=0)
    x = vg[:, :, ns:]  # V_K Ĝ U
    adjugate = np.stack([1.0 + x[:, 1, 1], -x[:, 0, 1], -x[:, 1, 0], 1.0 + x[:, 0, 0]], axis=1).reshape(-1, 2, 2)
    det = adjugate[:, 0, 0] * adjugate[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0]  # of I + V_K Ĝ U
    regular = np.isfinite(det) & (det != 0.0)
    if not regular.all():  # a non-finite V_K makes its det NaN
        finite = np.isfinite(v).all(axis=(1, 2))
        defect, k = ("singular", np.argmin(regular)) if finite.all() else ("not finite", np.argmin(finite))
        raise SingularMatrixError(f"the local block of element {lo + k} is {defect}")
    el.update[rows] = (adjugate / det[:, None, None]) @ vg
    inverse = _pinned_inverses(el, space, rows)

    zs = kernel[:, :ns] * sign
    block = np.zeros((nt, ns + 1, ns + 1))
    block[:, :ns, :ns] = inverse[:, :ns, :ns] * sign[:, :, None] * sign[:, None, :]
    block[:, :ns, ns] = -zs
    block[:, ns, :ns] = zs
    solved = (inverse[:, :ns] @ local[:, :, None])[:, :, 0]
    rhs = np.concatenate([sign * solved, np.sum(kernel * local, axis=1)[:, None]], axis=1)
    return block, rhs


def _red_slots(q: int, fine: int) -> np.ndarray:
    """Group position (4, 6 q + 1) of every unknown of the four children of a red group.

    The children are in the :data:`~oseenstress.mesh._RED_CHILDREN`
    layout, from which every rule here follows; each child edge holds
    `fine` fine edges with q / `fine` multipliers each.  A child edge with
    both ends at midpoints of the parent's edges lies inside the parent,
    and its multipliers are eliminated in the order of the middle child,
    which holds all of them.  A unit lists the fine edges of its edge
    counterclockwise around itself and the multipliers of one fine edge in
    their global order, so a corner child holds the fine edges of an
    inner edge in the middle child's order reversed.  Any other child edge
    is the half of parent edge e at the child's corner, half 0 at the
    edge's first vertex counterclockwise, and multiplier j of row r on it
    keeps slot ``r 6q + e 2q + h q + j``.  The middle child keeps its c;
    the corner children's are eliminated last.
    """
    kept = 12 * q + 1
    j = np.arange(q)
    row = np.arange(2)[:, None]
    per = q // fine  # multipliers per fine edge
    reversed_fine = (fine - 1 - j // per) * per + j % per
    slots = np.empty((4, 2, 3, q), dtype=np.int64)  # child, row, edge, multiplier
    slots[3] = kept + 3 * q * row[:, :, None] + q * np.arange(3)[:, None] + j
    for child in range(3):
        for k in range(3):
            a, b = sorted(_RED_CHILDREN[child, [(k + 1) % 3, (k + 2) % 3]])
            if a >= 3:  # the middle child's edge opposite the third midpoint of 3, 4 and 5
                slots[child, :, k] = slots[3, :, 9 - a - b][:, reversed_fine]
            else:  # corner a on parent edge e, whose midpoint is b
                e = b - 3
                slots[child, :, k] = 6 * q * row + 2 * q * e + q * int(a != (e + 1) % 3) + j
    c = np.append(kept + 6 * q + np.arange(3), kept - 1)
    return np.concatenate([slots.reshape(4, 6 * q), c[:, None]], axis=1)


def _sum_table(target: np.ndarray, size: int):
    """Gather table of :func:`_summed`, for child entries whose group entries are `target` (k,), out of `size`.

    A group entry takes one child entry, or two where both lie on an edge
    inside the group.  Every right-hand side entry takes one; a block
    entry that takes none reads index -1, the last child's c-c entry,
    which is zero in every block.  Returns the child entry each group
    entry takes first, the group entries that take a second, and that
    second child entry.
    """
    table = group_rows(target, size, width=2)  # child entries summed into each group entry, -1 padded
    twice = np.flatnonzero(table[:, 1] >= 0)
    return table[:, 0], twice, table[twice, 1]


def _summed(children: np.ndarray, table: tuple) -> np.ndarray:
    """Sum the children's entries of every group, `children` (ng, k) flattened, by a :func:`_sum_table`.

    `take` returns the groups C-contiguous, where indexing ``children[:,
    first]`` would interleave them; so the batched solve and products of
    :func:`_condense_step` read contiguous blocks and run on BLAS.
    """
    first, twice, second = table
    summed = children.take(first, axis=1)
    summed[:, twice] += children.take(second, axis=1)
    return summed


def _condense_step(blocks: tuple, step: CondensationStep, lo: int, hi: int, depth: int):
    """Condense the red groups among blocks `lo`..`hi` of a level into their parents' blocks, and pad the rest.

    `blocks` is the (block, rhs) pair of those blocks, shapes (n, s, s)
    and (n, s), whole units of `step`.  A unit is a triangle or, above
    the finest level, a red group condensed into its parent.  A unit's
    s = 6 q + 1 unknowns are the multipliers on its edges, ``[row 1: edge
    0, 1, 2 | row 2: edge 0, 1, 2]`` with q slots per edge and row, then
    its kept identity coefficient c.  The four children's
    blocks of each red group are summed into one dense group block; the
    multipliers inside the parent and three c are eliminated in one
    batched solve, written to the group's rows of ``step.solved``, and the
    Schur complement on the rest is the parent's block.  Every other block
    is its own unit and passes up unchanged, the slots of each edge in the
    first half of the parent-sized edge.  Returns the units' (block, rhs)
    pair, their first and end row on the level above, and the groups'
    rows of ``step.solved``.

    Raises
    ------
    SingularMatrixError
        Naming `depth` and the parent, the red group's index among the
        groups of the whole level, if a group block or its right-hand side
        is not finite, or its eliminated block is singular.
    """
    block_in, rhs_in = blocks
    s = rhs_in.shape[1]
    q = (s - 1) // 6
    kept = 12 * q + 1
    size = 18 * q + 4
    unit, alone = step.unit[lo:hi], step.member[lo:hi] == 4
    above, end = int(unit[0]), int(unit[-1]) + 1
    first, last = np.searchsorted(step.groups, [above, end])
    ng = last - first

    rows = np.flatnonzero(~alone) if alone.any() else slice(None)  # every block grouped: group k is blocks 4k..4k+3, in place
    block_table, rhs_table = step.tables
    group = _summed(block_in[rows].reshape(ng, 4 * s * s), block_table).reshape(ng, size, size)
    rhs = _summed(rhs_in[rows].reshape(ng, 4 * s), rhs_table)
    solved = step.solved[first:last]
    solved[:] = _checked_solve(
        group[:, kept:, kept:],
        np.concatenate([group[:, kept:, :kept], rhs[:, kept:, None]], axis=2),
        f"condensation at depth {depth}: the group block of parent",
        labels=range(first, last),
        inputs=(group, rhs),
    )
    coupling = group[:, :kept, kept:]
    schur = group[:, :kept, :kept] - coupling @ solved[:, :, :kept]
    schur[:, -1, -1] = 0.0  # a c couples to no c (see the module docstring)
    groups = step.groups[first:last] - above
    block = np.zeros((end - above, kept, kept))
    block[groups] = schur
    parent_rhs = np.zeros((end - above, kept))
    parent_rhs[groups] = rhs[:, :kept] - (coupling @ solved[:, :, kept:])[:, :, 0]
    at, padded = unit[alone] - above, step.slots[4]
    block[np.ix_(at, padded, padded)] = block_in[alone]
    parent_rhs[np.ix_(at, padded)] = rhs_in[alone]
    return (block, parent_rhs), (above, end), solved


def _numbering(ids: np.ndarray, moments: int):
    """Condensed index of every unknown of the top blocks, and their number N.

    `ids` (nu, 6 q) names the multipliers of the top units' blocks; a
    row-2 slot lies on the fine edge of the row-1 slot 3 q before it, a
    row-1 id over `moments` is the rank of its fine edge among the
    interior ones, and every row-2 id exceeds every row-1 id.  A top edge
    is the set of fine edges that the same two top units share; the top
    edges are numbered by their first fine edge, which on a uniform
    hierarchy numbers the interior edges of the top mesh in its own
    order, and two top edges are adjacent when they share a unit.  One
    stable sort then gives every unknown its elimination position (see
    the module docstring): a multiplier on the top edge at position p of
    the minimum-degree order of that graph has the key 2 p, and c of
    every unit but the last 2 p + 1, with p the position of the unit's
    last edge, or the number of top edges if it has none; ties go by id,
    then by unit.  Returns the index (nu, 6 q + 1) with N where no
    unknown is: on dead slots and at the last unit's c, which is pinned.
    """
    nu, width = ids.shape
    half = width // 2
    live = ids >= 0
    first = live[:, :half]
    unit = np.broadcast_to(np.arange(nu)[:, None], first.shape)
    fine = np.where(first, ids[:, :half] // moments, -1)
    # each fine edge on the top lies in two units, which name its top edge
    lo = np.full(fine.max(initial=-1) + 1, nu)
    hi = np.full_like(lo, -1)
    np.minimum.at(lo, fine[first], unit[first])
    np.maximum.at(hi, fine[first], unit[first])
    on_top = hi >= 0
    _, first_fine, top = np.unique((lo * nu + hi)[on_top], return_index=True, return_inverse=True)
    n_edges = first_fine.size
    rank = np.empty(n_edges, dtype=np.int64)
    rank[np.argsort(first_fine)] = np.arange(n_edges)
    edge = np.full(lo.size + 1, -1)  # top edge of each fine edge, then -1 for the dead slots
    edge[:-1][on_top] = rank[top]
    slot_edge = edge[fine]

    owned = np.unique((unit * n_edges + slot_edge)[first])
    unit_edges = group_rows(owned // n_edges, nu, values=owned % n_edges)
    inner = unit_edges >= 0
    # the top edges of one unit are pairwise adjacent
    a, b = np.nonzero(~np.eye(unit_edges.shape[1], dtype=bool))
    pair = inner[:, a] & inner[:, b]
    position = minimum_degree(unit_edges[:, a][pair], unit_edges[:, b][pair], n_edges)
    slot_position = np.append(position, -1)[slot_edge]
    last = slot_position.max(axis=1)[:-1]
    # an id eliminated below the top sorts after every unknown
    key = np.full(ids.max(initial=-1) + 1, 2 * n_edges + 2)
    key[ids[live]] = 2 * np.tile(slot_position, 2)[live]
    key = np.concatenate([key, 2 * np.where(last >= 0, last, n_edges) + 1])
    place = np.empty_like(key)
    place[np.argsort(key, kind="stable")] = np.arange(key.size)
    size = np.count_nonzero(live) // 2 + nu - 1
    index = np.full((nu, width + 1), size, dtype=np.int32)
    index[:, :-1][live] = place[ids[live]]
    index[:-1, -1] = place[key.size - nu + 1 :]
    return index, size


_QUAD_DEGREE = 4  # exactness of the rule the data b, c and f are projected in
# most multipliers per edge and row of a condensed parent: RT0 condenses 5
# uniform levels and BDM1 4, and the top unit 1,024 fine triangles at most
_TOP_EDGE_MULTIPLIERS = 32
# dense entries condensed at a time: _CHUNK_ENTRIES // m**2 fine triangles
# with local blocks of size m, up to the next top unit (2,048 for RT0, 668 for BDM1)
_CHUNK_ENTRIES = 2048 * 8**2


def _hierarchy(triangles: np.ndarray, ids: np.ndarray):
    """Every condensed level, finest first; the top units' multiplier ids, and the size of each level below the top.

    `ids` (nt, 6 q) names the multipliers of the element blocks
    (:func:`_element_blocks`), q the element's moments per edge.  A
    level's red groups are read off its triangles, and the next level's
    triangles, the parents, off the groups.  The levels go on while the
    last one left no block alone and the parents' edges carry at most
    :data:`_TOP_EDGE_MULTIPLIERS` (32) multipliers per row.  Each level
    gives its ``CondensationStep``, with `solved` not yet filled, and
    moves the ids to their slots in its units, where the eliminated ones
    are dropped and -1 marks a dead slot: on the boundary, or in the
    second half of each edge of a block that a level left alone.  A
    level's condensed size counts every live multiplier on its two sides,
    and c of every unit but one.
    """
    steps, sizes = [], []
    q = ids.shape[1] // 6
    while 2 * q <= _TOP_EDGE_MULTIPLIERS:
        starts = red_groups(triangles)
        if starts.size == 0:
            break
        member = np.full(len(triangles), 4, dtype=np.int8)
        member[starts[:, None] + np.arange(4)] = np.arange(4)
        unit = np.cumsum(member % 4 == 0) - 1  # the units keep the order of their first block
        # a block alone: its slot t of edge t // q goes to the first half of that edge, c to c
        alone = np.arange(6 * q + 1) + np.arange(6 * q + 1) // q * q
        slots = np.vstack([_red_slots(q, 1 << len(steps)), alone])
        solved = np.empty((starts.size, 6 * q + 3, 12 * q + 2))
        steps.append(CondensationStep(unit=unit, member=member, slots=slots, groups=unit[starts], solved=solved))
        sizes.append(np.count_nonzero(ids >= 0) // 2 + len(ids) - 1)
        parent = np.full((int(unit[-1]) + 1, 18 * q + 4), -1)
        parent[unit[:, None], slots[member, :-1]] = ids
        ids = parent[:, : 12 * q]
        if 4 * starts.size < len(triangles):  # the padded blocks left alone end the condensation
            break
        triangles, q = triangles[starts[:, None] + np.arange(3), 0], 2 * q
    return steps, ids, sizes


def _chunks(steps: list, nt: int, m: int) -> np.ndarray:
    """Bounds of the fine-row chunks for local blocks of size `m`: row 0, then every ``_CHUNK_ENTRIES // m**2`` rows the start of the next top unit, then `nt`.

    Every level's units keep the order of their blocks, so each top unit
    is a run of fine rows, and a chunk holds whole units on every level.
    The dense blocks of a chunk grow with m², so a chunk holds about the
    same number of dense entries for every element: 2,048 RT0 triangles
    (m = 8), 668 BDM1 ones (m = 14), each rounded up to a top unit.
    """
    unit = np.arange(nt)
    for step in steps:
        unit = step.unit[unit]
    cuts = np.append(np.flatnonzero(np.diff(unit, prepend=-1)), nt)
    rows = _CHUNK_ENTRIES // (m * m)
    return np.unique(cuts[np.searchsorted(cuts, np.append(np.arange(0, nt, rows), nt))])


def _condense(el: ElementBlocks, space: HdivSpace, lam: float, steps: list, ledger: dict):
    """Condense the element blocks through `steps` (:func:`_hierarchy`), chunk by chunk; the top (block, rhs) pair.

    The block of every shape class is inverted first, into
    ``el.class_inverse`` (:func:`_class_inverses`).  Each chunk of
    :func:`_chunks` then writes its elements' rank-2 updates into
    ``el.update`` and condenses their pinned inverses
    (:func:`_element_condensed`, for the trace-mean multiplier `lam`),
    then goes through every level (:func:`_condense_step`) to its top
    blocks, which are written into arrays allocated once at full size, as
    the steps' solved group blocks are.  So no dense block of a whole
    level below the top is ever held, nor any local block L_K or pinned
    inverse G_K.  Each level's gather tables
    (:func:`_sum_table`) are built once, before the first chunk, and
    dropped on return.  Every batched dense solve is counted in `ledger`
    (:func:`~oseenstress.sparsela.tally`).
    """
    nt, ns = space.mesh.nt, 2 * space.ndof_local
    nu = int(steps[-1].unit[-1]) + 1 if steps else nt
    s = (ns << len(steps)) + 1
    top, top_rhs = np.empty((nu, s, s)), np.empty((nu, s))
    bounds = _chunks(steps, nt, ns + 2)
    for step in steps:
        red = step.slots[:4]
        size = 3 * red.shape[1] + 1
        pairs = red[:, :, None] * size + red[:, None, :]
        step.tables = (_sum_table(pairs.ravel(), size * size), _sum_table(red.ravel(), size))
    el.class_inverse = _class_inverses(el, space, ledger)
    try:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            blocks = _element_condensed(el, space, lam, lo, hi)
            for depth, step in enumerate(steps, 1):
                blocks, (lo, hi), solved = _condense_step(blocks, step, lo, hi, depth)
                tally(ledger, f"condensation at depth {depth}", solved)
            top[lo:hi], top_rhs[lo:hi] = blocks
    finally:
        for step in steps:
            step.tables = ()
    return top, top_rhs


def assemble(problem: ProblemSpec, mesh: Mesh, space: HdivSpace) -> LinearSystem:
    """Assemble the element blocks, condense them through the red groups, and form the top system.

    The levels and the multiplier ids of the top units
    (:func:`_hierarchy`) are read first, and the condensation then runs
    chunk by chunk (:func:`_condense`).  One sort numbers the top system
    (:func:`_numbering`).  The top blocks are freed before the CSR
    conversion.

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
        If a local block is not finite or is singular once pinned, or a
        group block of the multilevel condensation is not finite or
        singular.

    Warns
    -----
    UserWarning
        If g has a net boundary flux ``z^T b`` above 1e-4 times its scale
        (:func:`_dirichlet_load`).
    """
    if space.mesh is not mesh:
        raise ValueError("space was not built on the given mesh")
    dirichlet, scale = _dirichlet_load(problem, space)
    el, ids, flux, lam = _element_blocks(problem, mesh, space, dirichlet)
    if abs(flux) > 1e-4 * scale:
        warnings.warn(
            f"boundary data for {problem.name!r} has net flux {flux:.3e}; "
            "the incompressibility constraint is incompatible",
            stacklevel=2,
        )
    steps, ids, sizes = _hierarchy(mesh.triangles, ids)
    ledger = dict(space.ledger)
    top, top_rhs = _condense(el, space, lam, steps, ledger)
    # the nonzero entries of the top blocks on live unknowns, at every depth
    index, size = _numbering(ids, space.moments)
    inside = index < size
    keep = (top != 0) & inside[:, :, None] & inside[:, None, :]
    rows = np.broadcast_to(index[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(index[:, None, :], keep.shape)[keep]
    values = top[keep]
    rhs = np.bincount(index.ravel(), weights=top_rhs.ravel(), minlength=size + 1)[:-1]
    del top, top_rhs, keep
    return LinearSystem(
        matrix=to_csr(rows, cols, values, size),
        rhs=rhs,
        multiplier=float(lam),
        space=space,
        elements=el,
        index=index,
        steps=tuple(steps),
        sizes=(*sizes, size),
        ledger=ledger,
    )


def _owned_copies(sign: np.ndarray) -> np.ndarray:
    """(k, m) mask of one local copy per unknown, for the signs (k, 2 nl) of :class:`_ElementMaps`: an edge's +1 or only side, every velocity."""
    return np.pad(sign, ((0, 0), (0, 2)), constant_values=1.0) >= 0


def _solve_hybrid(system: LinearSystem):
    """Solve the top system and back-substitute level by level, then element by element.

    The element step runs chunk by chunk: it rebuilds the element maps
    (:class:`_ElementMaps`) and the pinned inverses G_K
    (:func:`_pinned_inverses`), as the condensation did, and scatters the
    owned copies of each chunk's unknowns into the bordered layout.  The
    residual check then gathers and applies the local blocks L_K
    (:func:`_local_products`), chunk by chunk again, after the
    trace-mean correction.  So no array of element work over the whole
    mesh is held.

    Returns ``(s, residual)``: the sigma and u coefficients in the bordered
    layout, sigma with zero trace mean, and the relative residual of
    ``(s, lam)`` in the bordered system, computed blockwise.
    """
    el, space = system.elements, system.space
    ns = 2 * space.ndof_local
    lam = system.multiplier
    bounds = _chunks(system.steps, space.mesh.nt, ns + 2)
    chunks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    y, _ = lu_solve(system.matrix, system.rhs)
    values = np.append(y, 0.0)[system.index]  # the boundary slots and the last top c are zero
    for step in reversed(system.steps):
        values = step.expand(values)
    nsigma = 2 * space.n_dofs_per_row
    s = np.empty(nsigma + 2 * space.mesh.nt)
    for rows in chunks:
        maps = _ElementMaps(space, rows)
        local = el.load[rows] - lam * maps.trace
        local[:, :ns] -= maps.sign * values[rows, :ns]
        x = values[rows, ns:] * maps.kernel
        x += (_pinned_inverses(el, space, rows) @ local[:, :, None])[:, :, 0]
        owned = _owned_copies(maps.sign)
        s[maps.dofs[owned]] = x[owned]
    del values
    # restore the zero trace mean with a multiple of I, as the interpolant does
    sigma = apply_trace_correction(PseudostressField(space=space, coeffs=s[:nsigma].reshape(2, -1)))
    s[:nsigma] = sigma.coeffs.ravel()

    # the bordered residual, from the local blocks applied chunk by chunk;
    # each dof's copies are summed in element order, as one bincount would,
    # and the trace-mean row chunk by chunk
    misfit = np.zeros(s.size + 1)
    for rows in chunks:
        maps = _ElementMaps(space, rows)
        gathered = s[maps.dofs]
        applied = _local_products(el, maps, gathered)
        applied += lam * maps.trace
        applied -= el.load[rows]
        np.add.at(misfit, maps.dofs.ravel(), applied.ravel())
        misfit[-1] += np.sum(maps.trace * gathered)
    residual = checked_residual(misfit, el.load, "bordered")  # each entry of b sits in one local copy
    return s, residual


def _mesh_facts(problem: ProblemSpec, mesh: Mesh) -> str:
    """The worst radius ratio of `mesh` (``mesh_stats``) and its largest cell Peclet number ``max_K |b(c_K)| h_K``, as message text.

    c_K is the centroid and h_K the diameter.  Read on a failed solve
    only, with floating-point warnings off, so that a mesh whose geometry
    overflows still gives its one message.
    """
    with np.errstate(all="ignore"):
        ratio = mesh_stats(mesh).max_ratio
        peclet = np.max(np.linalg.norm(problem.b(mesh.tri_centroids()), axis=-1) * mesh.tri_diameters())
    return f"max radius ratio {ratio:.4g}, largest cell Peclet number |b| h {peclet:.4g}"


def solve_oseen(problem: ProblemSpec, mesh: Mesh, kind: str = "rt0") -> OseenSolution:
    """Assemble and solve; returns trace-mean-corrected fields.

    The bordered system is solved by hybridization (see the module
    docstring): the multiplier has a closed form, and the system on the
    interior edge multipliers and one c_K per element is condensed further
    through the red groups of `mesh`, if it has any.  SuperLU factors
    only the top system, in the minimum-degree order of its edges with
    diagonal pivots; the levels below it and then
    each element's (sigma_K, u_K) follow by back-substitution.
    ``spaces.apply_trace_correction`` then restores the zero trace mean
    of the assembled sigma.  The reported residual is that of the full
    bordered system.

    Raises
    ------
    SingularMatrixError
        If a local block, a group block of the multilevel condensation
        (named by depth and parent) or the condensed factorization is
        singular or not finite, or a relative residual exceeds 1e-9.  The
        message adds two facts of the mesh (:func:`_mesh_facts`): its
        worst radius ratio and its largest cell Peclet number.
    SolverMemoryError
        If SuperLU runs out of memory; it passes through unchanged.
    """
    space = build_space(mesh, kind)
    try:
        system = assemble(problem, mesh, space)
        s, residual = _solve_hybrid(system)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"Oseen solve failed on mesh with nt={mesh.nt}: {exc}; {_mesh_facts(problem, mesh)}") from exc
    nsigma = 2 * space.n_dofs_per_row
    sigma = PseudostressField(space=space, coeffs=s[:nsigma].reshape(2, -1))
    u = VelocityField(mesh=mesh, coeffs=s[nsigma:].reshape(2, mesh.nt))
    return OseenSolution(sigma=sigma, u=u, multiplier=system.multiplier, residual=residual, ndofs=s.size + 1)
