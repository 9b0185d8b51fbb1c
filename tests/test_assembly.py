"""Saddle-point assembly and the direct Oseen solve."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import colamd_lu_solve, stokes_linear_problem, two_triangle_square, without_hierarchy, zero_problem

import monolithic_oracle
from oseenstress import adaptive, assembly
from oseenstress.adaptive import adaptive_solve
from oseenstress.assembly import assemble, solve_oseen
from oseenstress.errors import supercloseness
from oseenstress.mesh import make_square_piecewise_uniform, uniform_quad_refine
from oseenstress.problems import ProblemSpec, get_problem
from oseenstress.sparsela import SingularMatrixError, SolverMemoryError, lu_solve
from oseenstress.spaces import (
    PseudostressField,
    apply_trace_correction,
    build_space,
    interpolate_pseudostress,
    project_exact,
    project_velocity,
    trace_mean,
)

KINDS = ["rt0", "bdm1"]


# ----------------------------------------------------------------------
# system structure
# ----------------------------------------------------------------------


def test_layout_block_sizes():
    mesh = make_square_piecewise_uniform()
    for kind, n in (("rt0", mesh.ne), ("bdm1", 2 * mesh.ne)):
        space = build_space(mesh, kind)
        system = monolithic_oracle.assemble(get_problem("p1"), mesh, space)
        layout = system.layout
        assert layout.n_row_dofs == n
        assert layout.size == 2 * n + 2 * mesh.nt + 1
        assert layout.multiplier == layout.size - 1
        assert system.matrix.n == layout.size
        assert system.rhs.shape == (layout.size,)
        assert solve_oseen(get_problem("p1"), mesh, kind=kind).ndofs == 2 * n + 2 * mesh.nt + 1


@pytest.mark.parametrize("kind", KINDS)
def test_stokes_block_structure(kind):
    # Without convection the constraint blocks are exact negative
    # transposes, the velocity couples only to its own pseudostress row,
    # and the multiplier column mirrors the multiplier row.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    system = monolithic_oracle.assemble(stokes_linear_problem(), mesh, space)
    a = system.matrix.to_scipy().toarray()
    lay = system.layout
    for r in range(2):
        b_us = a[lay.u_rows(r), lay.sigma_rows(r)]
        b_su = a[lay.sigma_rows(r), lay.u_rows(r)]
        assert np.array_equal(b_us, -b_su.T)
        other = 1 - r
        assert not np.any(a[lay.u_rows(r), lay.sigma_rows(other)])
        assert not np.any(a[lay.sigma_rows(r), lay.u_rows(other)])
        assert not np.any(a[lay.u_rows(r), lay.u_rows(other)])
    m = lay.multiplier
    assert np.array_equal(a[m, :], a[:, m])
    # the deviatoric mass operator over both pseudostress rows is symmetric
    s = a[: lay.offset_u, : lay.offset_u]
    assert np.abs(s - s.T).max() < 1e-13
    # no reaction term: the velocity diagonal blocks vanish
    for r in range(2):
        assert not np.any(a[lay.u_rows(r), lay.u_rows(r)])


def test_assembly_is_deterministic():
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "rt0")
    s1 = assemble(get_problem("p1"), mesh, space)
    s2 = assemble(get_problem("p1"), mesh, space)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
    assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
    assert np.array_equal(s1.rhs, s2.rhs)
    assert s1.multiplier == s2.multiplier


def test_assemble_validates_inputs():
    mesh = make_square_piecewise_uniform()
    other = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")
    with pytest.raises(ValueError):
        assemble(get_problem("p1"), other, space)


@pytest.mark.parametrize(
    "name, data",
    [
        ("b", lambda x: np.ones(x.shape[:-1])),  # one value per point, not a vector
        ("c", lambda x: np.ones(x.shape)),
        ("f", lambda x: np.ones(x.shape + (2,))),
    ],
)
def test_assemble_rejects_data_of_the_wrong_value_shape(name, data):
    mesh = make_square_piecewise_uniform()
    bad = dataclasses.replace(zero_problem(), **{name: data})
    with pytest.raises(ValueError, match=f"{name} must return value shape"):
        assemble(bad, mesh, build_space(mesh, "rt0"))


# ----------------------------------------------------------------------
# boundary data functional
# ----------------------------------------------------------------------


def _dirichlet(problem, mesh, space):
    """The boundary functional on the sigma dofs, shape (2, n)."""
    return assembly._dirichlet_load(problem, space)[0]


@pytest.mark.parametrize("kind", KINDS)
def test_dirichlet_rhs_for_constant_data(kind):
    # For g = (1, 0) the boundary functional of a zeroth-moment basis
    # function reduces to its orientation sign (its normal flux integrates
    # to one); first-moment functions and the second row see nothing.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    g_const = dataclasses.replace(zero_problem(), g=lambda x: np.broadcast_to(np.array([1.0, 0.0]), x.shape).copy())
    rhs = _dirichlet(g_const, mesh, space)
    boundary = set(int(e) for e in mesh.boundary_edges)
    owner_sign = np.zeros(mesh.ne)
    for t in range(mesh.nt):
        for k in range(3):
            e = int(mesh.tri_edges[t, k])
            if e in boundary:
                owner_sign[e] = mesh.tri_signs[t, k]
    expected_row0 = np.zeros(space.n_dofs_per_row)
    expected_row0[:: space.moments] = owner_sign
    assert np.abs(rhs[0] - expected_row0).max() < 1e-13
    assert not np.any(rhs[1])


def test_dirichlet_rhs_edge_resolution_insensitive_for_smooth_data():
    # The 3-point load against the oracle's quadrature over the basis
    # traces at 8 points.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "rt0")
    prob = get_problem("p2")
    lmesh = prob.initial_mesh()
    lspace = build_space(lmesh, "rt0")
    r3 = _dirichlet(prob, lmesh, lspace)
    r8 = monolithic_oracle.assemble_dirichlet_rhs(prob, lmesh, lspace, edge_points=8)
    r8 = r8[: 2 * lspace.n_dofs_per_row].reshape(2, -1)
    assert np.all(np.isfinite(r3)) and np.all(np.isfinite(r8))
    assert np.abs(r3 - r8).max() < 5e-3
    # smooth data on the square: already converged at 3 points
    p1 = get_problem("p1")
    s3 = _dirichlet(p1, mesh, space)
    s8 = monolithic_oracle.assemble_dirichlet_rhs(p1, mesh, space, edge_points=8)
    assert np.abs(s3.ravel() - s8[: 2 * space.n_dofs_per_row]).max() < 1e-5


def test_g_is_evaluated_once_per_assembly():
    problem = get_problem("p2")
    calls = []

    def g(x):
        calls.append(x.shape)
        return problem.exact_u(x)

    mesh = problem.initial_mesh()
    for kind in KINDS:
        calls.clear()
        assemble(dataclasses.replace(problem, g=g), mesh, build_space(mesh, kind))
        assert calls == [(mesh.boundary_edges.size, 3, 2)]


def test_assemble_spot_checks_the_boundary_data():
    p1 = get_problem("p1")
    mesh = make_square_piecewise_uniform()
    bad = dataclasses.replace(p1, g=lambda x: p1.g(x) + 0.5)
    with pytest.raises(ValueError, match="boundary data"):
        assemble(bad, mesh, build_space(mesh, "rt0"))
    with pytest.raises(ValueError, match="g must return shape"):
        assemble(dataclasses.replace(p1, g=lambda x: x[..., 0]), mesh, build_space(mesh, "rt0"))


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_compatible_data_solves_without_a_warning(name):
    # The net-flux check reads the 3-point flux z^T b; on the p2 L-mesh
    # it is 4.06e-4 against the bound 1.79e-3.
    problem = get_problem(name)
    mesh = problem.initial_mesh()
    for level in range(4):
        if level > 0:
            mesh = uniform_quad_refine(mesh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_oseen(problem, mesh)


def leaky_problem() -> ProblemSpec:
    """Zero data except g = (x, 0): net boundary flux 1 on the unit square."""
    prob = zero_problem()
    return ProblemSpec(
        name="leaky",
        b=prob.b,
        c=prob.c,
        f=prob.f,
        g=lambda x: np.stack([x[..., 0], np.zeros(x.shape[:-1])], axis=-1),
        initial_mesh=prob.initial_mesh,
    )


def reaction_problem() -> ProblemSpec:
    """p1 with the variable reaction c = 1 + xy; no test problem has c != 0."""
    return dataclasses.replace(get_problem("p1"), name="reaction", c=lambda x: 1.0 + x[..., 0] * x[..., 1])


def test_incompatible_boundary_data_warns():
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "rt0")
    with pytest.warns(UserWarning, match="net flux"):
        assemble(leaky_problem(), mesh, space)


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------


def _adapted(name, iters):
    return lambda: adaptive_solve(get_problem(name), max_iters=iters).final_mesh


# (problem, element, mesh factory) solved both ways
BORDERED_CASES = {
    **{f"p1-rt0-level{k}": ("p1", "rt0", lambda k=k: make_square_piecewise_uniform(k)) for k in range(4)},
    **{f"p1-bdm1-level{k}": ("p1", "bdm1", lambda k=k: make_square_piecewise_uniform(k)) for k in range(4)},
    "p2-adaptive": ("p2", "rt0", _adapted("p2", 4)),
    "p3-adaptive": ("p3", "rt0", _adapted("p3", 3)),
    "net-flux": ("leaky", "rt0", lambda: make_square_piecewise_uniform(1)),
    "reaction": ("reaction", "bdm1", lambda: make_square_piecewise_uniform(2)),
}
CUSTOM_PROBLEMS = {"leaky": leaky_problem, "reaction": reaction_problem}


def _case(name):
    """Problem, element and mesh of one of the `BORDERED_CASES`."""
    problem_name, kind, make_mesh = BORDERED_CASES[name]
    problem = CUSTOM_PROBLEMS[problem_name]() if problem_name in CUSTOM_PROBLEMS else get_problem(problem_name)
    return problem, kind, make_mesh()


@pytest.mark.filterwarnings("ignore:boundary data for 'leaky'")
@pytest.mark.parametrize("name", list(BORDERED_CASES))
def test_element_blocks_add_up_to_the_quadrature_assembled_matrix(name):
    # The element blocks are exact Gram products against the projected
    # data; scattered through their dofs they give the oracle's
    # quadrature-assembled operator, trace-mean border and load.
    problem, kind, mesh = _case(name)
    space = build_space(mesh, kind)
    el = assemble(problem, mesh, space).elements
    system = monolithic_oracle.assemble(problem, mesh, space)
    m = system.layout.multiplier
    a = system.matrix.to_scipy()
    rows = np.broadcast_to(el.dofs[:, :, None], el.operator.shape).ravel()
    cols = np.broadcast_to(el.dofs[:, None, :], el.operator.shape).ravel()
    operator = scipy.sparse.csr_matrix((el.operator.ravel(), (rows, cols)), shape=(m, m))
    misfit = (operator - a[:m, :m]).data
    assert np.abs(misfit).max(initial=0.0) <= 1e-12 * np.abs(a[:m, :m].data).max()
    trace = np.bincount(el.dofs.ravel(), weights=el.trace.ravel(), minlength=m)
    load = np.bincount(el.dofs.ravel(), weights=el.load.ravel(), minlength=m)
    border_row = a[m].toarray().ravel()[:m]
    border_col = a[:, [m]].toarray().ravel()[:m]
    for got, want in ((trace, border_row), (trace, border_col), (load, system.rhs[:m])):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.filterwarnings("ignore:boundary data for 'leaky'")
@pytest.mark.parametrize("name", list(BORDERED_CASES))
def test_solve_matches_factoring_the_bordered_matrix(name):
    # The oracle factors the whole bordered matrix, dense trace-mean row
    # and column included.
    problem, kind, mesh = _case(name)
    sol = solve_oseen(problem, mesh, kind=kind)
    system = monolithic_oracle.assemble(problem, mesh, build_space(mesh, kind))
    x, _ = colamd_lu_solve(system.matrix, system.rhs)
    lay = system.layout
    sigma = PseudostressField(space=system.space, coeffs=np.stack([x[lay.sigma_rows(0)], x[lay.sigma_rows(1)]]))
    sigma = apply_trace_correction(sigma).coeffs
    u = np.stack([x[lay.u_rows(0)], x[lay.u_rows(1)]])
    lam = x[lay.multiplier]
    assert np.abs(sol.sigma.coeffs - sigma).max() <= 1e-9 * np.abs(sigma).max()
    assert np.abs(sol.u.coeffs - u).max() <= 1e-9 * np.abs(u).max()
    # for compatible data lam is round-off, so it is held to the solution's scale
    assert abs(sol.multiplier - lam) <= 1e-9 * max(abs(lam), np.abs(x).max())
    if problem.name == "leaky":
        # lam = (net flux) / (2 |Omega|)
        assert lam == pytest.approx(0.5, rel=1e-12)
    # the reported residual is that of the bordered system
    solved = np.concatenate([sol.sigma.coeffs.ravel(), sol.u.coeffs.ravel(), [sol.multiplier]])
    a = system.matrix.to_scipy()
    assert np.linalg.norm(a @ solved - system.rhs) <= 1e-9 * np.linalg.norm(system.rhs)
    assert sol.residual <= 1e-9


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_every_adaptive_solve_matches_the_monolithic_solve(name, monkeypatch):
    # Each solve of the adaptive loop (from the paper mesh; p3 with theta
    # 0.3 and b = (500, 1)) is repeated by the monolithic oracle, which
    # factors the bordered operator with one dof pinned.
    problem = get_problem(name)
    checked = []

    def spy(problem, mesh, kind="rt0"):
        sol = solve_oseen(problem, mesh, kind=kind)
        sigma, u, lam = monolithic_oracle.oracle_solve(problem, mesh, kind)
        assert np.abs(sol.sigma.coeffs - sigma).max() <= 1e-9 * np.abs(sigma).max()
        assert np.abs(sol.u.coeffs - u).max() <= 1e-9 * np.abs(u).max()
        assert abs(sol.multiplier - lam) <= 1e-9 * max(abs(lam), np.abs(sigma).max(), np.abs(u).max())
        checked.append(mesh.nt)
        return sol

    monkeypatch.setattr(adaptive, "solve_oseen", spy)
    history = adaptive_solve(problem, theta=problem.default_theta, max_iters=4)
    assert len(checked) == history.niter == 5


def test_singular_local_block_raises_singular_matrix_error(monkeypatch):
    # A zeroed element block cannot be condensed; it is reported as a
    # singular system, never as numpy's LinAlgError.
    original = assembly._pinned_inverse

    def zero_one_block(operator, pin):
        operator = operator.copy()
        operator[3] = 0.0
        return original(operator, pin)

    monkeypatch.setattr(assembly, "_pinned_inverse", zero_one_block)
    with pytest.raises(SingularMatrixError, match="singular"):
        solve_oseen(get_problem("p1"), make_square_piecewise_uniform())
    monkeypatch.setattr(assembly, "_pinned_inverse", lambda op, pin: original(op * np.nan, pin))
    with pytest.raises(SingularMatrixError, match="not finite"):
        solve_oseen(get_problem("p1"), make_square_piecewise_uniform())


def test_solve_passes_memory_errors_through(monkeypatch):
    # A failed SuperLU allocation is not reported as a mesh too coarse.
    def splu(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    mesh = make_square_piecewise_uniform()
    with pytest.raises(SolverMemoryError) as info:
        solve_oseen(get_problem("p1"), mesh)
    assert "too coarse" not in str(info.value)
    # the condensed system: one multiplier per interior edge and row, and
    # one identity coefficient per element but the last
    interior_edges = mesh.ne - mesh.boundary_edges.size
    assert info.value.n == 2 * interior_edges + mesh.nt - 1
    assert info.value.nnz == assemble(get_problem("p1"), mesh, build_space(mesh, "rt0")).matrix.nnz


@pytest.mark.parametrize("kind", KINDS)
def test_zero_data_gives_zero_solution(kind):
    mesh = make_square_piecewise_uniform()
    sol = solve_oseen(zero_problem(), mesh, kind=kind)
    assert np.abs(sol.sigma.coeffs).max() < 1e-10
    assert np.abs(sol.u.coeffs).max() < 1e-10
    assert abs(sol.multiplier) < 1e-10
    assert sol.residual <= 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_divergence_identity_for_linear_stokes(kind):
    # div(sigma) = -f is constant here, so even the coarsest spaces carry
    # it exactly.
    mesh = two_triangle_square()
    sol = solve_oseen(stokes_linear_problem(), mesh, kind=kind)
    dv = sol.sigma.div_cells()
    assert np.abs(dv - np.array([1.0, -1.0])).max() < 1e-12
    assert sol.residual <= 1e-9


def test_bdm1_reproduces_linear_pseudostress_exactly():
    # The exact pseudostress has affine rows, which BDM1 represents; the
    # discrete solution must then coincide with the canonical interpolant
    # and the velocity with the cell means of the exact velocity.
    prob = stokes_linear_problem()
    mesh = two_triangle_square()
    sol = solve_oseen(prob, mesh, kind="bdm1")
    interp = interpolate_pseudostress(sol.sigma.space, prob.exact_sigma)
    proj = project_velocity(project_exact(mesh, prob.exact_u))
    assert supercloseness(interp, sol.sigma) < 1e-12
    assert supercloseness(proj, sol.u) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_solved_pseudostress_has_zero_trace_mean(kind):
    mesh = make_square_piecewise_uniform(1)
    sol = solve_oseen(get_problem("p1"), mesh, kind=kind)
    scale = float(np.abs(sol.sigma.coeffs).max())
    assert abs(trace_mean(sol.sigma)) < 1e-9 * max(scale, 1.0)
    assert sol.residual <= 1e-9
    assert sol.ndofs == sol.sigma.space.n_dofs_per_row * 2 + 2 * mesh.nt + 1


# ----------------------------------------------------------------------
# the elimination order of the condensed system
# ----------------------------------------------------------------------


def _colamd_solve(problem, mesh, kind, monkeypatch):
    """`solve_oseen` with SuperLU's own column order and row pivoting."""
    with monkeypatch.context() as m:
        m.setattr(assembly, "lu_solve", colamd_lu_solve)
        return solve_oseen(problem, mesh, kind=kind)


def _assert_same_solution(sol, ref):
    assert np.abs(sol.sigma.coeffs - ref.sigma.coeffs).max() <= 1e-9 * np.abs(ref.sigma.coeffs).max()
    assert np.abs(sol.u.coeffs - ref.u.coeffs).max() <= 1e-9 * np.abs(ref.u.coeffs).max()
    scale = max(abs(ref.multiplier), np.abs(ref.sigma.coeffs).max(), np.abs(ref.u.coeffs).max())
    assert abs(sol.multiplier - ref.multiplier) <= 1e-9 * scale
    assert sol.residual <= 1e-9


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("level", range(4))
def test_ordered_solve_matches_the_colamd_solve(kind, level, monkeypatch):
    mesh = make_square_piecewise_uniform(level)
    ref = _colamd_solve(get_problem("p1"), mesh, kind, monkeypatch)
    _assert_same_solution(solve_oseen(get_problem("p1"), mesh, kind=kind), ref)


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_every_adaptive_solve_matches_the_colamd_solve(name, monkeypatch):
    problem = get_problem(name)
    checked = []

    def spy(problem, mesh, kind="rt0"):
        sol = solve_oseen(problem, mesh, kind=kind)
        _assert_same_solution(sol, _colamd_solve(problem, mesh, kind, monkeypatch))
        checked.append(mesh.nt)
        return sol

    monkeypatch.setattr(adaptive, "solve_oseen", spy)
    history = adaptive_solve(problem, theta=problem.default_theta, max_iters=4)
    assert len(checked) == history.niter == 5


CONDENSED_CASES = pytest.mark.parametrize(
    "kind, make_mesh",
    [
        ("rt0", lambda: without_hierarchy(make_square_piecewise_uniform(2))),
        ("bdm1", lambda: without_hierarchy(make_square_piecewise_uniform(2))),
        ("rt0", _adapted("p2", 3)),
        ("bdm1", lambda: two_triangle_square()),
    ],
    ids=["rt0-square", "bdm1-square", "rt0-p2-adapted", "bdm1-two-triangles"],
)


@CONDENSED_CASES
def test_elimination_order_keeps_edges_together_and_each_c_after_its_edges(kind, make_mesh):
    mesh = make_mesh()
    space = build_space(mesh, kind)
    system = assemble(get_problem("p1"), mesh, space)
    el, n = system.elements, system.matrix.n
    edge, c = system.index[:, :-1], system.index[:, -1]
    # every condensed unknown is numbered by its elimination position; the
    # boundary slots and the last element's c point at the sentinel n
    inner = edge < n
    assert system.sizes == (n,) and c[-1] == n and np.all(edge[~inner] == n)
    assert np.array_equal(inner, el.sign != 0)
    mult = np.unique(edge[inner])
    assert np.array_equal(np.sort(np.concatenate([mult, c[:-1]])), np.arange(n))
    # the multipliers of each interior edge are consecutive
    moments = 1 if kind == "rt0" else 2
    mesh_edge = np.tile(space.dof_map // moments, 2)[inner]
    first = np.full(mesh.ne, n)
    last = np.full(mesh.ne, -1)
    np.minimum.at(first, mesh_edge, edge[inner])
    np.maximum.at(last, mesh_edge, edge[inner])
    used = last >= 0
    assert np.all(last[used] - first[used] == 2 * moments - 1)
    assert np.count_nonzero(used) * 2 * moments == mult.size
    # c_K comes after every multiplier of its own edges, with only other
    # c's in between
    own = np.where(inner, edge, -1).max(axis=1)[:-1]
    assert np.all(own >= 0) and np.all(c[:-1] > own)
    multipliers_up_to = np.cumsum(np.isin(np.arange(n), mult))
    assert np.array_equal(multipliers_up_to[c[:-1]], multipliers_up_to[own])


@CONDENSED_CASES
def test_owned_copies_partition_the_bordered_unknowns(kind, make_mesh):
    # the back-substitution writes the solution into an np.empty vector,
    # one owned local copy per unknown, so every sigma dof and u unknown
    # must be owned exactly once
    mesh = make_mesh()
    space = build_space(mesh, kind)
    el = assemble(get_problem("p1"), mesh, space).elements
    owned = assembly._owned_copies(el)
    counts = np.bincount(el.dofs[owned], minlength=2 * space.n_dofs_per_row + 2 * mesh.nt)
    assert np.all(counts == 1)
    # the two copies of an interior moment sit on opposite sides, the one
    # copy of a boundary moment has sign 0
    ns = el.sign.shape[1]
    copies = np.bincount(el.dofs[:, :ns].ravel(), minlength=2 * space.n_dofs_per_row)
    assert np.array_equal(copies[el.dofs[:, :ns]] == 2, el.sign != 0)
    assert not np.any(np.bincount(el.dofs[:, :ns].ravel(), weights=el.sign.ravel()))


@pytest.mark.parametrize("kind, level", [("bdm1", 3), ("rt0", 4)])
def test_ordered_factorization_has_less_fill_than_colamd(kind, level, monkeypatch):
    fills = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    mesh = without_hierarchy(make_square_piecewise_uniform(level))
    system = assemble(get_problem("p1"), mesh, build_space(mesh, kind))
    lu_solve(system.matrix, system.rhs)
    colamd_lu_solve(system.matrix, system.rhs)
    ordered, colamd = fills
    assert ordered < 0.8 * colamd


# ----------------------------------------------------------------------
# multilevel condensation over the uniform refinement hierarchy
# ----------------------------------------------------------------------


def _uniform(name, levels):
    """The paper mesh of `name` uniformly refined `levels` times, with its hierarchy."""

    def make():
        mesh = get_problem(name).initial_mesh()
        for _ in range(levels):
            mesh = uniform_quad_refine(mesh)
        return mesh

    return make


# (problem, element, mesh factory, expected depth): every depth the suite can afford
MULTILEVEL_CASES = {
    **{f"p1-rt0-level{k}": ("p1", "rt0", _uniform("p1", k), min(k, 3)) for k in range(1, 5)},
    **{f"p1-bdm1-level{k}": ("p1", "bdm1", _uniform("p1", k), min(k, 2)) for k in range(1, 4)},
    "net-flux": ("leaky", "rt0", lambda: make_square_piecewise_uniform(2), 2),
    "reaction": ("reaction", "bdm1", lambda: make_square_piecewise_uniform(2), 2),
    "p2-uniform": ("p2", "rt0", _uniform("p2", 3), 3),
    "p3-uniform": ("p3", "rt0", _uniform("p3", 3), 3),
    "p3-uniform-bdm1": ("p3", "bdm1", _uniform("p3", 2), 2),
}


@pytest.mark.filterwarnings("ignore:boundary data for 'leaky'")
@pytest.mark.parametrize("name", list(MULTILEVEL_CASES))
def test_multilevel_solve_matches_the_single_level_solve(name):
    # the single-level solve, on the same triangles rebuilt without their
    # coarse meshes, is the oracle
    problem_name, kind, make_mesh, depth = MULTILEVEL_CASES[name]
    problem = CUSTOM_PROBLEMS[problem_name]() if problem_name in CUSTOM_PROBLEMS else get_problem(problem_name)
    mesh = make_mesh()
    assert assemble(problem, mesh, build_space(mesh, kind)).depth == depth
    _assert_same_solution(solve_oseen(problem, mesh, kind=kind), solve_oseen(problem, without_hierarchy(mesh), kind=kind))


@pytest.mark.parametrize("kind, moments, depth", [("rt0", 1, 3), ("bdm1", 2, 2)])
def test_linear_system_records_every_level(kind, moments, depth):
    # at most 8 multipliers per edge and row on the top mesh
    mesh = make_square_piecewise_uniform(4)
    system = assemble(get_problem("p1"), mesh, build_space(mesh, kind))
    assert system.depth == len(system.steps) == depth
    assert len(system.sizes) == depth + 1 and system.sizes[-1] == system.matrix.n
    top = mesh
    for level, size in enumerate(system.sizes):
        if level:
            top = top.coarse
        interior = top.ne - top.boundary_edges.size
        assert size == 2 * interior * (moments << level) + top.nt - 1
    # the top unknowns in the edge order of the top mesh: the multipliers
    # of each interior edge consecutive, each c after its own edges
    n, q = system.matrix.n, moments << depth
    assert system.index.shape == (top.nt, 6 * q + 1)
    edge, c = system.index[:, :-1], system.index[:, -1]
    inner = edge < n
    top_edge = np.tile(np.repeat(top.tri_edges, q, axis=1), 2)
    first = np.full(top.ne, n)
    last = np.full(top.ne, -1)
    np.minimum.at(first, top_edge[inner], edge[inner])
    np.maximum.at(last, top_edge[inner], edge[inner])
    used = last >= 0
    assert np.count_nonzero(used) == top.ne - top.boundary_edges.size
    assert np.all(last[used] - first[used] == 2 * q - 1)
    assert np.array_equal(np.sort(np.concatenate([np.unique(edge[inner]), c[:-1]])), np.arange(n))
    assert c[-1] == n and np.all(c[:-1] > np.where(inner, edge, -1).max(axis=1)[:-1])


def test_a_mesh_without_hierarchy_is_depth_zero():
    mesh = make_square_piecewise_uniform(2)
    single = without_hierarchy(mesh)
    flat = assemble(get_problem("p1"), single, build_space(single, "rt0"))
    assert flat.depth == 0 and flat.steps == () and flat.sizes == (flat.matrix.n,)
    assert assemble(get_problem("p1"), mesh.coarse, build_space(mesh.coarse, "rt0")).depth == 1


@pytest.mark.parametrize("kind, level", [("rt0", 4), ("bdm1", 3)])
def test_top_system_has_less_fill_than_the_single_level_system(kind, level, monkeypatch):
    fills = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    mesh = make_square_piecewise_uniform(level)
    for each in (mesh, without_hierarchy(mesh)):
        system = assemble(get_problem("p1"), each, build_space(each, kind))
        lu_solve(system.matrix, system.rhs)
    top, single = fills
    assert top < 0.5 * single


def test_bordered_residual_check_catches_a_wrong_back_substitution(monkeypatch):
    expand = assembly.CondensationStep.expand
    monkeypatch.setattr(assembly.CondensationStep, "expand", lambda step, kept: expand(step, kept) * (1.0 + 1e-6))
    with pytest.raises(SingularMatrixError, match="bordered residual"):
        solve_oseen(get_problem("p1"), make_square_piecewise_uniform(2))


def _nan(block):
    block[0, 0, 0] = np.nan


def _zero(block):
    block[:] = 0.0


@pytest.mark.parametrize("doctor, defect", [(_nan, "not finite"), (_zero, "singular")])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bad_group_block_raises_singular_matrix_error_naming_depth_and_parent(depth, doctor, defect, monkeypatch):
    # the children 20..23 of parent 5 are doctored before the step that
    # condenses them; never numpy's LinAlgError
    step = assembly._condense_step

    def doctored(blocks, at):
        if at == depth:
            blocks = dataclasses.replace(blocks, block=blocks.block.copy())
            doctor(blocks.block[20:24])
        return step(blocks, at)

    monkeypatch.setattr(assembly, "_condense_step", doctored)
    with pytest.raises(SingularMatrixError, match=f"depth {depth}: the group block of parent 5 is {defect}"):
        solve_oseen(get_problem("p1"), make_square_piecewise_uniform(3))
