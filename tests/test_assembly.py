"""Saddle-point assembly and the direct Oseen solve."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import colamd_lu_solve, jittered, same_bits, stokes_linear_problem, two_triangle_square, without_hierarchy, zero_problem

import element_oracle
import monolithic_oracle
from oseenstress import adaptive, assembly
from oseenstress.adaptive import adaptive_solve
from oseenstress.assembly import assemble, solve_oseen
from oseenstress.errors import supercloseness
from oseenstress.mesh import build_mesh, load_mesh, make_square_piecewise_uniform, red_groups, save_mesh, uniform_quad_refine
from oseenstress.problems import ProblemSpec, get_problem
from oseenstress.sparsela import SingularMatrixError, SolverMemoryError, lu_solve
from oseenstress.spaces import (
    PseudostressField,
    apply_trace_correction,
    build_space,
    identity_coeffs,
    interpolate_pseudostress,
    project_exact,
    project_velocity,
    trace_mean,
)

KINDS = ["rt0", "bdm1"]
# the size m = 2 nl + 2 of the local blocks of each element
LOCAL_SIZE = {"rt0": 8, "bdm1": 14}


def _set_chunk(monkeypatch, triangles: int, kind: str = "rt0"):
    """Cut the chunks every `triangles` fine triangles of `kind`, up to the next top unit, through the entry budget."""
    monkeypatch.setattr(assembly, "_CHUNK_ENTRIES", triangles * LOCAL_SIZE[kind] ** 2)


def _bounds(system):
    """The chunk bounds the condensation and the solve of `system` use."""
    return assembly._chunks(system.steps, system.space.mesh.nt, system.elements.load.shape[1])


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
    # data; built chunk by chunk and scattered through their dofs they
    # give the oracle's quadrature-assembled operator, trace-mean border
    # and load.
    problem, kind, mesh = _case(name)
    space = build_space(mesh, kind)
    hybrid = assemble(problem, mesh, space)
    el = hybrid.elements
    bounds = _bounds(hybrid)
    blocks = np.concatenate([assembly._local_operator(el, assembly._ElementMaps(space, slice(*r))) for r in zip(bounds[:-1], bounds[1:])])
    maps = assembly._ElementMaps(space, slice(None))
    dofs, trace = maps.dofs, maps.trace
    system = monolithic_oracle.assemble(problem, mesh, space)
    m = system.layout.multiplier
    a = system.matrix.to_scipy()
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
    operator = scipy.sparse.csr_matrix((blocks.ravel(), (rows, cols)), shape=(m, m))
    misfit = (operator - a[:m, :m]).data
    assert np.abs(misfit).max(initial=0.0) <= 1e-12 * np.abs(a[:m, :m].data).max()
    trace = np.bincount(dofs.ravel(), weights=trace.ravel(), minlength=m)
    load = np.bincount(dofs.ravel(), weights=el.load.ravel(), minlength=m)
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
    # Element 3's operator is doctored through its Gram block of the
    # bases.  Zeroed, it cannot be condensed and is reported as a singular
    # system naming the element, never as numpy's LinAlgError.
    gram = assembly.cell_gram
    for factor, defect in ((0.0, "singular"), (np.nan, "not finite")):

        def doctored(area, moments, a, b, factor=factor):
            products = gram(area, moments, a, b)
            if b is a:
                products[3] *= factor
            return products

        monkeypatch.setattr(assembly, "cell_gram", doctored)
        with pytest.raises(SingularMatrixError, match=f"the local block of element 3 is {defect}"):
            solve_oseen(get_problem("p1"), make_square_piecewise_uniform())


@pytest.mark.parametrize("factor, defect", [(0.0, "singular"), (np.nan, "not finite")])
def test_singular_local_block_in_a_later_chunk_is_named_by_its_mesh_index(factor, defect, monkeypatch):
    # Element 100 is made a shape class of its own, the last; its class
    # block, the sigma-sigma block linear in the Gram products of the
    # bases, is scaled.  The class is named by its first triangle, 100, and
    # not by its row among the classes; nor by its row in its chunk: with
    # chunks of 40 fine triangles, cut at the top units of 64, it lies in
    # the second chunk, whose local blocks start at row 64.
    local_operator = assembly._local_operator

    def doctored(el, maps, velocity=True):
        operator = local_operator(el, maps, velocity)
        if not velocity:  # the class blocks, of the classes' first triangles
            operator[maps.rows == 100, :6, :6] *= factor  # 2 nl = 6 sigma unknowns for RT0
        return operator

    mesh = make_square_piecewise_uniform(3)
    steps = assemble(get_problem("p1"), mesh, build_space(mesh, "rt0")).steps
    classes, first, scale = mesh.shape_classes()
    assert first[classes[100]] < 100
    alone = np.where(np.arange(mesh.nt) == 100, first.size, classes)
    monkeypatch.setattr(mesh, "_shape_classes", (alone, np.append(first, 100), np.where(alone == first.size, 1.0, scale)))
    monkeypatch.setattr(assembly, "_local_operator", doctored)
    _set_chunk(monkeypatch, 40)
    assert list(assembly._chunks(steps, mesh.nt, LOCAL_SIZE["rt0"])[:3]) == [0, 64, 128]
    with pytest.raises(SingularMatrixError, match=f"the local block of element 100 is {defect}"):
        solve_oseen(get_problem("p1"), mesh)


def test_non_finite_velocity_rows_are_named_by_the_element_s_mesh_index(monkeypatch):
    # each element's own convection and reaction rows V_K, which update its
    # class's inverse, are checked: element 100, in the second chunk, with
    # its reaction in velocity row 2 not a number
    velocity_rows = assembly._velocity_rows

    def doctored(el, maps):
        rows_v = velocity_rows(el, maps)
        if maps.rows.start <= 100 < maps.rows.stop:
            rows_v[100 - maps.rows.start, 1, -1] = np.nan
        return rows_v

    monkeypatch.setattr(assembly, "_velocity_rows", doctored)
    _set_chunk(monkeypatch, 40)
    with pytest.raises(SingularMatrixError, match="the local block of element 100 is not finite"):
        solve_oseen(get_problem("p1"), make_square_piecewise_uniform(3))


def test_failed_solve_states_the_radius_ratio_and_the_cell_peclet_number(monkeypatch):
    # Element 3's Gram block of the bases is zeroed, so its block is
    # singular.  The message gives two facts of the mesh, not a guess at
    # the cause: the worst circum/in-radius ratio and the largest cell
    # Peclet number max_K |b(c_K)| h_K, here recomputed triangle by
    # triangle from the vertices.
    gram = assembly.cell_gram

    def doctored(area, moments, a, b):
        products = gram(area, moments, a, b)
        if b is a:
            products[3] = 0.0
        return products

    monkeypatch.setattr(assembly, "cell_gram", doctored)
    problem, mesh = get_problem("p1"), make_square_piecewise_uniform(1)
    ratios, peclets = [], []
    for corners in mesh.vertices[mesh.triangles]:
        a, b, c = (float(np.hypot(*(corners[i] - corners[i - 1]))) for i in range(3))
        (x1, y1), (x2, y2) = corners[1] - corners[0], corners[2] - corners[0]
        area = 0.5 * abs(x1 * y2 - x2 * y1)
        ratios.append(a * b * c / (4.0 * area) / (2.0 * area / (a + b + c)))
        peclets.append(float(np.hypot(*problem.b(corners.mean(axis=0)))) * max(a, b, c))
    with pytest.raises(SingularMatrixError, match="the local block of element 3 is singular") as info:
        solve_oseen(problem, mesh)
    message = str(info.value)
    assert f"max radius ratio {max(ratios):.4g}," in message
    assert message.endswith(f"largest cell Peclet number |b| h {max(peclets):.4g}")
    assert "too coarse" not in message
    # read with floating-point warnings off, so an overflow under -W error
    # still leaves the one message
    huge = dataclasses.replace(problem, b=lambda x: np.full(x.shape, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert assembly._mesh_facts(huge, mesh).endswith("|b| h inf")


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
        ("rt0", lambda: without_hierarchy(_adapted("p2", 3)())),
        ("bdm1", lambda: two_triangle_square()),
    ],
    ids=["rt0-square", "bdm1-square", "rt0-p2-adapted", "bdm1-two-triangles"],
)


@CONDENSED_CASES
def test_elimination_order_keeps_edges_together_and_each_c_after_its_edges(kind, make_mesh):
    mesh = make_mesh()
    space = build_space(mesh, kind)
    system = assemble(get_problem("p1"), mesh, space)
    n = system.matrix.n
    edge, c = system.index[:, :-1], system.index[:, -1]
    # every condensed unknown is numbered by its elimination position; the
    # boundary slots and the last element's c point at the sentinel n
    inner = edge < n
    assert system.sizes == (n,) and c[-1] == n and np.all(edge[~inner] == n)
    assert np.array_equal(inner, assembly._ElementMaps(space, slice(None)).sign != 0)
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
    maps = assembly._ElementMaps(space, slice(None))
    dofs, sign = maps.dofs, maps.sign
    owned = assembly._owned_copies(sign)
    counts = np.bincount(dofs[owned], minlength=2 * space.n_dofs_per_row + 2 * mesh.nt)
    assert np.all(counts == 1)
    # the two copies of an interior moment sit on opposite sides, the one
    # copy of a boundary moment has sign 0
    ns = sign.shape[1]
    copies = np.bincount(dofs[:, :ns].ravel(), minlength=2 * space.n_dofs_per_row)
    assert np.array_equal(copies[dofs[:, :ns]] == 2, sign != 0)
    assert not np.any(np.bincount(dofs[:, :ns].ravel(), weights=sign.ravel()))


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
    **{f"p1-rt0-level{k}": ("p1", "rt0", _uniform("p1", k), min(k, 5)) for k in range(1, 5)},
    **{f"p1-bdm1-level{k}": ("p1", "bdm1", _uniform("p1", k), min(k, 4)) for k in range(1, 4)},
    "net-flux": ("leaky", "rt0", lambda: make_square_piecewise_uniform(2), 2),
    "reaction": ("reaction", "bdm1", lambda: make_square_piecewise_uniform(2), 2),
    "p2-uniform": ("p2", "rt0", _uniform("p2", 3), 3),
    "p3-uniform": ("p3", "rt0", _uniform("p3", 3), 3),
    "p3-uniform-level4": ("p3", "rt0", _uniform("p3", 4), 4),
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


def test_the_top_edge_cap_ends_the_condensation():
    # six uniform levels, but RT0 stops after five: a sixth would put 64
    # multipliers on each top edge and row, over the cap of 32
    mesh = make_square_piecewise_uniform(6)
    system = assemble(get_problem("p1"), mesh, build_space(mesh, "rt0"))
    assert system.depth == 5 and system.index.shape == (4 * 19, 6 * 32 + 1)


@pytest.mark.parametrize("kind", KINDS)
def test_top_matrix_arrays_own_exactly_their_entries(kind):
    # summing the duplicate triplets of these top systems leaves more than
    # half of them (6,416 of 7,824 for RT0), so scipy's tocsr keeps views
    # into its triplet-length buffers, which to_csr shrinks to the entries
    mesh = make_square_piecewise_uniform(2)
    matrix = assemble(get_problem("p1"), mesh, build_space(mesh, kind)).matrix
    assert all(a.base is None for a in (matrix.indptr, matrix.indices, matrix.data))
    assert matrix.indices.size == matrix.data.size == matrix.indptr[-1] == matrix.nnz


@pytest.mark.parametrize("kind, moments, depth", [("rt0", 1, 4), ("bdm1", 2, 4)])
def test_linear_system_records_every_level(kind, moments, depth):
    # every level of the hierarchy, down to the 19-triangle mesh: at most
    # 32 multipliers per edge and row on the top mesh
    mesh = make_square_piecewise_uniform(4)
    system = assemble(get_problem("p1"), mesh, build_space(mesh, kind))
    assert system.depth == len(system.steps) == depth
    assert len(system.sizes) == depth + 1 and system.sizes[-1] == system.matrix.n
    for level, size in enumerate(system.sizes):
        top = make_square_piecewise_uniform(4 - level)  # the parents of the red groups at `level`
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


@pytest.mark.parametrize(
    "kind, make_mesh, depth",
    [
        ("bdm1", lambda: without_hierarchy(make_square_piecewise_uniform(3)), 0),
        ("rt0", lambda: make_square_piecewise_uniform(3), 3),
    ],
    ids=["flat-bdm1-level3", "rt0-level3-hierarchy"],
)
def test_top_matrix_is_the_sum_of_the_top_blocks_on_live_unknowns(kind, make_mesh, depth, monkeypatch):
    # one entry rule at every depth: the matrix holds the top blocks summed
    # on their live unknowns, and no position whose contributions all vanish;
    # the top blocks are the last of each chunk's 1 + depth results
    top = []
    for name in ("_element_condensed", "_condense_step"):

        def spy(*args, name=name, original=getattr(assembly, name)):
            result = original(*args)
            top.append(result[0] if name == "_condense_step" else result)  # the (block, rhs) pair
            return result

        monkeypatch.setattr(assembly, name, spy)
    mesh = make_mesh()
    system = assemble(get_problem("p1"), mesh, build_space(mesh, kind))
    assert system.depth == depth
    block, n = np.concatenate([each[0] for each in top[depth :: depth + 1]]), system.matrix.n
    assert len(block) == len(system.index)
    live = system.index < n
    on = live[:, :, None] & live[:, None, :]
    rows = np.broadcast_to(system.index[:, :, None], on.shape)[on]
    cols = np.broadcast_to(system.index[:, None, :], on.shape)[on]
    # a sum per distinct position: a dense n-by-n array of the flat BDM1 system would take 0.5 GB
    position, slot = np.unique(rows * n + cols, return_inverse=True)
    total = np.zeros(position.size)
    np.add.at(total, slot, block[on])
    contributions = np.zeros(position.size, dtype=np.int64)
    np.add.at(contributions, slot, block[on] != 0)
    assert np.any(contributions == 0)  # the rule drops some positions
    stored = contributions > 0
    matrix = system.matrix
    assert np.array_equal(np.repeat(np.arange(n), np.diff(matrix.indptr)) * n + matrix.indices, position[stored])
    assert np.array_equal(matrix.data, total[stored])  # at most two contributions per position, so exact


def test_a_mesh_without_hierarchy_is_depth_zero():
    mesh = make_square_piecewise_uniform(2)
    single = without_hierarchy(mesh)
    flat = assemble(get_problem("p1"), single, build_space(single, "rt0"))
    assert flat.depth == 0 and flat.steps == () and flat.sizes == (flat.matrix.n,)
    coarse = make_square_piecewise_uniform(1)
    assert assemble(get_problem("p1"), coarse, build_space(coarse, "rt0")).depth == 1


@pytest.mark.parametrize(
    "name, kind, make_mesh, fill, pivots",
    [
        pytest.param("p1", "rt0", lambda: make_square_piecewise_uniform(4), 0.5, 0.25, id="rt0-4"),
        pytest.param("p1", "bdm1", lambda: make_square_piecewise_uniform(3), 0.5, 0.25, id="bdm1-3"),
        # condensed through its red groups, one level
        pytest.param("p3", "rt0", _adapted("p3", 8), 0.75, 0.25, id="rt0-p3-adapted"),
    ],
)
def test_top_system_has_less_fill_than_the_single_level_system(name, kind, make_mesh, fill, pivots, monkeypatch):
    # fill and off-diagonal pivots, top system against the single-level system
    mesh = make_mesh()
    factors = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        factors.append((lu.nnz, np.count_nonzero(lu.perm_r != lu.perm_c)))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    for each in (mesh, without_hierarchy(mesh)):
        system = assemble(get_problem(name), each, build_space(each, kind))
        lu_solve(system.matrix, system.rhs)
    (top, top_pivots), (single, single_pivots) = factors
    assert top < fill * single
    assert top_pivots <= pivots * single_pivots


# ----------------------------------------------------------------------
# one level of condensation through the red groups of an adaptive mesh
# ----------------------------------------------------------------------


def _red_green_and_alone():
    """The crossed unit square with its bottom triangle red-split: one red group,
    the green pairs of its two neighbours, and the top triangle alone."""
    vertices = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.75, 0.25], [0.25, 0.25], [0.5, 0]]
    red = [[0, 7, 6], [1, 5, 7], [4, 6, 5], [5, 6, 7]]  # the children of (0, 1, 4)
    triangles = red + [[1, 2, 5], [2, 4, 5], [2, 3, 4], [3, 0, 6], [3, 6, 4]]
    mesh = build_mesh(vertices, triangles)
    mesh.green_pairs = np.array([[4, 5], [7, 8]])
    return mesh


GROUPED_CASES = {
    "p2-adapted": ("p2", _adapted("p2", 8)),
    "p3-adapted": ("p3", _adapted("p3", 6)),
    "red-green-and-alone": ("p1", _red_green_and_alone),
}


@pytest.mark.parametrize("name", list(GROUPED_CASES))
def test_grouped_solve_matches_the_single_level_solve(name):
    # red groups beside green pairs and triangles left alone, condensed one
    # level; the same triangles with no red group are the oracle
    problem_name, make_mesh = GROUPED_CASES[name]
    problem, mesh = get_problem(problem_name), make_mesh()
    starts = red_groups(mesh.triangles)
    assert 0 < 4 * starts.size < mesh.nt
    flat = without_hierarchy(mesh)
    system = assemble(problem, mesh, build_space(mesh, "rt0"))
    single = assemble(problem, flat, build_space(flat, "rt0")).matrix.n
    assert system.depth == 1 and system.sizes == (single, system.matrix.n)
    assert system.index.shape == (mesh.nt - 3 * starts.size, 13)
    _assert_same_solution(solve_oseen(problem, mesh), solve_oseen(problem, flat))


@pytest.mark.parametrize("name", list(GROUPED_CASES))
def test_adaptive_top_order_keeps_edges_together_and_each_c_after_its_edges(name):
    # a top edge is named by the two top units whose index rows hold its
    # multipliers; here it holds one or two fine edges
    problem_name, make_mesh = GROUPED_CASES[name]
    mesh = make_mesh()
    system = assemble(get_problem(problem_name), mesh, build_space(mesh, "rt0"))
    n, nu = system.matrix.n, system.index.shape[0]
    edge, c = system.index[:, :-1], system.index[:, -1]
    inner = edge < n
    unit = np.broadcast_to(np.arange(nu)[:, None], edge.shape)[inner]
    lo = np.full(n, nu)
    hi = np.full(n, -1)
    np.minimum.at(lo, edge[inner], unit)
    np.maximum.at(hi, edge[inner], unit)
    mult = np.flatnonzero(hi >= 0)
    assert np.all(np.bincount(edge[inner], minlength=n)[mult] == 2) and np.all(lo[mult] < hi[mult])
    assert np.array_equal(np.sort(np.concatenate([mult, c[:-1]])), np.arange(n)) and c[-1] == n
    # the multipliers of each top edge are consecutive: 2 or 4 of them (RT0, both rows)
    _, top_edge, count = np.unique(lo[mult] * nu + hi[mult], return_inverse=True, return_counts=True)
    first = np.full(count.size, n)
    last = np.full(count.size, -1)
    np.minimum.at(first, top_edge, mult)
    np.maximum.at(last, top_edge, mult)
    assert np.all(last - first == count - 1) and set(count) <= {2, 4}
    # c comes after every multiplier of its unit's edges, with only other c's in between
    own = np.where(inner, edge, -1).max(axis=1)[:-1]
    assert np.all(own >= 0) and np.all(c[:-1] > own)
    multipliers_up_to = np.cumsum(np.isin(np.arange(n), mult))
    assert np.array_equal(multipliers_up_to[c[:-1]], multipliers_up_to[own])


def _one_triangle():
    return build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "make_mesh, depth",
    [(_one_triangle, 0), (lambda: uniform_quad_refine(_one_triangle()), 1)],
    ids=["one-triangle", "one-red-group"],
)
def test_a_top_system_without_edges_matches_the_monolithic_solve(kind, make_mesh, depth):
    # the whole mesh condenses to one top unit, whose c is pinned: N = 0
    problem, mesh = get_problem("p1"), make_mesh()
    system = assemble(problem, mesh, build_space(mesh, kind))
    assert system.depth == depth and system.matrix.n == 0 and system.index.shape[0] == 1
    sol = solve_oseen(problem, mesh, kind=kind)
    sigma, u, lam = monolithic_oracle.oracle_solve(problem, mesh, kind)
    assert np.abs(sol.sigma.coeffs - sigma).max() <= 1e-9 * np.abs(sigma).max()
    assert np.abs(sol.u.coeffs - u).max() <= 1e-9 * np.abs(u).max()
    assert abs(sol.multiplier - lam) <= 1e-9 * max(abs(lam), np.abs(sigma).max(), np.abs(u).max())
    assert sol.residual <= 1e-9


def test_a_saved_and_loaded_adapted_mesh_gives_the_same_top_system(tmp_path):
    mesh = _adapted("p3", 5)()
    save_mesh(mesh, tmp_path / "mesh.txt")
    loaded = load_mesh(tmp_path / "mesh.txt")
    systems = [assemble(get_problem("p3"), each, build_space(each, "rt0")) for each in (mesh, loaded)]
    assert systems[0].depth == systems[1].depth == 1
    for a, b in zip(*(dataclasses.astuple(s.matrix) + (s.rhs,) for s in systems)):
        assert np.array_equal(a, b)


def test_bordered_residual_check_catches_a_wrong_back_substitution(monkeypatch):
    expand = assembly.CondensationStep.expand
    monkeypatch.setattr(assembly.CondensationStep, "expand", lambda step, kept: expand(step, kept) * (1.0 + 1e-6))
    with pytest.raises(SingularMatrixError, match="bordered residual"):
        solve_oseen(get_problem("p1"), make_square_piecewise_uniform(2))


@pytest.mark.parametrize("name", ["rt0-level3-hierarchy", "bdm1-level3", "no-repeated-shape"])
def test_local_products_are_the_local_blocks_applied(name):
    # the residual check applies each L_K without forming it: the same
    # terms summed in another order, so equal up to roundoff
    problem_name, kind, make_mesh, _ = CHUNKED_CASES[name]
    problem, mesh = get_problem(problem_name), make_mesh()
    space = build_space(mesh, kind)
    el = assemble(problem, mesh, space).elements
    for rows in (slice(None), slice(5, 45)):
        maps = assembly._ElementMaps(space, rows)
        operator = assembly._local_operator(el, maps)
        x = np.random.default_rng(2).standard_normal(operator.shape[:2])
        want = (operator @ x[:, :, None])[:, :, 0]
        scale = np.abs(operator).max(axis=(1, 2)) * np.abs(x).max(axis=1)
        assert np.all(np.abs(assembly._local_products(el, maps, x) - want).max(axis=1) <= 1e-14 * scale)


def _nan(block):
    block[0, 0, 0] = np.nan


def _zero(block):
    block[:] = 0.0


def _nan_kept(block):
    # the first multiplier of child 4P's edge 1, which parent P keeps
    q = (block.shape[-1] - 1) // 6
    block[0, q, q] = np.nan


@pytest.mark.parametrize("doctor, defect", [(_nan, "not finite"), (_zero, "singular"), (_nan_kept, "not finite")])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bad_group_block_raises_singular_matrix_error_naming_depth_and_parent(depth, doctor, defect, monkeypatch):
    # the four children of parent 5 are doctored before the step that
    # condenses them; never numpy's LinAlgError.  With chunks of 64 fine
    # triangles (one top unit each), parent 5 lies in a later chunk at
    # depths 2 and 3, and the message still counts it over the whole level
    condense_step = assembly._condense_step
    firsts = []

    def doctored(blocks, step, lo, hi, at):
        first, last = np.searchsorted(step.groups, [step.unit[lo], step.unit[hi - 1] + 1])
        if at == depth and first <= 5 < last:
            firsts.append(first)
            blocks = (blocks[0].copy(), blocks[1])
            child = np.flatnonzero(step.unit[lo:hi] == step.groups[5])[0]
            doctor(blocks[0][child : child + 4])
        return condense_step(blocks, step, lo, hi, at)

    monkeypatch.setattr(assembly, "_condense_step", doctored)
    for entries in (assembly._CHUNK_ENTRIES, 64 * LOCAL_SIZE["rt0"] ** 2):
        monkeypatch.setattr(assembly, "_CHUNK_ENTRIES", entries)
        with pytest.raises(SingularMatrixError, match=f"depth {depth}: the group block of parent 5 is {defect}"):
            solve_oseen(get_problem("p1"), make_square_piecewise_uniform(3))
    # the first group of parent 5's chunk: one chunk, then one per top unit of 4 ** (3 - depth) groups
    assert firsts == [0, {1: 0, 2: 4, 3: 5}[depth]]


# ----------------------------------------------------------------------
# condensation in chunks of top units
# ----------------------------------------------------------------------


# (problem, element, mesh factory, depth)
CHUNKED_CASES = {
    "rt0-level3-hierarchy": ("p1", "rt0", lambda: make_square_piecewise_uniform(3), 3),
    "bdm1-level3": ("p1", "bdm1", lambda: make_square_piecewise_uniform(3), 3),
    "p2-adapted": ("p2", "rt0", _adapted("p2", 8), 1),
    "no-red-group": ("p1", "bdm1", lambda: without_hierarchy(make_square_piecewise_uniform(2)), 0),
    "no-repeated-shape": ("p1", "rt0", lambda: jittered(make_square_piecewise_uniform(2)), 2),
}


@pytest.mark.parametrize("name", list(CHUNKED_CASES))
def test_condensation_in_small_chunks_matches_one_chunk(name, monkeypatch):
    # chunks of a few dozen triangles, and of one top unit each, against one
    # chunk larger than the mesh: the same SuperLU matrix, numbering and
    # levels, bit for bit
    problem_name, kind, make_mesh, depth = CHUNKED_CASES[name]
    problem, mesh = get_problem(problem_name), make_mesh()
    space = build_space(mesh, kind)
    systems, bounds = [], {}
    for chunk in (mesh.nt + 1, 40, 1):
        _set_chunk(monkeypatch, chunk, kind)
        systems.append(assemble(problem, mesh, space))
        bounds[chunk] = _bounds(systems[-1])
    assert len(bounds[40]) > 4 and bounds[40][0] == 0 and bounds[40][-1] == mesh.nt
    if name == "p2-adapted":  # some chunk starts with triangles outside any group, and some holds no group
        starts = red_groups(mesh.triangles)
        assert np.setdiff1d(bounds[40][:-1], starts).size > 0
        assert np.any(np.diff(np.searchsorted(starts, bounds[1])) == 0)
    whole = systems[0]
    for chunked in systems[1:]:
        assert whole.depth == chunked.depth == depth
        assert whole.sizes == chunked.sizes
        assert np.array_equal(whole.index, chunked.index)
        for a, b in zip(dataclasses.astuple(whole.matrix), dataclasses.astuple(chunked.matrix)):
            assert np.array_equal(a, b)
        for a, b in zip(whole.steps, chunked.steps):
            for field in dataclasses.fields(a):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
        assert np.abs(whole.rhs - chunked.rhs).max() <= 1e-14 * np.abs(whole.rhs).max()
        s_whole, s_chunked = assembly._solve_hybrid(whole)[0], assembly._solve_hybrid(chunked)[0]
        assert np.abs(s_whole - s_chunked).max() <= 1e-12 * np.abs(s_whole).max()


@pytest.mark.parametrize("name", list(CHUNKED_CASES))
def test_chunked_element_blocks_equal_the_whole_mesh_oracle(name, monkeypatch):
    # the rank-2 updates written chunk by chunk, and the local blocks the
    # residual rebuilds chunk by chunk, against the whole-mesh formulas,
    # for one chunk, chunks of a few dozen triangles and chunks of one top
    # unit: the local blocks bit for bit, and the pinned inverses rebuilt
    # here from the class inverses and the updates, G_K = Ĝ - Ĝ U Z_K, to
    # 1e-12 relative per element.  The class's pin is each member's own on
    # these meshes; where roundoff broke a tie the other way the inverses
    # would differ, and only the solutions, compared with the monolithic
    # solve above, could be.
    problem_name, kind, make_mesh, _ = CHUNKED_CASES[name]
    problem, mesh = get_problem(problem_name), make_mesh()
    space = build_space(mesh, kind)
    operator = element_oracle.operator(problem, space)
    inverse = element_oracle.pinned_inverse(operator, space)
    for chunk in (mesh.nt + 1, 40, 1):
        _set_chunk(monkeypatch, chunk, kind)
        system = assemble(problem, mesh, space)
        bounds = _bounds(system)
        rebuilt = [assembly._local_operator(system.elements, assembly._ElementMaps(space, slice(*r))) for r in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(np.concatenate(rebuilt), operator)
        pin = np.argmax(np.abs(assembly._ElementMaps(space, slice(None)).kernel), axis=1)
        classes, first, _ = mesh.shape_classes()
        assert np.array_equal(pin, pin[first][classes])
        el = system.elements
        ns = 2 * space.ndof_local
        assert el.class_inverse.shape == (len(first), ns + 2, ns + 2)
        rebuilt = el.class_inverse[classes]
        rebuilt = rebuilt - rebuilt[:, :, ns:] @ el.update
        error = np.abs(rebuilt - inverse).max(axis=(1, 2))
        assert np.all(error <= 1e-12 * np.abs(inverse).max(axis=(1, 2)))


MAPS = ("dofs", "kernel", "trace", "sign")


def _whole_mesh_maps(space):
    """The dofs, kernel, trace and sign of every element, in the whole-mesh expressions the element blocks once kept."""
    mesh = space.mesh
    n, nt, nl = space.n_dofs_per_row, mesh.nt, space.ndof_local
    ns = 2 * nl
    tris = np.arange(nt)
    dofs = np.empty((nt, ns + 2), dtype=np.int64)
    dofs[:, :nl] = space.dof_map
    dofs[:, nl:ns] = space.dof_map + n
    dofs[:, ns] = 2 * n + tris
    dofs[:, ns + 1] = 2 * n + nt + tris
    interior = np.ones(mesh.ne, dtype=bool)
    interior[mesh.boundary_edges] = False
    inner = np.repeat(interior, space.moments)
    sign = np.where(inner[space.dof_map], np.repeat(mesh.tri_signs, space.moments, axis=1), 0.0)
    sign = np.concatenate([sign, sign], axis=1)
    kernel = np.zeros((nt, ns + 2))
    kernel[:, :ns] = identity_coeffs(space).ravel()[dofs[:, :ns]]
    trace = np.zeros((nt, ns + 2))
    trace[:, :ns] = mesh.tri_areas()[:, None] * space.bases()[0][..., 0].transpose(0, 2, 1).reshape(nt, ns)
    return dofs, kernel, trace, sign


@pytest.mark.parametrize("name", list(CHUNKED_CASES))
def test_element_maps_of_each_chunk_equal_the_whole_mesh_maps(name, monkeypatch):
    # the maps are rebuilt chunk by chunk, for one chunk, chunks of a few
    # dozen triangles and chunks of one top unit, and for the first
    # triangles of the shape classes: bit for bit the whole-mesh arrays
    problem_name, kind, make_mesh, _ = CHUNKED_CASES[name]
    problem, mesh = get_problem(problem_name), make_mesh()
    space = build_space(mesh, kind)
    whole = _whole_mesh_maps(space)
    steps = assemble(problem, mesh, space).steps
    for chunk in (mesh.nt + 1, 40, 1):
        _set_chunk(monkeypatch, chunk, kind)
        bounds = assembly._chunks(steps, mesh.nt, LOCAL_SIZE[kind])
        pieces = [assembly._ElementMaps(space, slice(*r)) for r in zip(bounds[:-1], bounds[1:])]
        for part, a in zip(MAPS, whole):
            assert same_bits(a, np.concatenate([getattr(piece, part) for piece in pieces]))
    first = mesh.shape_classes()[1]
    for part, a in zip(MAPS, whole):
        assert same_bits(a[first], getattr(assembly._ElementMaps(space, first), part))


@pytest.mark.parametrize("name", list(CHUNKED_CASES))
def test_back_substitution_rebuilds_the_pinned_inverses_the_condensation_used(name, monkeypatch):
    # G_K is not kept: the condensation and the back-substitution each
    # rebuild it chunk by chunk from the class inverses and the updates,
    # and the two must be the same bits, chunk for chunk, in chunks of a
    # few dozen triangles
    problem_name, kind, make_mesh, _ = CHUNKED_CASES[name]
    problem, mesh = get_problem(problem_name), make_mesh()
    space = build_space(mesh, kind)
    built = []

    def spy(el, space, rows):
        inverse = real(el, space, rows)
        built.append(((rows.start, rows.stop), inverse.copy()))
        return inverse

    real = assembly._pinned_inverses
    _set_chunk(monkeypatch, 40, kind)
    monkeypatch.setattr(assembly, "_pinned_inverses", spy)
    system = assemble(problem, mesh, space)
    condensed = built[:]
    assembly._solve_hybrid(system)
    substituted = built[len(condensed) :]
    bounds = _bounds(system)
    chunks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    assert len(chunks) > 2
    assert [rows for rows, _ in condensed] == [rows for rows, _ in substituted] == chunks
    for (_, a), (_, b) in zip(condensed, substituted):
        assert np.array_equal(a, b)


def _cut_every(steps: list, nt: int, rows: int) -> list:
    """Chunk bounds cut every `rows` fine rows, each cut moved up to the first fine row of a top unit, one row at a time."""
    starts, last = [], -1
    for row in range(nt):
        unit = row
        for step in steps:
            unit = int(step.unit[unit])
        if unit != last:
            starts.append(row)
        last = unit
    starts.append(nt)
    return sorted({min(start for start in starts if start >= cut) for cut in range(0, nt, rows)} | {nt})


@pytest.mark.parametrize(
    "problem_name, kind, make_mesh",
    [
        ("p1", "rt0", lambda: make_square_piecewise_uniform(5)),
        ("p3", "rt0", _adapted("p3", 8)),
        ("p1", "bdm1", lambda: make_square_piecewise_uniform(4)),
    ],
    ids=["rt0-level5", "rt0-p3-adapted", "bdm1-level4"],
)
def test_chunks_hold_a_budget_of_dense_entries(problem_name, kind, make_mesh):
    # a chunk holds _CHUNK_ENTRIES // m**2 fine triangles, cut up to the
    # next top unit: 2,048 for RT0 (m = 8), the fixed chunks of 2,048
    # triangles the condensation had before the budget, and 668 for BDM1
    # (m = 14), seven chunks of at most three top units of 256 at level 4
    mesh = make_mesh()
    steps = assemble(get_problem(problem_name), mesh, build_space(mesh, kind)).steps
    m = LOCAL_SIZE[kind]
    bounds = assembly._chunks(steps, mesh.nt, m).tolist()
    if kind == "rt0":
        assert bounds == _cut_every(steps, mesh.nt, 2048)
        assert len(bounds) > 3
    else:
        rows = assembly._CHUNK_ENTRIES // 196
        assert rows == 668 and bounds == _cut_every(steps, mesh.nt, rows)
        assert bounds == [0, 768, 1536, 2048, 2816, 3584, 4096, 4864]
        assert max(np.diff(bounds)) <= -(-rows // 256) * 256


# (element, mesh factory, shape classes)
LEDGER_CASES = {
    "rt0-level5": ("rt0", lambda: make_square_piecewise_uniform(5), 469),
    "bdm1-level4": ("bdm1", lambda: make_square_piecewise_uniform(4), 463),
    "p2-adapted": ("rt0", _adapted("p2", 8), 58),
}


@pytest.mark.parametrize("name", list(LEDGER_CASES))
def test_ledger_counts_every_batched_dense_solve(name, monkeypatch):
    # np.linalg.solve and np.linalg.inv are spied on while the space is
    # built and the system assembled; the ledger recounts them exactly, by
    # block size and right-hand sides, and shows one element solve per
    # shape class: 469 for the 19,456 triangles of RT0 level 5, 463 for the
    # 4,864 of BDM1 level 4
    kind, make_mesh, classes = LEDGER_CASES[name]
    problem = get_problem("p2" if name.startswith("p2") else "p1")
    mesh = make_mesh()
    spied = {}

    def spy(real):
        def counted(a, *b):
            x = real(a, *b)
            calls, matrices = spied.get(x.shape[1:], (0, 0))
            spied[x.shape[1:]] = (calls + 1, matrices + len(x))
            return x

        return counted

    monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", spy(np.linalg.inv))
    system = assemble(problem, mesh, build_space(mesh, kind))
    monkeypatch.undo()
    ledger = system.ledger
    assert {(d.size, d.rhs): (d.calls, d.matrices) for d in ledger.values()} == spied
    nl, m = 3 * system.space.moments, system.elements.load.shape[1]
    assert ledger["class Vandermonde inverse"] == (1, classes, nl, nl)
    assert ledger["class inverse"] == (1, classes, m, m)
    chunks = len(_bounds(system)) - 1
    for depth, step in enumerate(system.steps, 1):
        assert ledger[f"condensation at depth {depth}"][:2] == (chunks, len(step.groups))
    assert len(ledger) == 2 + system.depth


def _owned_bytes(obj, seen: set) -> int:
    """Bytes of the arrays that own the data of every array in `obj`, each counted once."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_owned_bytes(getattr(obj, field.name), seen) for field in dataclasses.fields(obj))
    if isinstance(obj, tuple):
        return sum(_owned_bytes(each, seen) for each in obj)
    return 0


def test_assembly_holds_its_output_and_one_chunk():
    # the BDM1 level-4 hierarchy, 4,864 triangles in seven chunks of at
    # most 768: the traced peak of `assemble` is at most the arrays it
    # returns plus the dense blocks of its largest chunk, on every level
    # its group blocks, their solved blocks and the parents' blocks, 15.6
    # MB; the depth-1 group blocks of the whole level alone would take 25 MB
    mesh = make_square_piecewise_uniform(4)
    space = build_space(mesh, "bdm1")
    problem = get_problem("p1")
    tracemalloc.start()
    try:
        system = assemble(problem, mesh, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bounds = _bounds(system)
    assert system.depth == 4 and len(bounds) == 8
    output = _owned_bytes((system.matrix, system.rhs, system.index, system.elements, system.steps), set())
    q, chunk = space.moments, int(np.diff(bounds).max())
    dense = chunk * (6 * q + 1) ** 2  # its element blocks
    for level in range(system.depth):
        groups = chunk >> 2 * (level + 1)
        dense += groups * ((18 * q + 4) ** 2 + (6 * q + 3) * (12 * q + 2) + (12 * q + 1) ** 2)
        q *= 2
    assert peak <= output + 8 * dense


def test_solve_holds_what_it_keeps_and_one_chunk_of_element_work(monkeypatch):
    # The BDM1 level-4 hierarchy, 4,864 triangles in seven chunks.  No
    # (nt, m, m) array is kept: each pinned inverse G_K is kept as its
    # class's and a rank-2 update (nt, 2, m), and G_K and the local blocks
    # L_K exist one chunk at a time, in the condensation, the
    # back-substitution and the residual check.  So outside the
    # factorization, whose memory is the
    # top system's, the traced peak of `assemble` and `_solve_hybrid` is
    # at most the arrays they keep plus the dense blocks of one chunk and
    # a few chunks' worth of element work (one more whole-mesh L_K would
    # add 7.6 MB to it).
    mesh = make_square_piecewise_uniform(4)
    space = build_space(mesh, "bdm1")
    problem = get_problem("p1")
    peaks = []

    def factored_apart(matrix, rhs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        solved = lu_solve(matrix, rhs)
        tracemalloc.reset_peak()
        return solved

    monkeypatch.setattr(assembly, "lu_solve", factored_apart)
    tracemalloc.start()
    try:
        system = assemble(problem, mesh, space)
        s, _ = assembly._solve_hybrid(system)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    el = system.elements
    nt, m = el.load.shape
    assert m == 14 and el.update.shape == (nt, 2, m)
    # no map or basis that the mesh and the space give is kept per element
    per_element = [
        field.name
        for each in (el, space)
        for field in dataclasses.fields(each)
        if getattr(getattr(each, field.name), "shape", ())[:1] == (nt,)
    ]
    assert sorted(per_element) == ["b", "dof_map", "load", "reaction", "update"]
    kept = _owned_bytes((system.matrix, system.rhs, system.index, el, system.steps, s), set())
    q, chunk = space.moments, int(np.diff(_bounds(system)).max())
    element_work = 8 * 5 * chunk * m * m
    dense = chunk * (6 * q + 1) ** 2
    for level in range(system.depth):
        groups = chunk >> 2 * (level + 1)
        dense += groups * ((18 * q + 4) ** 2 + (6 * q + 3) * (12 * q + 2) + (12 * q + 1) ** 2)
        q *= 2
    assemble_peak, solve_peak = peaks
    assert assemble_peak <= kept + 8 * dense + element_work
    assert solve_peak <= kept + element_work
