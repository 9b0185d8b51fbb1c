"""Saddle-point assembly and the direct Oseen solve."""

import numpy as np
import pytest

from conftest import stokes_linear_problem, two_triangle_square, zero_problem

from oseenstress.adaptive import adaptive_solve
from oseenstress.assembly import assemble, assemble_dirichlet_rhs, solve_oseen
from oseenstress.errors import supercloseness
from oseenstress.mesh import make_square_piecewise_uniform
from oseenstress.problems import ProblemSpec, get_problem
from oseenstress.sparsela import lu_solve
from oseenstress.spaces import (
    PseudostressField,
    apply_trace_correction,
    build_space,
    interpolate_pseudostress,
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
        system = assemble(get_problem("p1"), mesh, space)
        layout = system.layout
        assert layout.n_row_dofs == n
        assert layout.size == 2 * n + 2 * mesh.nt + 1
        assert layout.multiplier == layout.size - 1
        assert system.matrix.n == layout.size
        assert system.rhs.shape == (layout.size,)


@pytest.mark.parametrize("kind", KINDS)
def test_stokes_block_structure(kind):
    # Without convection the constraint blocks are exact negative
    # transposes, the velocity couples only to its own pseudostress row,
    # and the multiplier column mirrors the multiplier row.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    system = assemble(stokes_linear_problem(), mesh, space)
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
    assert np.array_equal(s1.rhs, s2.rhs)


def test_assemble_validates_inputs():
    mesh = make_square_piecewise_uniform()
    other = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")
    with pytest.raises(ValueError):
        assemble(get_problem("p1"), mesh, space, quad_degree=3)
    with pytest.raises(ValueError):
        assemble(get_problem("p1"), other, space)


# ----------------------------------------------------------------------
# boundary data functional
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_dirichlet_rhs_for_constant_data(kind):
    # For g = (1, 0) the boundary functional of a zeroth-moment basis
    # function reduces to its orientation sign (its normal flux integrates
    # to one); first-moment functions and the second row see nothing.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    prob = zero_problem()
    g_const = ProblemSpec(
        name="gconst",
        b=prob.b,
        c=prob.c,
        f=prob.f,
        g=lambda x: np.broadcast_to(np.array([1.0, 0.0]), x.shape).copy(),
        initial_mesh=prob.initial_mesh,
    )
    rhs = assemble_dirichlet_rhs(g_const, mesh, space)
    layout_n = space.n_dofs_per_row
    boundary = set(int(e) for e in mesh.boundary_edges)
    owner_sign = np.zeros(mesh.ne)
    for t in range(mesh.nt):
        for k in range(3):
            e = int(mesh.tri_edges[t, k])
            if e in boundary:
                owner_sign[e] = mesh.tri_signs[t, k]
    expected_row0 = np.zeros(layout_n)
    if kind == "rt0":
        expected_row0[:] = owner_sign
    else:
        expected_row0[0::2] = owner_sign
    assert np.abs(rhs[:layout_n] - expected_row0).max() < 1e-13
    assert not np.any(rhs[layout_n:])


def test_dirichlet_rhs_edge_resolution_insensitive_for_smooth_data():
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "rt0")
    prob = get_problem("p2")
    lmesh = prob.initial_mesh()
    lspace = build_space(lmesh, "rt0")
    r3 = assemble_dirichlet_rhs(prob, lmesh, lspace, edge_points=3)
    r8 = assemble_dirichlet_rhs(prob, lmesh, lspace, edge_points=8)
    assert np.all(np.isfinite(r3)) and np.all(np.isfinite(r8))
    assert np.abs(r3 - r8).max() < 5e-3
    # smooth data on the square: already converged at 3 points
    p1 = get_problem("p1")
    s3 = assemble_dirichlet_rhs(p1, mesh, space, edge_points=3)
    s8 = assemble_dirichlet_rhs(p1, mesh, space, edge_points=8)
    assert np.abs(s3 - s8).max() < 1e-5


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
    **{f"p1-bdm1-level{k}": ("p1", "bdm1", lambda k=k: make_square_piecewise_uniform(k)) for k in range(3)},
    "p2-adaptive": ("p2", "rt0", _adapted("p2", 4)),
    "p3-adaptive": ("p3", "rt0", _adapted("p3", 3)),
    "net-flux": ("leaky", "rt0", lambda: make_square_piecewise_uniform(1)),
}


@pytest.mark.filterwarnings("ignore:boundary data for 'leaky'")
@pytest.mark.parametrize("name", list(BORDERED_CASES))
def test_solve_matches_factoring_the_bordered_matrix(name):
    # The oracle factors the whole bordered matrix, dense trace-mean row
    # and column included.
    problem_name, kind, make_mesh = BORDERED_CASES[name]
    problem = leaky_problem() if problem_name == "leaky" else get_problem(problem_name)
    mesh = make_mesh()
    sol = solve_oseen(problem, mesh, kind=kind)
    system = assemble(problem, mesh, build_space(mesh, kind))
    x, _ = lu_solve(system.matrix, system.rhs)
    lay = system.layout
    sigma = PseudostressField(space=system.space, coeffs=np.stack([x[lay.sigma_rows(0)], x[lay.sigma_rows(1)]]))
    sigma = apply_trace_correction(sigma).coeffs
    u = np.stack([x[lay.u_rows(0)], x[lay.u_rows(1)]])
    lam = x[lay.multiplier]
    assert np.abs(sol.sigma.coeffs - sigma).max() <= 1e-9 * np.abs(sigma).max()
    assert np.abs(sol.u.coeffs - u).max() <= 1e-9 * np.abs(u).max()
    # for compatible data lam is round-off, so it is held to the solution's scale
    assert abs(sol.multiplier - lam) <= 1e-9 * max(abs(lam), np.abs(x).max())
    if problem_name == "leaky":
        # lam = (net flux) / (2 |Omega|)
        assert lam == pytest.approx(0.5, rel=1e-12)
    # the reported residual is that of the bordered system
    solved = np.concatenate([sol.sigma.coeffs.ravel(), sol.u.coeffs.ravel(), [sol.multiplier]])
    a = system.matrix.to_scipy()
    assert np.linalg.norm(a @ solved - system.rhs) <= 1e-9 * np.linalg.norm(system.rhs)
    assert sol.residual <= 1e-9


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
    proj = project_velocity(mesh, prob.exact_u)
    assert supercloseness(interp, sol.sigma) < 1e-12
    assert supercloseness(proj, sol.u) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_solved_pseudostress_has_zero_trace_mean(kind):
    mesh = make_square_piecewise_uniform(1)
    sol = solve_oseen(get_problem("p1"), mesh, kind=kind)
    assert sol.sigma.trace_mean_corrected
    scale = float(np.abs(sol.sigma.coeffs).max())
    assert abs(trace_mean(sol.sigma)) < 1e-9 * max(scale, 1.0)
    assert sol.residual <= 1e-9
    assert sol.ndofs == sol.sigma.space.n_dofs_per_row * 2 + 2 * mesh.nt + 1
