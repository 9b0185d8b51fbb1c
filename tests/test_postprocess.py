"""Velocity lift and pseudostress patch recovery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import eval_cells, map_ref_points, two_triangle_square
from recovery_oracle import recover_pseudostress as loop_recover_pseudostress
from test_refine import MARK_ROUNDS, START_MESHES, START_NAMES

from oseenstress import postprocess
from oseenstress.adaptive import adaptive_solve
from oseenstress.errors import l2_error
from oseenstress.mesh import build_mesh, make_lshape_mesh, make_square_piecewise_uniform, refine_marked
from oseenstress.postprocess import _fit_linear, _patch_fits, postprocess_velocity, recover_pseudostress
from oseenstress.problems import get_problem
from oseenstress.assembly import solve_oseen
from oseenstress.quadrature import triangle_rule
from oseenstress.spaces import (
    CellwiseLinear,
    PseudostressField,
    VelocityField,
    build_space,
    interpolate_pseudostress,
    project_exact,
    project_velocity,
    trace_mean,
)


@pytest.fixture(scope="module")
def p1_solution():
    mesh = make_square_piecewise_uniform(1)
    return solve_oseen(get_problem("p1"), mesh, kind="rt0")


# ----------------------------------------------------------------------
# velocity lift
# ----------------------------------------------------------------------


def test_lift_preserves_cell_means(p1_solution):
    ustar = postprocess_velocity(p1_solution.sigma, p1_solution.u)
    assert np.abs(ustar.cell_means() - p1_solution.u.coeffs).max() < 1e-12


def test_lift_reproduces_affine_divergence_free_velocity():
    # u = (1 + 2x - 3y, 4 - 5x - 2y) has constant trace-free gradient, so
    # the canonical interpolant/projection pair carries exact data and the
    # local lift must reproduce u itself.
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")
    grad = np.array([[2.0, -3.0], [-5.0, -2.0]])

    def u(x):
        base = np.array([1.0, 4.0])
        return base + np.einsum("rc,...c->...r", grad, x)

    sigma_h = interpolate_pseudostress(
        space, lambda x: np.broadcast_to(grad, x.shape[:-1] + (2, 2)).copy()
    )
    u_h = project_velocity(project_exact(mesh, u))
    ustar = postprocess_velocity(sigma_h, u_h)
    rule = triangle_rule(2)
    tris = np.arange(mesh.nt)
    pts = map_ref_points(mesh, rule.points, tris)
    assert np.abs(eval_cells(ustar, tris, pts) - u(pts)).max() < 1e-12


def lift_by_local_solves(sigma_h, u_h):
    """The lift as 6x6 local systems (two means, four gradient moments)."""
    mesh = u_h.mesh
    nt = mesh.nt
    area = mesh.tri_areas()
    rule = triangle_rule(2)
    tris = np.arange(nt)
    pts = map_ref_points(mesh, rule.points, tris)
    dx = pts - mesh.tri_centroids()[:, None, :]
    mono = np.concatenate([np.ones(dx.shape[:2] + (1,)), dx], axis=2)
    mono_int = area[:, None] * np.einsum("q,tqm->tm", rule.weights, mono)
    basis = eval_cells(CellwiseLinear(mesh, sigma_h.space.bases()[0]), tris, pts)
    sig = np.einsum("rtj,tqjc->tqrc", sigma_h.coeffs[:, sigma_h.space.dof_map], basis)
    sig_int = area[:, None, None] * np.einsum("q,tqrc->trc", rule.weights, sig)
    p_int = -0.5 * (sig_int[:, 0, 0] + sig_int[:, 1, 1])
    mat = np.zeros((nt, 6, 6))
    rhs = np.zeros((nt, 6))
    mat[:, 0, 0:3] = mono_int
    mat[:, 1, 3:6] = mono_int
    rhs[:, 0] = area * u_h.coeffs[0]
    rhs[:, 1] = area * u_h.coeffs[1]
    for row, (r, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)), start=2):
        mat[:, row, 3 * r + 1 + c] = area
        rhs[:, row] = sig_int[:, r, c] + (p_int if r == c else 0.0)
    return np.linalg.solve(mat, rhs[:, :, None])[:, :, 0].reshape(nt, 2, 3)


@pytest.mark.parametrize(
    "name, kind, make_mesh",
    [
        ("p1", "rt0", lambda: make_square_piecewise_uniform(2)),
        ("p1", "bdm1", lambda: make_square_piecewise_uniform(1)),
        ("p3", "rt0", lambda: adaptive_solve(get_problem("p3"), max_iters=2).final_mesh),
    ],
    ids=["p1-rt0", "p1-bdm1", "p3-adaptive"],
)
def test_closed_form_lift_matches_local_solves(name, kind, make_mesh):
    sol = solve_oseen(get_problem(name), make_mesh(), kind=kind)
    want = lift_by_local_solves(sol.sigma, sol.u)
    got = postprocess_velocity(sol.sigma, sol.u).coeffs
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_lift_rejects_mismatched_meshes(p1_solution):
    other = make_square_piecewise_uniform()
    u_other = VelocityField(mesh=other, coeffs=np.zeros((2, other.nt)))
    with pytest.raises(ValueError, match="different meshes"):
        postprocess_velocity(p1_solution.sigma, u_other)


def test_lift_improves_on_piecewise_constant_velocity(p1_solution):
    prob = get_problem("p1")
    ustar = postprocess_velocity(p1_solution.sigma, p1_solution.u)
    exact_u = project_exact(ustar.mesh, prob.exact_u)
    err_const = l2_error(p1_solution.u, exact_u)
    err_lift = l2_error(ustar, exact_u)
    assert err_lift < 0.5 * err_const


# ----------------------------------------------------------------------
# pseudostress recovery
# ----------------------------------------------------------------------


def red_green_lshape(seed: int):
    """L-shape after three rounds of random red-green refinement."""
    rng = np.random.default_rng(seed)
    mesh = make_lshape_mesh()
    for _ in range(3):
        mesh = refine_marked(mesh, rng.choice(mesh.nt, size=max(1, mesh.nt // 4), replace=False))
    return mesh


def half_disk_fan():
    """Four triangles fanned around vertex 0, which lies on the boundary."""
    angles = np.linspace(0.0, np.pi, 5)
    rim = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    verts = np.vstack([[0.0, 0.0], rim])
    return build_mesh(verts, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]])


def flat_square(height: float):
    """The once-refined unit square squeezed to the given height."""
    mesh = make_square_piecewise_uniform(1)
    return build_mesh(mesh.vertices * [1.0, height], mesh.triangles, mesh.region)


# Between them these reach every recovery branch: interior fits and
# boundary extrapolation (all), the nearest-interior donor (the square's
# corners, the L-shape's reentrant corner), the own patch fit (the fan's
# centre) and the patch average (the fan's rim, the two-triangle square).
RECOVERY_MESHES = {
    "square-L1": lambda: make_square_piecewise_uniform(1),
    "red-green-lshape": lambda: red_green_lshape(0),
    "two-triangle-square": two_triangle_square,
    "half-disk-fan": half_disk_fan,
}


def test_fit_linear_matches_lstsq_fit_by_fit():
    # the boundary extrapolation's fit; the patch fits are checked below
    rng = np.random.default_rng(11)
    k, m = 40, 12
    rel = rng.standard_normal((k, m, 2))
    vals = rng.standard_normal((k, m, 4))
    count = rng.integers(1, m + 1, size=k)
    count[:2] = m
    rel[0, :, 1] = 2.0 * rel[0, :, 0]  # collinear: rank 2
    rel[1, :, 1] = 2.0 * rel[1, :, 0] + 1e-6 * rng.standard_normal(m)  # nearly, still rank 3
    coef, s, rank, sv = _fit_linear(rel, vals, count)
    for i in range(k):
        r = rel[i, : count[i]]
        a = np.column_stack([np.ones(count[i]), r / np.abs(r).max()])
        expected, _, expected_rank, expected_sv = np.linalg.lstsq(a, vals[i, : count[i]], rcond=None)
        assert s[i] == np.abs(r).max()
        assert rank[i] == expected_rank
        assert np.allclose(sv[i, : expected_sv.size], expected_sv, rtol=1e-12, atol=1e-14)
        assert np.allclose(coef[i], expected, rtol=1e-8, atol=1e-10)
    assert rank[0] == 2 and rank[1] == 3


def test_patch_fits_match_lstsq_on_the_samples_vertex_by_vertex():
    # each interior vertex's polynomial against np.linalg.lstsq on its 3 n
    # samples at the degree-2 rule's nodes, over {1, dx/s, dy/s} as in the
    # loop oracle
    mesh = red_green_lshape(4)
    field = _random(lambda: mesh, 12)()
    own, at_vertex, grad, average = _patch_fits(field)
    pts = map_ref_points(mesh, triangle_rule(2).points)
    samples = eval_cells(field.cellwise(), np.arange(mesh.nt), pts).reshape(mesh.nt, 3, 4)
    interior = np.setdiff1d(np.arange(mesh.nv), mesh.boundary_vertices())
    assert interior.size > 50 and own[interior].all()
    for v in interior:
        elems = np.flatnonzero((mesh.triangles == v).any(axis=1))
        rel = pts[elems].reshape(-1, 2) - mesh.vertices[v]
        s = np.abs(rel).max()
        vals = samples[elems].reshape(-1, 4)
        expected = np.linalg.lstsq(np.column_stack([np.ones(len(rel)), rel / s]), vals, rcond=None)[0]
        got = np.vstack([at_vertex[v], s * grad[v]])
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(average[v] - vals.mean(axis=0)).max() <= 1e-12 * np.abs(vals).max()


def test_recovery_makes_one_svd_call_no_taller_than_the_boundary(monkeypatch):
    # the patch fits make no LAPACK call; the boundary extrapolations are
    # one SVD of a stack of at most one fit per boundary vertex
    mesh = red_green_lshape(4)
    field = _random(lambda: mesh, 13)()
    svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    recover_pseudostress(field)
    assert len(shapes) == 1 and shapes[0][0] <= mesh.boundary_vertices().size


@pytest.mark.parametrize("name", list(RECOVERY_MESHES))
def test_recovery_preserves_constant_tensors(name):
    mesh = RECOVERY_MESHES[name]()
    space = build_space(mesh, "rt0")
    const = np.array([[0.5, -1.25], [2.0, -0.5]])  # already trace-free

    def sigma(x):
        return np.broadcast_to(const, x.shape[:-1] + (2, 2)).copy()

    field = interpolate_pseudostress(space, sigma)
    rec = recover_pseudostress(field)
    assert np.abs(rec.values - const).max() < 1e-12


def _solved(problem, mesh):
    return lambda: solve_oseen(get_problem(problem), mesh(), kind="rt0").sigma


def _random(mesh, seed):
    def make():
        space = build_space(mesh(), "rt0")
        coeffs = np.random.default_rng(seed).standard_normal((2, space.n_dofs_per_row))
        return PseudostressField(space=space, coeffs=coeffs)

    return make


ORACLE_FIELDS = {
    **{f"p1-level{k}": _solved("p1", lambda k=k: make_square_piecewise_uniform(k)) for k in range(6)},
    "p2-lshape": _solved("p2", make_lshape_mesh),
    **{f"p2-red-green-{seed}": _solved("p2", lambda seed=seed: red_green_lshape(seed)) for seed in range(3)},
    "random-square-L2": _random(lambda: make_square_piecewise_uniform(2), 5),
    "random-red-green-lshape": _random(lambda: red_green_lshape(3), 6),
    "random-two-triangle-square": _random(two_triangle_square, 7),
    "random-half-disk-fan": _random(half_disk_fan, 8),
    # squeezed 200:1, so some boundary sources sit on either side of the
    # sv_min >= 1e-3 sv_max collinearity cutoff
    "random-flat-square": _random(lambda: flat_square(0.005), 9),
}


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_recovery_matches_loop_oracle(name):
    field = ORACLE_FIELDS[name]()
    expected = loop_recover_pseudostress(field).values
    got = recover_pseudostress(field).values
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("name", ["p1-level3", "p2-red-green-0", "random-red-green-lshape"])
def test_nearest_donor_search_in_blocks_of_one_vertex_matches_one_block(name, monkeypatch):
    # with a cap of one distance, each vertex without a fit searches the
    # donors alone; the nearest, lowest index on ties, and so the recovered
    # values stay bit for bit
    field = ORACLE_FIELDS[name]()
    norm, searches = np.linalg.norm, []

    def counted(a, *args, **kwargs):
        searches.append(a.shape[0])
        return norm(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    whole = recover_pseudostress(field).values
    assert len(searches) == 1 and searches[0] >= 2
    monkeypatch.setattr(postprocess, "_DONOR_ENTRIES", 1)
    assert np.array_equal(recover_pseudostress(field).values, whole)
    assert searches[1:] == [1] * searches[0]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(start=START_NAMES, rounds=MARK_ROUNDS, seed=st.integers(0, 2**32 - 1))
def test_recovery_matches_loop_oracle_on_random_red_green_meshes(start, rounds, seed):
    mesh = START_MESHES[start]
    for picks in rounds:
        mesh = refine_marked(mesh, np.array(picks, dtype=np.int64) % mesh.nt)
    space = build_space(mesh, "rt0")
    coeffs = np.random.default_rng(seed).standard_normal((2, space.n_dofs_per_row))
    field = PseudostressField(space=space, coeffs=coeffs)
    expected = loop_recover_pseudostress(field).values
    got = recover_pseudostress(field).values
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_recovery_annihilates_identity_interpolant():
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")

    def identity(x):
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

    field = interpolate_pseudostress(space, identity)  # trace-corrected to zero
    rec = recover_pseudostress(field)
    assert np.abs(rec.values).max() < 1e-12


def test_recovery_is_linear_in_the_coefficients():
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")
    rng = np.random.default_rng(17)
    c1 = rng.standard_normal((2, space.n_dofs_per_row))
    c2 = rng.standard_normal((2, space.n_dofs_per_row))
    f1 = PseudostressField(space=space, coeffs=c1)
    f2 = PseudostressField(space=space, coeffs=c2)
    combo = PseudostressField(space=space, coeffs=0.75 * c1 - 1.5 * c2)
    r_combo = recover_pseudostress(combo)
    expected = 0.75 * recover_pseudostress(f1).values - 1.5 * recover_pseudostress(f2).values
    assert np.abs(r_combo.values - expected).max() < 1e-11


def test_recovery_is_bounded_on_random_fields():
    # Stability: the recovered vertex values must stay within a fixed
    # multiple of the input field's max magnitude (checked at element
    # corners, where a piecewise-linear field attains its extrema).
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.arange(mesh.nt)
    pts = map_ref_points(mesh, corners, tris)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal((2, space.n_dofs_per_row))
        field = PseudostressField(space=space, coeffs=coeffs)
        sup_in = float(np.abs(eval_cells(field.cellwise(), tris, pts)).max())
        sup_out = float(np.abs(recover_pseudostress(field).values).max())
        worst = max(worst, sup_out / sup_in)
    assert worst <= 15.0


def test_recovery_rejects_bdm1_fields():
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "bdm1")
    field = PseudostressField(space=space, coeffs=np.zeros((2, space.n_dofs_per_row)))
    with pytest.raises(ValueError, match="RT0"):
        recover_pseudostress(field)


def test_recovered_field_has_zero_trace_integral(p1_solution):
    rec = recover_pseudostress(p1_solution.sigma)
    scale = max(1.0, float(np.abs(rec.values).max()))
    assert abs(trace_mean(rec)) < 1e-9 * scale  # the domain has unit area


def test_recovery_beats_raw_field_on_smooth_problem(p1_solution):
    # Recovery must improve on the raw field, and the improvement factor
    # must strengthen under refinement (that is the superconvergence).
    prob = get_problem("p1")
    rec = recover_pseudostress(p1_solution.sigma)
    exact = project_exact(rec.mesh, prob.exact_sigma)
    ratio1 = l2_error(rec, exact) / l2_error(p1_solution.sigma, exact)
    assert ratio1 < 0.85
    finer = solve_oseen(prob, make_square_piecewise_uniform(2), kind="rt0")
    rec2 = recover_pseudostress(finer.sigma)
    exact = project_exact(rec2.mesh, prob.exact_sigma)
    ratio2 = l2_error(rec2, exact) / l2_error(finer.sigma, exact)
    assert ratio2 < 0.6
    assert ratio2 < ratio1
