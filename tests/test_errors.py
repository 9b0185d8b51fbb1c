"""Error norms, supercloseness distances, and convergence-order fits."""

import numpy as np
import pytest

import errors_oracle
from oseenstress import adaptive
from oseenstress.assembly import solve_oseen
from oseenstress.errors import (
    ErrorRow,
    fit_order,
    fit_orders,
    hdiv_error,
    l2_error,
    supercloseness,
)
from oseenstress.mesh import make_lshape_mesh, make_square_piecewise_uniform, uniform_quad_refine
from oseenstress.postprocess import postprocess_velocity, recover_pseudostress
from oseenstress.problems import get_problem
from oseenstress.spaces import (
    CellwiseLinear,
    PseudostressField,
    VelocityField,
    build_space,
    interpolate_pseudostress,
    project_exact,
    project_velocity,
)


def zero_velocity(mesh):
    return VelocityField(mesh=mesh, coeffs=np.zeros((2, mesh.nt)))


def zero_pseudostress(mesh, kind="rt0"):
    space = build_space(mesh, kind)
    return PseudostressField(space=space, coeffs=np.zeros((2, space.n_dofs_per_row)))


def test_l2_error_against_analytic_norm():
    # For the zero field the error is the analytic norm of the exact
    # velocity, which integrates to exactly one for this data.
    prob = get_problem("p1")
    coarse = make_square_piecewise_uniform()
    fine = make_square_piecewise_uniform(1)
    assert l2_error(zero_velocity(coarse), prob.exact_u) == pytest.approx(1.0, abs=1e-6)
    assert l2_error(zero_velocity(fine), prob.exact_u) == pytest.approx(1.0, abs=1e-8)


def test_l2_error_vanishes_for_represented_field():
    mesh = make_square_piecewise_uniform()
    field = VelocityField(mesh=mesh, coeffs=np.full((2, mesh.nt), 2.5))
    exact = lambda x: np.broadcast_to([2.5, 2.5], x.shape).copy()
    assert l2_error(field, exact) < 1e-14


def test_l2_error_rejects_wrong_exact_shape():
    mesh = make_square_piecewise_uniform()
    with pytest.raises(ValueError, match="shape"):
        l2_error(zero_velocity(mesh), lambda x: x[..., 0])


def test_corner_graded_quadrature_is_monotone_in_depth():
    # Near-corner integrands of singular problems are underestimated by a
    # fixed-order rule; geometric subdivision toward the corner must
    # strictly increase (and converge) the measured norm.
    prob = get_problem("p2")
    mesh = make_lshape_mesh()
    field = zero_pseudostress(mesh)
    plain = l2_error(field, prob.exact_sigma)
    depth1 = l2_error(field, prob.exact_sigma, singular_corner=(0.0, 0.0), corner_depth=1)
    depth3 = l2_error(field, prob.exact_sigma, singular_corner=(0.0, 0.0), corner_depth=3)
    assert plain < depth1 < depth3
    assert depth3 - plain > 5e-4


def test_corner_grading_ignores_missing_corner():
    # A corner that is not a mesh vertex changes nothing.
    prob = get_problem("p1")
    mesh = make_square_piecewise_uniform()
    field = zero_velocity(mesh)
    a = l2_error(field, prob.exact_u)
    b = l2_error(field, prob.exact_u, singular_corner=(10.0, 10.0))
    assert a == b


def level_fields(problem, mesh, kind):
    """The six fields of one convergence level, with the exact field each is measured against."""
    solution = solve_oseen(problem, mesh, kind=kind)
    space = solution.sigma.space
    fields = {
        "u_h": (solution.u, problem.exact_u),
        "u*": (postprocess_velocity(solution.sigma, solution.u), problem.exact_u),
        "P_h u": (project_velocity(mesh, problem.exact_u), problem.exact_u),
        "sigma_h": (solution.sigma, problem.exact_sigma),
        "Pi_h sigma": (interpolate_pseudostress(space, problem.exact_sigma), problem.exact_sigma),
    }
    if kind == "rt0":
        fields["sigma*"] = (recover_pseudostress(solution.sigma), problem.exact_sigma)
    return fields


@pytest.mark.parametrize("name,kind,levels", [("p1", "rt0", 4), ("p1", "bdm1", 3), ("p2", "rt0", 4)])
def test_l2_error_matches_the_quadrature_oracle(name, kind, levels):
    # p2 has a singular corner, so its cells there are subdivided
    problem = get_problem(name)
    corner = problem.singular_corner
    mesh = problem.initial_mesh()
    for level in range(levels):
        if level > 0:
            mesh = uniform_quad_refine(mesh)
        projections = {
            problem.exact_u: project_exact(mesh, problem.exact_u, singular_corner=corner),
            problem.exact_sigma: project_exact(mesh, problem.exact_sigma, singular_corner=corner),
        }
        for field, exact in level_fields(problem, mesh, kind).values():
            expected = errors_oracle.l2_error(field, exact, singular_corner=corner)
            assert l2_error(field, exact, singular_corner=corner) == pytest.approx(expected, rel=1e-12)
            assert l2_error(field, projections[exact]) == pytest.approx(expected, rel=1e-12)


def test_adaptive_true_errors_match_the_quadrature_oracle(monkeypatch):
    calls = []

    def checked(field, exact, **kwargs):
        got = l2_error(field, exact, **kwargs)
        assert got == pytest.approx(errors_oracle.l2_error(field, exact, **kwargs), rel=1e-12)
        calls.append(got)
        return got

    monkeypatch.setattr(adaptive, "l2_error", checked)
    history = adaptive.adaptive_solve(get_problem("p2"), max_iters=3)
    assert history.niter == 4
    assert len(calls) == 8  # sigma and u on every mesh


def test_projection_reproduces_linear_fields_with_corner_subdivision():
    # sigma(x) = A + B x: the projection is exact and leaves no residual,
    # also on the subdivided cells at the corner
    mesh = make_lshape_mesh()
    coef = np.random.default_rng(21).standard_normal((3, 2, 2))

    def linear(x):
        return coef[0] + x[..., 0, None, None] * coef[1] + x[..., 1, None, None] * coef[2]

    proj = project_exact(mesh, linear, singular_corner=(0.0, 0.0), corner_depth=2)
    c = mesh.tri_centroids()
    expected = np.stack([linear(c), np.broadcast_to(coef[1], (mesh.nt, 2, 2)), np.broadcast_to(coef[2], (mesh.nt, 2, 2))], axis=-1)
    assert np.abs(proj.field.coeffs - expected).max() < 1e-13
    assert proj.rest < 1e-28


def test_l2_error_rejects_a_projection_on_another_mesh():
    prob = get_problem("p1")
    mesh = make_square_piecewise_uniform()
    twin = make_square_piecewise_uniform()  # equal arrays, another mesh
    with pytest.raises(ValueError, match="another mesh"):
        l2_error(zero_velocity(mesh), project_exact(twin, prob.exact_u))
    with pytest.raises(ValueError, match="shape"):
        l2_error(zero_velocity(mesh), project_exact(mesh, prob.exact_sigma))
    assert l2_error(zero_velocity(mesh), project_exact(mesh, prob.exact_u)) == l2_error(zero_velocity(mesh), prob.exact_u)


def test_hdiv_error_against_analytic_norm():
    prob = get_problem("p1")
    mesh = make_square_piecewise_uniform(1)
    field = zero_pseudostress(mesh)
    exact = float(np.sqrt(4.0 * np.pi**4 + 2.0))
    assert hdiv_error(field, prob.exact_div_sigma) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("kind", ["rt0", "bdm1"])
def test_hdiv_error_matches_the_quadrature_oracle(kind):
    # the divergence of the solved field, constant per cell, measured by
    # direct degree-6 quadrature
    prob = get_problem("p1")
    mesh = make_square_piecewise_uniform(2)
    sigma_h = solve_oseen(prob, mesh, kind=kind).sigma
    coeffs = np.zeros((mesh.nt, 2, 3))
    coeffs[:, :, 0] = sigma_h.div_cells()
    expected = errors_oracle.l2_error(CellwiseLinear(mesh, coeffs), prob.exact_div_sigma)
    assert hdiv_error(sigma_h, prob.exact_div_sigma) == pytest.approx(expected, rel=1e-12)


def test_hdiv_error_rejects_wrong_exact_shape():
    mesh = make_square_piecewise_uniform()
    with pytest.raises(ValueError, match="shape"):
        hdiv_error(zero_pseudostress(mesh), lambda x: x[..., 0])
    with pytest.raises(ValueError, match="shape"):
        hdiv_error(zero_pseudostress(mesh), lambda x: np.zeros(x.shape + (2,)))


def test_supercloseness_exact_norm_and_homogeneity():
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "rt0")
    rng = np.random.default_rng(3)
    a = PseudostressField(space=space, coeffs=rng.standard_normal((2, space.n_dofs_per_row)))
    b = PseudostressField(space=space, coeffs=rng.standard_normal((2, space.n_dofs_per_row)))
    d = supercloseness(a, b)
    a2 = PseudostressField(space=space, coeffs=2.0 * a.coeffs)
    b2 = PseudostressField(space=space, coeffs=2.0 * b.coeffs)
    assert supercloseness(a2, b2) == 2.0 * d
    # velocity variant: closed form sqrt(sum area * |da|^2)
    ua = VelocityField(mesh=mesh, coeffs=np.ones((2, mesh.nt)))
    ub = VelocityField(mesh=mesh, coeffs=np.zeros((2, mesh.nt)))
    assert supercloseness(ua, ub) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_supercloseness_rejects_mismatched_inputs():
    mesh = make_square_piecewise_uniform()
    other = make_square_piecewise_uniform(1)
    with pytest.raises(ValueError, match="different meshes"):
        supercloseness(zero_velocity(mesh), zero_velocity(other))
    with pytest.raises(ValueError, match="different spaces"):
        supercloseness(zero_pseudostress(mesh), zero_pseudostress(mesh))
    with pytest.raises(TypeError):
        supercloseness(zero_velocity(mesh), zero_pseudostress(mesh))


def test_fit_order_recovers_exact_power_law():
    nts = np.array([19 * 4**k for k in range(6)], dtype=float)
    h = nts**-0.5
    errs = 3.7 * h**1.5
    assert fit_order(nts, errs) == pytest.approx(1.5, abs=1e-10)
    # The coarsest level is excluded: corrupting it must not change the fit.
    errs_bad = errs.copy()
    errs_bad[0] *= 100.0
    assert fit_order(nts, errs_bad) == pytest.approx(1.5, abs=1e-10)


def test_fit_order_degenerate_inputs():
    assert np.isnan(fit_order([19, 76], [1.0, 0.5]))
    assert np.isnan(fit_order([19, 76, 304], [1.0, 0.5, 0.0]))
    with pytest.raises(ValueError):
        fit_order([19, 76, 304], [1.0, 0.5])


def make_row(level, nt, err, with_star):
    return ErrorRow(
        level=level,
        nt=nt,
        ndofs=3 * nt,
        err_u=err,
        err_eh=err**2,
        err_ustar=err**2,
        err_sigma=err,
        err_xih=err**2,
        err_sigmastar=(err**2 if with_star else None),
        err_div=err,
        err_rho=err,
        err_zeta=err,
    )


def test_fit_orders_requires_three_rows_and_skips_missing_columns():
    rows = []
    for level in range(4):
        nt = 19 * 4**level
        h = nt**-0.5
        rows.append(make_row(level, nt, 2.0 * h, with_star=(level != 2)))
    with pytest.raises(ValueError):
        fit_orders(rows[:2])
    orders = fit_orders(rows)
    assert "err_sigmastar" not in orders  # None in one row -> skipped
    assert orders["err_u"] == pytest.approx(1.0, abs=1e-10)
    assert orders["err_eh"] == pytest.approx(2.0, abs=1e-10)
