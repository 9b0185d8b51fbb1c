"""Benchmark problem data: internal consistency of the closed forms."""

import dataclasses

import numpy as np
import pytest

from oseenstress import problems
from oseenstress.mesh import make_lshape_mesh, make_square_piecewise_uniform
from oseenstress.problems import (
    get_problem,
    problem_names,
    spot_check_boundary_data,
)
from oseenstress.spaces import apply_deviatoric


def fd_gradient(u, pts, h=1e-5):
    """Central-difference velocity gradient, (n, 2, 2): grad[i,j] = du_i/dx_j."""
    cols = []
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = h
        cols.append((u(pts + dp) - u(pts - dp)) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_tensor_divergence(sigma, pts, h=1e-5):
    """Central-difference row divergence of a tensor field, (n, 2)."""
    dx = np.zeros(2)
    dx[0] = h
    dy = np.zeros(2)
    dy[1] = h
    d0 = (sigma(pts + dx) - sigma(pts - dx))[:, :, 0] / (2 * h)
    d1 = (sigma(pts + dy) - sigma(pts - dy))[:, :, 1] / (2 * h)
    return d0 + d1


def sample_points(name, n=200, seed=11):
    rng = np.random.default_rng(seed)
    if name == "p1":
        return 0.02 + 0.96 * rng.random((n, 2))
    # L-shaped domain: polar sector of angle 3*pi/2, kept away from the
    # singular corner and from the two edges meeting there.
    r = 0.2 + 0.7 * rng.random(n)
    t = 0.05 + (1.5 * np.pi - 0.1) * rng.random(n)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


def test_registry_contents():
    assert problem_names() == ["p1", "p2", "p3"]
    with pytest.raises(KeyError):
        get_problem("p9")


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_a_problem_is_one_frozen_spec(name):
    prob = get_problem(name)
    assert get_problem(name) is prob
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.default_theta = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.g = prob.f
    variant = dataclasses.replace(prob, default_theta=0.5)
    assert variant.default_theta == 0.5 and get_problem(name).default_theta == prob.default_theta


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_constant_fields_keep_their_values_bit_for_bit(shape):
    # the oracle of each constant field: its values built without _constant, as np.zeros, a broadcast or a fill
    x = np.random.default_rng(5).random(shape + (2,))
    p1, p2, p3 = (get_problem(name) for name in ("p1", "p2", "p3"))
    old_div = np.empty(x.shape[:-1] + (2,))
    old_div[...] = -1.0
    for got, want in [
        *((prob.c(x), np.zeros(x.shape[:-1])) for prob in (p1, p2, p3)),
        (p2.b(x), np.broadcast_to(np.array([1.0, 2.0]), x.shape).copy()),
        (p3.b(x), np.broadcast_to(np.array([500.0, 1.0]), x.shape).copy()),
        (p3.g(x), np.zeros(x.shape)),
        (p2.exact_div_sigma(x), old_div),
    ]:
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.writeable
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_closed_forms_are_mutually_consistent(name):
    # The bundled sigma, f and div(sigma) must all follow from u and the
    # coefficients; verified against central finite differences.
    prob = get_problem(name)
    pts = sample_points(name)
    u = prob.exact_u(pts)
    sigma = prob.exact_sigma(pts)
    grad = fd_gradient(prob.exact_u, pts)

    # incompressibility: div u = 0
    div_u = grad[:, 0, 0] + grad[:, 1, 1]
    assert np.abs(div_u).max() < 1e-8

    # pseudostress = grad(u) - p I: the pressure sits in the trace only,
    # so the deviatoric parts must agree.
    assert np.abs(apply_deviatoric(sigma) - apply_deviatoric(grad)).max() < 1e-8

    # momentum equation: f = -div(sigma) + (grad u) b + c u
    rhs = (
        -fd_tensor_divergence(prob.exact_sigma, pts)
        + np.einsum("nij,nj->ni", grad, prob.b(pts))
        + prob.c(pts)[:, None] * u
    )
    f = prob.f(pts)
    scale = max(1.0, float(np.abs(f).max()))
    assert np.abs(f - rhs).max() / scale < 1e-5

    # the tabulated divergence matches f - (grad u) b - c u sign-flipped
    if prob.exact_div_sigma is not None:
        ident = (
            prob.f(pts)
            + prob.exact_div_sigma(pts)
            - np.einsum("nij,nj->ni", grad, prob.b(pts))
            - prob.c(pts)[:, None] * u
        )
        assert np.abs(ident).max() / scale < 1e-8


def test_p2_velocity_magnitude_follows_corner_power_law():
    prob = get_problem("p2")
    t = 0.7
    for r in (0.01, 0.1, 0.5):
        pts = np.array([[r * np.cos(t), r * np.sin(t)]])
        mag = np.linalg.norm(prob.exact_u(pts)[0])
        assert mag == pytest.approx(r ** (2.0 / 3.0), rel=1e-12)


def boundary_points(mesh):
    """Three points on every boundary edge."""
    return mesh.edge_points(np.array([0.1, 0.5, 0.8]), mesh.boundary_edges)


def spot_check(problem, mesh):
    pts = boundary_points(mesh)
    spot_check_boundary_data(problem, pts, problem.g(pts))


def test_boundary_data_matches_exact_velocity():
    spot_check(get_problem("p1"), make_square_piecewise_uniform())
    spot_check(get_problem("p2"), make_lshape_mesh())


def test_boundary_spot_check_rejects_mismatched_data():
    prob = get_problem("p1")
    bad = problems.ProblemSpec(
        name="bad",
        b=prob.b,
        c=prob.c,
        f=prob.f,
        g=lambda x: prob.g(x) + 0.5,
        initial_mesh=prob.initial_mesh,
        exact_u=prob.exact_u,
        exact_sigma=prob.exact_sigma,
    )
    with pytest.raises(ValueError, match="boundary data"):
        spot_check(bad, make_square_piecewise_uniform())
    # no closed form -> nothing to check, must not raise, even for values of g that are off
    pts = boundary_points(make_square_piecewise_uniform())
    spot_check_boundary_data(get_problem("p3"), pts, np.ones_like(pts))


def test_p3_has_no_closed_form_and_low_default_theta():
    prob = get_problem("p3")
    assert not prob.has_exact
    assert prob.exact_u is None and prob.exact_sigma is None
    assert prob.default_theta == pytest.approx(0.3)
    # convection dominates: |b| = O(500), g = 0 on the boundary
    pts = np.array([[0.5, 0.5]])
    assert np.linalg.norm(prob.b(pts)[0]) > 100.0
    assert np.abs(prob.g(pts)).max() == 0.0
