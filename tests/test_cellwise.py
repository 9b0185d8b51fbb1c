"""The cellwise-linear field type against quadrature and basis oracles.

Every discrete field converts to :class:`CellwiseLinear`; these tests hold
its evaluation, cell means and exact norms, and the norms built on them
(supercloseness, trace mean, refinement indicators), to the quadrature
and basis-function evaluations they replaced.
"""

import dataclasses

import numpy as np
import pytest

from oseenstress import postprocess
from oseenstress.adaptive import compute_indicators
from oseenstress.assembly import solve_oseen
from oseenstress.errors import supercloseness
from oseenstress.mesh import make_lshape_mesh, make_square_piecewise_uniform, refine_marked
from oseenstress.postprocess import RecoveredTensorField, postprocess_velocity, recover_pseudostress
from oseenstress.problems import get_problem
from oseenstress.quadrature import triangle_rule
from oseenstress.spaces import CellwiseLinear, PseudostressField, VelocityField, build_space, trace_mean

KINDS = ["rt0", "bdm1"]


def graded_lshape():
    """An L-shape with red and green children, so no two cells are alike."""
    mesh = make_lshape_mesh()
    for _ in range(2):
        corner = np.argsort(np.linalg.norm(mesh.tri_centroids(), axis=1))[:3]
        mesh = refine_marked(mesh, corner)
    return mesh


def quadrature_points(mesh, degree):
    rule = triangle_rule(degree)
    tris = np.arange(mesh.nt)
    return rule, tris, mesh.map_ref_points(rule.points, tris)


def quadrature_sq_norms(field, degree=4):
    """Per-element squared L2 norms by a rule exact for quadratics."""
    mesh = field.mesh
    rule, tris, pts = quadrature_points(mesh, degree)
    vals = field.cellwise().eval_cells(tris, pts)
    sq = np.sum(vals.reshape(vals.shape[:2] + (-1,)) ** 2, axis=2)
    return mesh.tri_areas() * (sq @ rule.weights)


def basis_eval(field: PseudostressField, tris, pts):
    """Tensor values as a sum over the basis functions of the space."""
    basis = CellwiseLinear(field.mesh, field.space.basis_coeff).eval_cells(tris, pts)  # (m, nq, nl, 2)
    w = field.coeffs[:, field.space.dof_map[tris]]  # (2, m, nl)
    return np.einsum("rtj,tqjc->tqrc", w, basis)


def barycentric_eval(field: RecoveredTensorField, tris, pts):
    """Barycentric interpolation of the vertex values."""
    mesh = field.mesh
    v = mesh.vertices[mesh.triangles[tris]]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = pts - v[:, 0][:, None, :]
    lam1 = (rel[..., 0] * d2[:, None, 1] - rel[..., 1] * d2[:, None, 0]) / det[:, None]
    lam2 = (d1[:, None, 0] * rel[..., 1] - d1[:, None, 1] * rel[..., 0]) / det[:, None]
    lam = np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=2)
    return np.einsum("tqk,tkrc->tqrc", lam, field.values[mesh.triangles[tris]])


def random_pseudostress(mesh, kind, seed):
    space = build_space(mesh, kind)
    rng = np.random.default_rng(seed)
    return PseudostressField(space=space, coeffs=rng.standard_normal((2, space.n_dofs_per_row)))


def random_recovered(mesh, seed):
    rng = np.random.default_rng(seed)
    return RecoveredTensorField(mesh=mesh, values=rng.standard_normal((mesh.nv, 2, 2)))


def assert_close(a, b, rtol):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


@pytest.mark.parametrize("kind", KINDS)
def test_pseudostress_cellwise_matches_basis_evaluation(kind):
    mesh = graded_lshape()
    field = random_pseudostress(mesh, kind, seed=1)
    _, tris, pts = quadrature_points(mesh, 6)
    assert_close(field.cellwise().eval_cells(tris, pts), basis_eval(field, tris, pts), 1e-13)


def test_recovered_cellwise_matches_barycentric_interpolation():
    mesh = graded_lshape()
    field = random_recovered(mesh, seed=2)
    _, tris, pts = quadrature_points(mesh, 6)
    assert_close(field.cellwise().eval_cells(tris, pts), barycentric_eval(field, tris, pts), 1e-13)
    # at the vertices the interpolant takes the vertex values
    corners = mesh.vertices[mesh.triangles]
    vals = field.cellwise().eval_cells(tris, corners)
    assert_close(vals, field.values[mesh.triangles], 1e-13)


def test_velocity_cellwise_is_constant_and_exact():
    mesh = graded_lshape()
    coeffs = np.random.default_rng(3).standard_normal((2, mesh.nt))
    cw = VelocityField(mesh=mesh, coeffs=coeffs).cellwise()
    _, tris, pts = quadrature_points(mesh, 4)
    vals = cw.eval_cells(tris, pts)
    assert np.array_equal(vals, np.broadcast_to(coeffs.T[:, None, :], vals.shape))
    assert np.array_equal(cw.cell_means(), coeffs)
    assert cw.cellwise() is cw


def test_pseudostress_cellwise_is_computed_once_and_cannot_go_stale():
    mesh = graded_lshape()
    space = build_space(mesh, "rt0")
    coeffs = np.random.default_rng(14).standard_normal((2, space.n_dofs_per_row))
    field = PseudostressField(space=space, coeffs=coeffs)
    cw = field.cellwise()
    assert field.cellwise() is cw
    with pytest.raises(ValueError, match="read-only"):
        field.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cw.coeffs[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.coeffs = np.zeros_like(coeffs)
    # the field holds its own copy: writing the caller's array changes nothing
    before = cw.coeffs.copy()
    coeffs[:] = 0.0
    assert np.array_equal(field.cellwise().coeffs, before)


def test_recovered_cellwise_is_computed_once_and_cannot_go_stale(monkeypatch):
    mesh = graded_lshape()
    sigma_h = random_pseudostress(mesh, "rt0", seed=15)
    conversions = []

    def counting(*args):
        conversions.append(args)
        return CellwiseLinear(*args)

    # recovery converts its result to cellwise form only when asked, once
    monkeypatch.setattr(postprocess, "CellwiseLinear", counting)
    field = recover_pseudostress(sigma_h)
    assert not conversions
    cw = field.cellwise()
    assert field.cellwise() is cw
    assert len(conversions) == 1
    with pytest.raises(ValueError, match="read-only"):
        field.values[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cw.coeffs[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.values = np.zeros_like(field.values)
    # the field holds its own copy: writing the caller's array changes nothing
    values = np.random.default_rng(16).standard_normal((mesh.nv, 2, 2))
    other = RecoveredTensorField(mesh=mesh, values=values)
    before = other.cellwise().coeffs.copy()
    values[:] = 0.0
    assert np.array_equal(other.cellwise().coeffs, before)


def test_cell_means_are_centroid_values():
    mesh = graded_lshape()
    cw = random_pseudostress(mesh, "bdm1", seed=4).cellwise()
    means = cw.cell_means()
    assert means.shape == (2, 2, mesh.nt)
    at_centroid = cw.eval_cells(np.arange(mesh.nt), mesh.tri_centroids()[:, None, :])[:, 0]
    assert_close(np.moveaxis(means, -1, 0), at_centroid, 1e-14)


@pytest.mark.parametrize(
    "make_field",
    [
        lambda mesh: random_pseudostress(mesh, "rt0", 5),
        lambda mesh: random_pseudostress(mesh, "bdm1", 6),
        lambda mesh: random_recovered(mesh, 7),
        lambda mesh: VelocityField(mesh=mesh, coeffs=np.random.default_rng(8).standard_normal((2, mesh.nt))),
        lambda mesh: CellwiseLinear(mesh, np.random.default_rng(9).standard_normal((mesh.nt, 2, 3))),
    ],
    ids=["rt0", "bdm1", "recovered", "velocity", "vector"],
)
def test_sq_norms_match_exact_quadrature(make_field):
    mesh = graded_lshape()
    field = make_field(mesh)
    assert_close(field.cellwise().sq_norms(), quadrature_sq_norms(field), 1e-13)


def test_inner_products_match_exact_quadrature():
    # every cross product a_i b_j of a tensor and a vector field, so a
    # wrong factor on the mixed gradient terms cannot cancel
    mesh = graded_lshape()
    rng = np.random.default_rng(10)
    a = CellwiseLinear(mesh, rng.standard_normal((mesh.nt, 2, 2, 3)))
    b = CellwiseLinear(mesh, rng.standard_normal((mesh.nt, 2, 3)))
    rule, tris, pts = quadrature_points(mesh, 6)
    va = a.eval_cells(tris, pts).reshape(mesh.nt, len(rule.weights), 4)
    vb = b.eval_cells(tris, pts)
    expected = mesh.tri_areas()[:, None, None] * np.einsum("q,tqi,tqj->tij", rule.weights, va, vb)
    got = a.inner(b)
    assert got.shape == (mesh.nt, 4, 2)
    assert_close(got, expected, 1e-13)
    assert_close(b.inner(a), expected.transpose(0, 2, 1), 1e-13)
    # the diagonal of a field with itself is its squared norm
    assert_close(np.trace(a.inner(a), axis1=1, axis2=2), a.sq_norms(), 1e-13)
    other = make_lshape_mesh()
    with pytest.raises(ValueError, match="different meshes"):
        a.inner(CellwiseLinear(other, np.zeros((other.nt, 3))))


def test_sq_norm_of_the_coordinate_function():
    # The field x on every cell; a degree-2 rule integrates x^2 exactly.
    mesh = make_square_piecewise_uniform()
    coeffs = np.zeros((mesh.nt, 3))
    centroids = mesh.tri_centroids()
    coeffs[:, 0] = centroids[:, 0]  # x = cx + (x - cx)
    coeffs[:, 1] = 1.0
    norms = CellwiseLinear(mesh, coeffs).sq_norms()
    rule, _, pts = quadrature_points(mesh, 2)
    assert_close(norms, mesh.tri_areas() * ((pts[..., 0] ** 2) @ rule.weights), 1e-14)


def test_difference_rejects_different_meshes():
    a = VelocityField(mesh=make_square_piecewise_uniform(), coeffs=np.zeros((2, 19))).cellwise()
    fine = make_square_piecewise_uniform(1)
    b = VelocityField(mesh=fine, coeffs=np.zeros((2, fine.nt))).cellwise()
    with pytest.raises(ValueError, match="different meshes"):
        a - b


@pytest.mark.parametrize("kind", KINDS)
def test_supercloseness_matches_quadrature(kind):
    mesh = graded_lshape()
    a = random_pseudostress(mesh, kind, seed=10)
    b = PseudostressField(space=a.space, coeffs=np.random.default_rng(11).standard_normal(a.coeffs.shape))
    diff = PseudostressField(space=a.space, coeffs=a.coeffs - b.coeffs)
    oracle = float(np.sqrt(np.sum(quadrature_sq_norms(diff))))
    assert supercloseness(a, b) == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("make_field", [lambda m: random_pseudostress(m, "bdm1", 12), lambda m: random_recovered(m, 13)])
def test_trace_mean_matches_quadrature(make_field):
    mesh = graded_lshape()
    field = make_field(mesh)
    rule, tris, pts = quadrature_points(mesh, 2)
    vals = field.cellwise().eval_cells(tris, pts)
    area = mesh.tri_areas()
    oracle = np.sum(area * ((vals[..., 0, 0] + vals[..., 1, 1]) @ rule.weights)) / area.sum()
    assert trace_mean(field) == pytest.approx(oracle, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_indicators_match_quadrature(name):
    mesh = get_problem(name).initial_mesh()
    sol = solve_oseen(get_problem(name), mesh, kind="rt0")
    ustar = postprocess_velocity(sol.sigma, sol.u)
    sigmastar = recover_pseudostress(sol.sigma)
    rule, tris, pts = quadrature_points(mesh, 4)
    ds = sigmastar.cellwise().eval_cells(tris, pts) - basis_eval(sol.sigma, tris, pts)
    du = ustar.eval_cells(tris, pts) - sol.u.cellwise().eval_cells(tris, pts)
    sq = np.sum(ds.reshape(ds.shape[:2] + (-1,)) ** 2, axis=2) + np.sum(du**2, axis=2)
    oracle = np.sqrt(mesh.tri_areas() * (sq @ rule.weights))
    assert_close(compute_indicators(sol.sigma, sigmastar, sol.u, ustar).eta, oracle, 1e-12)
