"""H(div) spaces, canonical interpolation, and cellwise projection."""

import numpy as np
import pytest

from oseenstress.mesh import make_square_piecewise_uniform
from oseenstress.quadrature import edge_gauss_rule, triangle_rule
from oseenstress.spaces import (
    CellwiseLinear,
    PseudostressField,
    apply_deviatoric,
    apply_trace_correction,
    build_space,
    identity_coeffs,
    interpolate_pseudostress,
    project_exact,
    project_velocity,
    trace_mean,
)

KINDS = ["rt0", "bdm1"]


# ----------------------------------------------------------------------
# deviatoric operator
# ----------------------------------------------------------------------


def test_apply_deviatoric_algebra():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((40, 2, 2))
    d = apply_deviatoric(m)
    # trace-free
    assert np.abs(d[..., 0, 0] + d[..., 1, 1]).max() < 1e-14
    # idempotent
    assert np.abs(apply_deviatoric(d) - d).max() < 1e-14
    # annihilates multiples of the identity
    eye = np.broadcast_to(np.eye(2), (5, 2, 2)) * 3.7
    assert np.abs(apply_deviatoric(eye)).max() < 1e-14
    # self-adjoint in the Frobenius inner product: (dev a, b) = (a, dev b)
    a = rng.standard_normal((40, 2, 2))
    b = rng.standard_normal((40, 2, 2))
    lhs = np.einsum("nij,nij->n", apply_deviatoric(a), b)
    rhs = np.einsum("nij,nij->n", a, apply_deviatoric(b))
    assert np.abs(lhs - rhs).max() < 1e-14


def test_apply_deviatoric_rejects_bad_shape():
    with pytest.raises(ValueError):
        apply_deviatoric(np.zeros((4, 3)))


# ----------------------------------------------------------------------
# basis construction
# ----------------------------------------------------------------------


def test_build_space_rejects_unknown_kind():
    mesh = make_square_piecewise_uniform()
    with pytest.raises(ValueError):
        build_space(mesh, "p2")


@pytest.mark.parametrize("kind", KINDS)
def test_space_shapes(kind):
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    nl = 3 if kind == "rt0" else 6
    assert space.ndof_local == nl
    assert space.n_dofs_per_row == (mesh.ne if kind == "rt0" else 2 * mesh.ne)
    assert space.dof_map.shape == (mesh.nt, nl)
    assert space.basis_coeff.shape == (mesh.nt, nl, 2, 3)
    assert space.basis_div.shape == (mesh.nt, nl)


@pytest.mark.parametrize("kind", KINDS)
def test_local_basis_is_dual_to_global_edge_moments(kind):
    # Applying the defining functionals (zeroth and, for BDM1, first
    # Legendre moment of the normal flux across each global edge) to the
    # local basis of every element must give the identity matrix.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    normals = mesh.edge_normals()
    lengths = mesh.edge_lengths()
    va = mesh.vertices[mesh.edges[:, 0]]
    vb = mesh.vertices[mesh.edges[:, 1]]
    tq, wq = edge_gauss_rule(3)
    legendre = 2.0 * tq - 1.0
    moments = 1 if kind == "rt0" else 2
    nl = space.ndof_local
    basis = CellwiseLinear(mesh, space.basis_coeff)
    for t in range(mesh.nt):
        fm = np.empty((nl, nl))
        for le in range(3):
            e = int(mesh.tri_edges[t, le])
            pts = va[e] + tq[:, None] * (vb[e] - va[e])
            vals = basis.eval_cells(np.array([t]), pts[None])[0]  # (q, nl, 2)
            flux = vals @ normals[e]  # (q, nl)
            fm[moments * le] = lengths[e] * (wq @ flux)
            if moments == 2:
                fm[moments * le + 1] = lengths[e] * ((wq * legendre) @ flux)
        # Row k applies the functional of local dof k to all local basis
        # functions, so the matrix must be the identity.
        assert np.abs(fm - np.eye(nl)).max() < 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_basis_divergence_matches_net_flux(kind):
    # By the divergence theorem, the integral of div(v_j) over the element
    # equals the net outward flux: the orientation sign for zeroth-moment
    # basis functions and zero for first-moment (BDM1) ones.
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, kind)
    areas = mesh.tri_areas()
    integral = areas[:, None] * space.basis_div
    if kind == "rt0":
        expected = mesh.tri_signs.astype(float)
    else:
        expected = np.zeros_like(integral)
        expected[:, 0::2] = mesh.tri_signs
    assert np.abs(integral - expected).max() < 1e-13


# ----------------------------------------------------------------------
# canonical interpolation
# ----------------------------------------------------------------------


def smooth_sigma(x):
    row1 = np.stack([1.0 + x[..., 0], x[..., 1] ** 2], axis=-1)
    row2 = np.stack([np.sin(x[..., 0]), 2.0 - x[..., 1]], axis=-1)
    return np.stack([row1, row2], axis=-2)


@pytest.mark.parametrize("kind", KINDS)
def test_interpolation_reproduces_constant_tensors(kind):
    # The moments reproduce a constant tensor, and the trace correction
    # leaves its deviatoric part.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    const = np.array([[1.5, -0.25], [0.75, 2.0]])

    def sigma(x):
        return np.broadcast_to(const, x.shape[:-1] + (2, 2)).copy()

    rule = triangle_rule(2)
    tris = np.arange(mesh.nt)
    pts = mesh.map_ref_points(rule.points, tris)
    vals = interpolate_pseudostress(space, sigma).cellwise().eval_cells(tris, pts)
    dev = apply_deviatoric(const[None])[0]
    assert np.abs(vals - dev).max() < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_pseudostress_cell_means_are_those_of_its_cellwise_form(kind):
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, kind)
    field = PseudostressField(space=space, coeffs=np.random.default_rng(3).standard_normal((2, space.n_dofs_per_row)))
    means = field.cell_means()
    assert means.shape == (2, 2, mesh.nt)
    assert np.abs(means - field.cellwise().cell_means()).max() <= 1e-14 * np.abs(means).max()


@pytest.mark.parametrize("kind", KINDS)
def test_identity_tensor_interpolation_and_trace_mean(kind):
    # identity_coeffs represents I exactly (trace mean 2), and the
    # interpolant of I is zero once its trace mean is removed.
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)

    def identity(x):
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

    assert trace_mean(PseudostressField(space=space, coeffs=identity_coeffs(space))) == pytest.approx(2.0, abs=1e-12)
    corrected = interpolate_pseudostress(space, identity)
    assert np.abs(corrected.coeffs).max() < 1e-12
    assert abs(trace_mean(corrected)) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_interpolation_ignores_multiples_of_the_identity(kind):
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    plain = interpolate_pseudostress(space, smooth_sigma)
    shifted = interpolate_pseudostress(space, lambda x: smooth_sigma(x) + 3.7 * np.eye(2))
    assert np.abs(shifted.coeffs - plain.coeffs).max() < 1e-12 * np.abs(plain.coeffs).max()
    assert abs(trace_mean(plain)) < 1e-13


def test_interpolation_rejects_wrong_return_shape():
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, "rt0")
    with pytest.raises(ValueError):
        interpolate_pseudostress(space, lambda x: np.zeros(x.shape))


@pytest.mark.parametrize("kind", KINDS)
def test_interpolation_commutes_with_divergence_projection(kind):
    # div(interpolant) must equal the cellwise projection of div(sigma);
    # for tensor fields with affine entries both sides are the constant
    # exact divergence, so the comparison is exact up to roundoff.
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, kind)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2, 2))

        def sigma(x, a=a, b=b):
            lin = np.einsum("rck,...k->...rc", b, x)
            return a + lin

        exact_div = np.array([b[0, 0, 0] + b[0, 1, 1], b[1, 0, 0] + b[1, 1, 1]])
        field = interpolate_pseudostress(space, sigma)
        dv = field.div_cells()  # (nt, 2)
        assert np.abs(dv - exact_div).max() < 1e-10


@pytest.mark.parametrize("kind", KINDS)
def test_trace_correction_zeroes_mean_and_keeps_divergence(kind):
    mesh = make_square_piecewise_uniform()
    space = build_space(mesh, kind)
    plain = interpolate_pseudostress(space, smooth_sigma)
    raw = PseudostressField(space=space, coeffs=plain.coeffs + 1.5 * identity_coeffs(space))
    assert trace_mean(raw) == pytest.approx(3.0, abs=1e-12)
    fixed = apply_trace_correction(raw)
    assert abs(trace_mean(fixed)) < 1e-13
    assert np.abs(fixed.div_cells() - raw.div_cells()).max() < 1e-12
    assert np.abs(fixed.coeffs - plain.coeffs).max() < 1e-12


# ----------------------------------------------------------------------
# cellwise velocity projection
# ----------------------------------------------------------------------


def composite_cell_means(mesh, u, k=48):
    """Cell means via a composite degree-2 rule on k^2 congruent children."""
    rule = triangle_rule(2)
    chunks = []
    for i in range(k):
        for j in range(k - i):
            a = np.array([i, j]) / k
            b = np.array([i + 1, j]) / k
            c = np.array([i, j + 1]) / k
            chunks.append(a + rule.points @ np.array([b - a, c - a]))
            if i + j < k - 1:
                d = np.array([i + 1, j + 1]) / k
                chunks.append(b + rule.points @ np.array([d - b, c - b]))
    ref = np.concatenate(chunks)
    w = np.tile(rule.weights, len(chunks)) / (k * k)
    tris = np.arange(mesh.nt)
    pts = mesh.map_ref_points(ref, tris)
    vals = np.asarray(u(pts))
    return np.einsum("q,tqr->rt", w, vals)


def test_project_velocity_matches_composite_subdivision_oracle():
    mesh = make_square_piecewise_uniform()

    def u(x):
        s = np.sin(np.pi * (x[..., 0] + x[..., 1]))
        return np.stack([s, -s], axis=-1)

    proj = project_velocity(project_exact(mesh, u))
    oracle = composite_cell_means(mesh, u)
    assert np.abs(proj.coeffs - oracle).max() < 1e-6


def test_project_velocity_exact_for_constants():
    mesh = make_square_piecewise_uniform()
    proj = project_velocity(project_exact(mesh, lambda x: np.broadcast_to([2.0, -1.0], x.shape).copy()))
    assert np.abs(proj.coeffs[0] - 2.0).max() < 1e-14
    assert np.abs(proj.coeffs[1] + 1.0).max() < 1e-14
    vals = proj.cellwise().eval_cells(np.arange(3), np.zeros((3, 2, 2)))
    assert vals.shape == (3, 2, 2)


def test_project_velocity_rejects_wrong_return_shape():
    mesh = make_square_piecewise_uniform()
    with pytest.raises(ValueError):
        project_velocity(project_exact(mesh, lambda x: x[..., 0]))
