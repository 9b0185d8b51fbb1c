"""H(div) spaces, canonical interpolation, and cellwise projection."""

import numpy as np
import pytest

import element_oracle
import errors_oracle
from conftest import eval_cells, jittered, map_ref_points, same_bits

from oseenstress.mesh import build_mesh, make_lshape_mesh, make_square_piecewise_uniform, refine_marked, uniform_quad_refine
from oseenstress.problems import get_problem
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
    project_moments,
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
    classes = len(mesh.shape_classes()[1])
    assert space.class_coeff.shape == (classes, nl, 2, 3)
    assert space.class_div.shape == (classes, nl)
    basis, div = space.bases()
    assert basis.shape == (mesh.nt, nl, 2, 3)
    assert div.shape == (mesh.nt, nl)


def _whole_mesh_bases(space):
    """The per-element bases and divergences of the whole mesh, as ``build_space`` stored them before they went by class."""
    classes, _, scale = space.mesh.shape_classes()
    shrink = 1.0 / scale
    per_monomial = np.stack([shrink, shrink * shrink, shrink * shrink], axis=1)
    return space.class_coeff[classes] * per_monomial[:, None, None, :], space.class_div[classes] * per_monomial[:, 1:2]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "make_mesh, one_class_each",
    [(lambda: make_square_piecewise_uniform(3), False), (lambda: jittered(make_square_piecewise_uniform(2)), True)],
    ids=["uniform-level3", "no-repeated-shape"],
)
def test_bases_of_some_triangles_equal_the_whole_mesh_arrays(kind, make_mesh, one_class_each):
    # the accessor scales the class bases to the triangles asked for, a
    # slice or an index set, bit for bit as the whole-mesh arrays were
    mesh = make_mesh()
    space = build_space(mesh, kind)
    basis, div = _whole_mesh_bases(space)
    assert (len(space.class_coeff) == mesh.nt) == one_class_each
    picked = np.random.default_rng(5).choice(mesh.nt, size=mesh.nt // 3, replace=False)
    for rows in (slice(None), slice(7, mesh.nt - 5), picked, picked[:1]):
        got_basis, got_div = space.bases(rows)
        assert same_bits(got_basis, basis[rows]) and same_bits(got_div, div[rows])
        # each part alone, as the cell means and the divergences read it
        assert same_bits(space.means(rows), basis[rows][..., 0]) and same_bits(space.divergences(rows), div[rows])


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
    basis = CellwiseLinear(mesh, space.bases()[0])
    for t in range(mesh.nt):
        fm = np.empty((nl, nl))
        for le in range(3):
            e = int(mesh.tri_edges[t, le])
            pts = va[e] + tq[:, None] * (vb[e] - va[e])
            vals = eval_cells(basis, np.array([t]), pts[None])[0]  # (q, nl, 2)
            flux = vals @ normals[e]  # (q, nl)
            fm[moments * le] = lengths[e] * (wq @ flux)
            if moments == 2:
                fm[moments * le + 1] = lengths[e] * ((wq * legendre) @ flux)
        # Row k applies the functional of local dof k to all local basis
        # functions, so the matrix must be the identity.
        assert np.abs(fm - np.eye(nl)).max() < 1e-13


def _red_green_lshape():
    """The L-shape after three rounds of seeded red-green refinement: red groups, green pairs and unrefined triangles."""
    rng = np.random.default_rng(3)
    mesh = make_lshape_mesh()
    for _ in range(3):
        mesh = refine_marked(mesh, rng.choice(mesh.nt, size=mesh.nt // 4, replace=False))
    return mesh


CLASS_MESHES = {
    "uniform-level4": lambda: make_square_piecewise_uniform(4),
    "red-green-lshape": _red_green_lshape,
    "no-repeated-shape": lambda: jittered(make_square_piecewise_uniform(2)),
}


@pytest.mark.parametrize("name", list(CLASS_MESHES))
@pytest.mark.parametrize("kind", KINDS)
def test_bases_scaled_from_their_shape_class_match_one_inverse_per_triangle(kind, name):
    # build_space inverts the Vandermonde matrix of each class's first
    # triangle and scales it to the members; one inverse per triangle is
    # the oracle, to 1e-12 relative per triangle
    mesh = CLASS_MESHES[name]()
    space = build_space(mesh, kind)
    basis, div = element_oracle.basis(mesh, kind)
    scale = np.abs(basis).max(axis=(1, 2, 3))
    scaled_basis, scaled_div = space.bases()
    assert np.all(np.abs(scaled_basis - basis).max(axis=(1, 2, 3)) <= 1e-12 * scale)
    assert np.all(np.abs(scaled_div - div).max(axis=1) <= 1e-12 * np.abs(div).max(axis=1))
    classes = len(mesh.shape_classes()[1])
    assert classes < mesh.nt or name == "no-repeated-shape"
    assert space.ledger == {"class Vandermonde inverse": (1, classes, space.ndof_local, space.ndof_local)}


@pytest.mark.parametrize("kind", KINDS)
def test_basis_divergence_matches_net_flux(kind):
    # By the divergence theorem, the integral of div(v_j) over the element
    # equals the net outward flux: the orientation sign for zeroth-moment
    # basis functions and zero for first-moment (BDM1) ones.
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, kind)
    areas = mesh.tri_areas()
    integral = areas[:, None] * space.bases()[1]
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
    pts = map_ref_points(mesh, rule.points, tris)
    vals = eval_cells(interpolate_pseudostress(space, sigma).cellwise(), tris, pts)
    dev = apply_deviatoric(const[None])[0]
    assert np.abs(vals - dev).max() < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_pseudostress_cell_means_are_those_of_its_cellwise_form(kind):
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, kind)
    field = PseudostressField(space=space, coeffs=np.random.default_rng(3).standard_normal((2, space.n_dofs_per_row)))
    means = field.cell_means()
    assert means.shape == (2, 2, mesh.nt)
    # the coefficients times the bases' cell means, without the cellwise form
    direct = np.sum(field.coeffs[:, space.dof_map, None] * space.bases()[0][..., 0], axis=2)  # (2, nt, 2)
    assert np.abs(means - np.moveaxis(direct, 1, 2)).max() <= 1e-14 * np.abs(means).max()
    # summed from the means of the bases alone, bit for bit those of the cellwise form
    assert same_bits(means, field.cellwise().cell_means())


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
    pts = map_ref_points(mesh, ref, tris)
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
    vals = eval_cells(proj.cellwise(), np.arange(3), np.zeros((3, 2, 2)))
    assert vals.shape == (3, 2, 2)


def test_project_velocity_rejects_wrong_return_shape():
    mesh = make_square_piecewise_uniform()
    with pytest.raises(ValueError):
        project_velocity(project_exact(mesh, lambda x: x[..., 0]))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_moment_part_of_the_projection_is_bitwise_the_projected_field(name):
    # the assembly's data in the degree-4 rule, and the exact fields in the
    # degree-6 rule with the singular corner's cells split
    problem = get_problem(name)
    mesh = problem.initial_mesh()
    cases = [(problem.b, 4, None), (problem.c, 4, None), (problem.f, 4, None)]
    if problem.has_exact:
        cases += [(problem.exact_u, 6, problem.singular_corner), (problem.exact_sigma, 6, problem.singular_corner)]
    for data, degree, corner in cases:
        whole = project_exact(mesh, data, degree=degree, singular_corner=corner)
        field, rest = project_moments(mesh, data, degree=degree, singular_corner=corner)
        assert field.mesh is mesh and field.coeffs.dtype == whole.field.coeffs.dtype
        assert np.array_equal(field.coeffs, whole.field.coeffs)
        assert rest() == whole.rest


def scalar_field(x):
    return np.sin(np.pi * x[..., 0]) * np.exp(x[..., 1])


def oracle_cases():
    """(mesh, field, degree, corner) of the reference-triangle projection against the physical-frame oracle."""
    p1, p2 = get_problem("p1"), get_problem("p2")
    square = make_square_piecewise_uniform(3)
    lshape = p2.initial_mesh()
    for _ in range(3):
        lshape = uniform_quad_refine(lshape)
    for degree in (4, 6):
        for field in (scalar_field, p1.exact_u, p1.exact_sigma):  # value shapes (), (2,) and (2, 2)
            yield pytest.param(square, field, degree, None, id=f"p1-level3-{field.__name__}-degree{degree}")
        yield pytest.param(jittered(square), p1.exact_sigma, degree, None, id=f"jittered-degree{degree}")
        for field in (p2.exact_u, p2.exact_sigma):
            yield pytest.param(lshape, field, degree, p2.singular_corner, id=f"lshape-corner-{field.__name__}-degree{degree}")


@pytest.mark.parametrize("mesh, field, degree, corner", oracle_cases())
def test_reference_triangle_projection_matches_the_physical_frame_oracle(mesh, field, degree, corner):
    # every coefficient kind (the mean and the two gradient components) to
    # 1e-12 of its largest, and the residual sum to 1e-12 relative
    got, got_rest = project_moments(mesh, field, degree=degree, singular_corner=corner)
    want, want_rest = errors_oracle.project_moments(mesh, field, degree=degree, singular_corner=corner)
    assert got.coeffs.shape == want.coeffs.shape
    for kind in range(3):
        largest = np.abs(want.coeffs[..., kind]).max()
        assert np.abs(got.coeffs[..., kind] - want.coeffs[..., kind]).max() <= 1e-12 * largest
    rest = got_rest()
    assert rest > 0.0 and abs(rest - want_rest()) <= 1e-12 * want_rest()


@pytest.mark.parametrize("scale", [1e100, 1e-100])
@pytest.mark.parametrize("corner", [False, True], ids=["square", "lshape-corner"])
def test_project_exact_reproduces_a_linear_field_at_any_scale(scale, corner):
    # the Gram matrix is the reference triangle's, so nothing grows faster
    # than the size squared; a product of six lengths would over- or
    # underflow here (pytest turns a RuntimeWarning into an error)
    mesh = get_problem("p2").initial_mesh() if corner else make_square_piecewise_uniform(1)
    mesh = build_mesh(scale * mesh.vertices, mesh.triangles, mesh.region)
    gradient = np.array([[2.0, -3.0], [0.5, 1.0]])

    def linear(x):
        return np.array([1.0, -2.0]) + (x / scale) @ gradient.T

    proj = project_exact(mesh, linear, singular_corner=(0.0, 0.0) if corner else None)
    means = proj.field.coeffs[..., 0]
    assert np.abs(means - linear(mesh.tri_centroids())).max() <= 1e-12 * np.abs(means).max()
    assert np.abs(scale * proj.field.coeffs[..., 1:] - gradient).max() <= 1e-12 * np.abs(gradient).max()
    assert proj.rest <= 1e-24 * np.sum(mesh.tri_areas() * np.sum(means**2, axis=1))


def test_the_singular_corner_is_found_relative_to_the_cell_size():
    # a vertex within 1e-12 of the corner, measured against the cell's
    # longest edge: on the L-shape after 3 refinements the same 5 cells take
    # the rule on the four red children (4 nq points) at any scale
    problem = get_problem("p2")
    start = problem.initial_mesh()
    for _ in range(3):
        start = uniform_quad_refine(start)
    nq = len(triangle_rule(6).weights)
    for scale in (1.0, 1e-20):
        mesh = build_mesh(scale * start.vertices, start.triangles, start.region)
        calls = []

        def spy(x):
            calls.append(x.shape[:2])
            return problem.exact_u(x / scale)

        project_exact(mesh, spy, singular_corner=scale * np.asarray(problem.singular_corner))
        assert calls == [(nq, mesh.nt - 5), (4 * nq, 5)]
