"""Acceptance gate: end-to-end accuracy, superconvergence, and adaptivity.

These tests run the full solver pipeline and hold it to the quantitative
targets the package promises:

* first-order velocity/pseudostress convergence with RT0 elements and
  near-second-order supercloseness and postprocessed rates;
* second-order pseudostress convergence with BDM1 elements;
* absolute error magnitudes at the fourth refinement level within a
  factor of two of the recorded reference values;
* structural identities (deviatoric algebra, divergence commutativity,
  zero data, mean preservation, recovery consistency, trace-free means);
* adaptive runs on the singular corner problem recovering the optimal
  error-vs-dofs rate with honest effectivities and corner-focused meshes;
* adaptive runs on the convection-dominated problem resolving the outflow
  layer without stabilization;
* direct solves with small residuals, cross-checked against a dense
  partial-pivoting oracle.
"""

import time

import numpy as np
import pytest

from conftest import assert_shape_classes, dense_lu_solve, zero_problem

from oseenstress.assembly import solve_oseen
from oseenstress.adaptive import adaptive_solve
from oseenstress.cli import run_convergence
from oseenstress.errors import fit_orders
from oseenstress.mesh import make_square_piecewise_uniform
from oseenstress.postprocess import postprocess_velocity, recover_pseudostress
from oseenstress.problems import get_problem
from oseenstress.sparsela import lu_solve, to_csr
from oseenstress.spaces import (
    PseudostressField,
    apply_deviatoric,
    build_space,
    interpolate_pseudostress,
    trace_mean,
)

LEVELS = 6
NT_SEQUENCE = [19, 76, 304, 1216, 4864, 19456]

# Reference error magnitudes at the fifth mesh (nt = 4864); every column
# must reproduce them within a factor of two.
RT0_REFERENCE_AT_4864 = {
    "err_u": 2.032e-2,
    "err_eh": 1.653e-4,
    "err_ustar": 3.880e-4,
    "err_sigma": 8.530e-2,
    "err_xih": 1.390e-3,
    "err_sigmastar": 1.088e-2,
}
BDM1_REFERENCE_AT_4864 = {
    "err_u": 2.032e-2,
    "err_eh": 1.051e-4,
    "err_ustar": 2.606e-4,
    "err_sigma": 2.031e-3,
    "err_xih": 1.818e-3,
}


@pytest.fixture(scope="module")
def rt0_table():
    start = time.perf_counter()
    rows, bundle = run_convergence(get_problem("p1"), kind="rt0", levels=LEVELS)
    elapsed = time.perf_counter() - start
    return rows, bundle, elapsed


@pytest.fixture(scope="module")
def bdm1_table():
    rows, bundle = run_convergence(get_problem("p1"), kind="bdm1", levels=LEVELS)
    return rows, bundle


@pytest.fixture(scope="module")
def p2_history():
    return adaptive_solve(get_problem("p2"), theta=0.7, max_iters=60, max_dofs=30_000)


@pytest.fixture(scope="module")
def p3_history():
    # Completing without an exception is itself part of the acceptance:
    # no stabilization is used despite |b| = O(500).
    return adaptive_solve(get_problem("p3"), theta=0.3, max_iters=10)


# ----------------------------------------------------------------------
# criterion 1: RT0 uniform convergence study
# ----------------------------------------------------------------------


def test_rt0_mesh_sequence_and_runtime(rt0_table):
    rows, _, elapsed = rt0_table
    assert [row.nt for row in rows] == NT_SEQUENCE
    assert elapsed <= 180.0


def test_rt0_convergence_orders(rt0_table):
    rows, _, _ = rt0_table
    orders = fit_orders(rows)
    assert 0.95 <= orders["err_u"] <= 1.05
    assert orders["err_eh"] >= 1.85
    assert orders["err_ustar"] >= 1.85
    assert 0.95 <= orders["err_sigma"] <= 1.05
    assert orders["err_xih"] >= 1.75
    assert orders["err_sigmastar"] >= 1.8


def test_rt0_superconvergence_gap(rt0_table):
    # The supercloseness distances and postprocessed errors must sit far
    # below the plain errors on the finest mesh, not merely converge fast.
    rows, _, _ = rt0_table
    last = rows[-1]
    assert last.err_eh < 0.1 * last.err_u
    assert last.err_ustar < 0.1 * last.err_u
    assert last.err_xih < 0.1 * last.err_sigma
    assert last.err_sigmastar < 0.5 * last.err_sigma


# ----------------------------------------------------------------------
# criterion 2: BDM1 uniform convergence study
# ----------------------------------------------------------------------


def test_bdm1_convergence_orders(bdm1_table):
    rows, _ = bdm1_table
    assert [row.nt for row in rows] == NT_SEQUENCE
    orders = fit_orders(rows)
    assert orders["err_sigma"] >= 1.9
    assert 1.85 <= orders["err_xih"] <= 2.2
    assert orders["err_eh"] >= 1.85
    assert 0.95 <= orders["err_u"] <= 1.05


# ----------------------------------------------------------------------
# criterion 3: absolute accuracy at the fifth level
# ----------------------------------------------------------------------


def test_rt0_errors_match_reference_magnitudes(rt0_table):
    rows, _, _ = rt0_table
    row = rows[4]
    assert row.nt == 4864
    for name, target in RT0_REFERENCE_AT_4864.items():
        ratio = getattr(row, name) / target
        assert 0.5 <= ratio <= 2.0, f"{name}: ratio {ratio:.3f}"


def test_bdm1_errors_match_reference_magnitudes(bdm1_table):
    rows, _ = bdm1_table
    row = rows[4]
    assert row.nt == 4864
    for name, target in BDM1_REFERENCE_AT_4864.items():
        ratio = getattr(row, name) / target
        assert 0.5 <= ratio <= 2.0, f"{name}: ratio {ratio:.3f}"


# ----------------------------------------------------------------------
# criterion 4: structural identities
# ----------------------------------------------------------------------


def test_deviatoric_identities():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((100, 2, 2))
    d = apply_deviatoric(m)
    assert np.abs(d[..., 0, 0] + d[..., 1, 1]).max() < 1e-14
    assert np.abs(apply_deviatoric(d) - d).max() < 1e-14
    eye = np.broadcast_to(np.eye(2), (100, 2, 2))
    assert np.abs(apply_deviatoric(eye)).max() < 1e-14


@pytest.mark.parametrize("kind", ["rt0", "bdm1"])
def test_interpolation_divergence_commutativity(kind):
    # div(interpolate(sigma)) == project(div(sigma)) for 50 random tensor
    # fields with affine entries, where both sides are exactly the
    # constant divergence.
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, kind)
    rng = np.random.default_rng(99)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2, 2))

        def sigma(x, a=a, b=b):
            return a + np.einsum("rck,...k->...rc", b, x)

        exact_div = np.array([b[0, 0, 0] + b[0, 1, 1], b[1, 0, 0] + b[1, 1, 1]])
        field = interpolate_pseudostress(space, sigma)
        assert np.abs(field.div_cells() - exact_div).max() < 1e-10


@pytest.mark.parametrize("kind", ["rt0", "bdm1"])
def test_zero_data_produces_zero_solution(kind):
    sol = solve_oseen(zero_problem(), make_square_piecewise_uniform(), kind=kind)
    assert np.abs(sol.sigma.coeffs).max() < 1e-10
    assert np.abs(sol.u.coeffs).max() < 1e-10


def test_lifted_velocity_preserves_cell_means(rt0_table):
    _, bundle, _ = rt0_table
    ustar = bundle["ustar"]
    u_h = bundle["solution"].u
    assert np.abs(ustar.cell_means() - u_h.coeffs).max() < 1e-12


def test_recovery_constant_and_identity_consistency():
    mesh = make_square_piecewise_uniform(1)
    space = build_space(mesh, "rt0")
    const = np.array([[1.0, 2.0], [3.0, -1.0]])

    def const_field(x):
        return np.broadcast_to(const, x.shape[:-1] + (2, 2)).copy()

    def identity(x):
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

    rec = recover_pseudostress(interpolate_pseudostress(space, const_field))
    assert np.abs(rec.values - apply_deviatoric(const[None])[0]).max() < 1e-12
    rec0 = recover_pseudostress(interpolate_pseudostress(space, identity))
    assert np.abs(rec0.values).max() < 1e-12


def test_every_solved_pseudostress_is_trace_mean_free(rt0_table, bdm1_table, p2_history, p3_history):
    fields = [
        rt0_table[1]["solution"].sigma,
        bdm1_table[1]["solution"].sigma,
        p2_history.final_solution.sigma,
        p3_history.final_solution.sigma,
    ]
    for sigma in fields:
        scale = max(1.0, float(np.abs(sigma.coeffs).max()))
        assert abs(trace_mean(sigma)) <= 1e-9 * scale


# ----------------------------------------------------------------------
# criterion 5: adaptive refinement on the singular corner problem
# ----------------------------------------------------------------------


def test_p2_adaptive_reaches_dof_budget(p2_history):
    assert p2_history.records[-1].dofs >= 30_000
    assert p2_history.records[-1].marked == 0


def test_p2_adaptive_recovers_optimal_rate(p2_history):
    # True error should decay like dofs^(-1/2) once the corner is
    # resolved; fit the last five iterations.
    recs = p2_history.records[-5:]
    dofs = np.array([rec.dofs for rec in recs], dtype=float)
    errs = np.array([rec.true_error for rec in recs])
    slope = np.polyfit(np.log(dofs), np.log(errs), 1)[0]
    ratio = slope / -0.5
    assert 0.85 <= ratio <= 1.15, f"slope {slope:.4f}"


def test_p2_estimator_effectivity_is_honest(p2_history):
    recs = p2_history.records
    tail = recs[-(len(recs) // 3) :]
    for rec in tail:
        assert 0.7 <= rec.effectivity <= 1.3, f"iteration {rec.iteration}: {rec.effectivity:.3f}"


def test_p2_refinement_concentrates_at_the_corner(p2_history):
    mesh = p2_history.final_mesh
    diam = mesh.tri_diameters()
    corner_dist = np.linalg.norm(mesh.vertices[mesh.triangles], axis=2).min(axis=1)
    smallest = np.argsort(diam)[:10]
    # the very smallest element touches the corner exactly ...
    assert corner_dist[int(np.argmin(diam))] == 0.0
    # ... and the ten smallest all sit within a few diameters of it
    assert corner_dist[smallest].max() <= 10.0 * float(diam.min())


# ----------------------------------------------------------------------
# criterion 6: adaptive refinement on the convection-dominated problem
# ----------------------------------------------------------------------


def test_adaptive_final_meshes_have_exact_shape_classes(p2_history):
    # red children and green halves of every start triangle: each member of
    # a shape class is its first triangle scaled, on the final meshes of
    # the p2 and p3 benchmark runs (p3 to 40,000 dofs: 771 classes of 8,908
    # triangles).  p2's members agree to 1e-13 after normalising; p3's
    # smallest triangles, refined most often near the outflow layer, agree
    # to 32 ulps of their coordinates (1.1e-13 at most)
    p3_mesh = adaptive_solve(get_problem("p3"), theta=0.3, max_iters=30, max_dofs=40_000).final_mesh
    for mesh, classes, ulps in ((p2_history.final_mesh, 66, 0), (p3_mesh, 771, 32)):
        assert_shape_classes(mesh, ulps)
        assert len(mesh.shape_classes()[1]) == classes
    assert p3_mesh.nt == 8908


def test_p3_adaptive_resolves_outflow_layer(p3_history):
    assert p3_history.niter == 11  # 10 refinements + final solve
    for rec in p3_history.records:
        assert np.isfinite(rec.estimator) and rec.estimator > 0
    mesh = p3_history.final_mesh
    cx = mesh.tri_centroids()[:, 0]
    diam = mesh.tri_diameters()
    layer = np.median(diam[cx > 0.95])
    bulk = np.median(diam[cx < 0.5])
    assert bulk / layer >= 4.0, f"layer contrast {bulk / layer:.2f}"


# ----------------------------------------------------------------------
# criterion 7: linear-algebra honesty
# ----------------------------------------------------------------------


def test_all_recorded_residuals_are_small(rt0_table, bdm1_table, p2_history, p3_history):
    sols = [rt0_table[1]["solution"], bdm1_table[1]["solution"],
            p2_history.final_solution, p3_history.final_solution]
    for sol in sols:
        assert sol.residual <= 1e-9


def test_sparse_solver_matches_dense_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        nnz = int(rng.integers(3 * n, 6 * n))
        rows = np.concatenate([rng.integers(0, n, size=nnz), np.arange(n)])
        cols = np.concatenate([rng.integers(0, n, size=nnz), np.arange(n)])
        vals = np.concatenate([rng.standard_normal(nnz), np.full(n, 10.0)])
        csr = to_csr(rows, cols, vals, n)
        rhs = rng.standard_normal(n)
        x, _ = lu_solve(csr, rhs)
        x_ref = dense_lu_solve(csr.to_scipy().toarray(), rhs)
        scale = max(1.0, float(np.abs(x_ref).max()))
        assert np.abs(x - x_ref).max() / scale < 1e-10
