"""Recovery-based indicators, maximum marking, and the adaptive loop."""

import numpy as np
import pytest

from conftest import refine_bisecting_green_halves_again, zero_problem

from oseenstress import adaptive
from oseenstress.adaptive import (
    adaptive_solve,
    compute_indicators,
    mark_max,
)
from oseenstress.assembly import solve_oseen
from oseenstress.mesh import MeshQualityError, load_mesh, make_square_piecewise_uniform, max_ratio_bound, mesh_stats, save_mesh
from oseenstress.postprocess import postprocess_velocity, recover_pseudostress
from oseenstress.problems import get_problem


def indicators_for(problem, mesh):
    sol = solve_oseen(problem, mesh, kind="rt0")
    ustar = postprocess_velocity(sol.sigma, sol.u)
    sigmastar = recover_pseudostress(sol.sigma)
    return compute_indicators(sol.sigma, sigmastar, sol.u, ustar)


# ----------------------------------------------------------------------
# marking
# ----------------------------------------------------------------------


def test_mark_max_thresholding_and_ties():
    mesh = make_square_piecewise_uniform()
    eta = np.zeros(mesh.nt)
    eta[:5] = [4.0, 2.0, 2.0, 1.9, 0.1]
    marked = mark_max(eta, 0.5)
    assert np.array_equal(marked, [0, 1, 2])  # ties at the threshold included
    assert np.array_equal(mark_max(eta, 1.0), [0])
    assert np.array_equal(mark_max(eta, 0.0), np.arange(mesh.nt))  # includes eta=0


def test_mark_max_is_monotone_in_theta():
    mesh = make_square_piecewise_uniform()
    rng = np.random.default_rng(8)
    eta = rng.random(mesh.nt)
    previous = None
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        marked = set(mark_max(eta, theta).tolist())
        if previous is not None:
            assert marked.issubset(previous)
        previous = marked


def test_mark_max_validates_theta_and_handles_zero_field():
    mesh = make_square_piecewise_uniform()
    eta = np.zeros(mesh.nt)
    assert mark_max(eta, 0.5).size == 0
    with pytest.raises(ValueError):
        mark_max(eta, -0.1)
    with pytest.raises(ValueError):
        mark_max(eta, 1.5)


# ----------------------------------------------------------------------
# indicators
# ----------------------------------------------------------------------


def test_indicators_vanish_for_zero_data():
    mesh = make_square_piecewise_uniform()
    eta = indicators_for(zero_problem(), mesh)
    assert eta.shape == (mesh.nt,)
    assert np.abs(eta).max() < 1e-12
    assert mark_max(eta, 0.5).size == 0


def test_largest_indicator_sits_at_the_reentrant_corner():
    prob = get_problem("p2")
    mesh = prob.initial_mesh()
    eta = indicators_for(prob, mesh)
    worst = int(np.argmax(eta))
    dist = np.linalg.norm(mesh.vertices[mesh.triangles[worst]], axis=1).min()
    assert dist == 0.0


# ----------------------------------------------------------------------
# adaptive loop
# ----------------------------------------------------------------------


def test_adaptive_solve_zero_iterations():
    history = adaptive_solve(get_problem("p2"), max_iters=0)
    assert history.niter == 1
    rec = history.records[0]
    assert rec.iteration == 0
    assert rec.marked == 0
    assert history.final_mesh is not None
    assert history.final_solution is not None
    assert history.final_sigmastar is not None
    assert rec.nt == history.final_mesh.nt
    assert rec.dofs == history.final_solution.ndofs
    # the estimator is the l2 total of the indicators
    sol = history.final_solution
    eta = compute_indicators(sol.sigma, history.final_sigmastar, sol.u, postprocess_velocity(sol.sigma, sol.u))
    assert rec.estimator == pytest.approx(np.sqrt(np.sum(eta**2)), rel=1e-15)


def test_adaptive_solve_stops_when_nothing_is_marked():
    # A zero estimator marks no element; refining would return the same
    # mesh, so the run ends at once with that iteration as the final one.
    history = adaptive_solve(zero_problem(), mesh=make_square_piecewise_uniform(), max_iters=4)
    assert len(history.records) == 1
    rec = history.records[0]
    assert (rec.iteration, rec.marked, rec.estimator) == (0, 0, 0.0)
    assert history.final_mesh.nt == rec.nt == 19
    assert history.final_solution.ndofs == rec.dofs
    assert history.final_sigmastar is not None


def test_adaptive_solve_rejects_negative_iterations():
    with pytest.raises(ValueError):
        adaptive_solve(get_problem("p2"), max_iters=-1)


def test_adaptive_records_are_consistent_on_p2():
    history = adaptive_solve(get_problem("p2"), theta=0.5, max_iters=3)
    recs = history.records
    assert len(recs) == 4
    for i, rec in enumerate(recs):
        assert rec.iteration == i
        assert rec.estimator > 0
        assert rec.true_error > 0
        assert rec.effectivity == pytest.approx(rec.estimator / rec.true_error, rel=1e-12)
    # every non-final step marked something and the mesh grew
    for a, b in zip(recs, recs[1:]):
        assert a.marked > 0
        assert b.nt > a.nt
        assert b.dofs > a.dofs
    assert recs[-1].marked == 0
    assert history.final_mesh.nt == recs[-1].nt


def test_adaptive_history_without_closed_form_has_nan_errors():
    history = adaptive_solve(get_problem("p3"), theta=0.3, max_iters=1)
    assert history.niter == 2
    for rec in history.records:
        assert np.isnan(rec.true_error)
        assert np.isnan(rec.effectivity)
        assert rec.estimator > 0


def test_adaptive_solve_respects_dof_budget():
    history = adaptive_solve(get_problem("p2"), theta=0.5, max_iters=50, max_dofs=2000)
    assert history.records[-1].dofs >= 2000 or history.niter == 51
    # no record after the first to exceed the budget
    over = [rec for rec in history.records if rec.dofs >= 2000]
    assert len(over) <= 1


# ----------------------------------------------------------------------
# shape regularity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name, theta, bound", [("p2", 0.7, 4.794404345508253), ("p3", 0.3, 5.343331155222114)])
def test_refinement_reaches_the_seven_shape_bound_and_never_exceeds_it(name, theta, bound, tmp_path):
    # the start skeleton's triangles and their six bisection halves; a saved
    # adapted mesh, with its green pairs merged into their parents first, has the same bound
    problem = get_problem(name)
    assert max_ratio_bound(problem.initial_mesh()) == pytest.approx(bound, rel=1e-12)
    final = adaptive_solve(problem, theta=theta, max_iters=8).final_mesh
    assert len(final.green_pairs) > 0
    assert bound * (1 - 1e-12) <= mesh_stats(final).max_ratio <= bound * (1 + 1e-9)
    save_mesh(final, tmp_path / "mesh.txt")
    assert max_ratio_bound(load_mesh(tmp_path / "mesh.txt")) == pytest.approx(bound, rel=1e-12)


def test_a_green_half_bisected_again_stops_the_run(monkeypatch):
    monkeypatch.setattr(adaptive, "refine_marked", refine_bisecting_green_halves_again)
    with pytest.raises(MeshQualityError, match="refinement 1 left a triangle with circumradius/inradius .* above the bound 4.7944"):
        adaptive_solve(get_problem("p2"), max_iters=2)
