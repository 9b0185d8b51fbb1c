"""Red-green refinement: the array version against the loop oracle, and
invariants of random refinements."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import refine_oracle
from conftest import find_tjunctions, two_triangle_square

from oseenstress import adaptive, mesh as mesh_module
from oseenstress.mesh import (
    MeshQualityError,
    load_mesh,
    make_lshape_mesh,
    make_square_piecewise_uniform,
    refine_marked,
    save_mesh,
)
from oseenstress.problems import get_problem

FIELDS = ("vertices", "triangles", "region", "green_pairs")
STARTS = {"square": make_square_piecewise_uniform, "lshape": make_lshape_mesh, "two": two_triangle_square}


def refine_like_oracle(mesh, marked):
    """Refine with both versions; assert equal arrays and return the result."""
    fine = refine_marked(mesh, marked)
    expected = refine_oracle.refine_marked(mesh, marked)
    for name in FIELDS:
        got, want = getattr(fine, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    return fine


def corner_marks(mesh):
    return np.argsort(np.linalg.norm(mesh.tri_centroids(), axis=1))[:4]


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("start", sorted(STARTS))
def test_random_drill_matches_oracle(start, seed):
    rng = np.random.default_rng(seed)
    mesh = STARTS[start]()
    while mesh.nt <= 1500:
        k = int(rng.integers(1, max(2, mesh.nt // 3)))
        mesh = refine_like_oracle(mesh, rng.choice(mesh.nt, size=k, replace=False))


def test_corner_marking_matches_oracle():
    mesh = make_lshape_mesh()
    for _ in range(12):
        mesh = refine_like_oracle(mesh, corner_marks(mesh))


def test_green_half_edge_case_matches_oracle():
    fine = refine_like_oracle(two_triangle_square(), [0])
    finer = refine_like_oracle(fine, [0])
    refine_like_oracle(finer, np.arange(finer.nt))


@pytest.mark.parametrize("name, theta, iters", [("p3", 0.3, 4), ("p2", 0.7, 6)])
def test_adaptive_refine_inputs_match_oracle(monkeypatch, name, theta, iters):
    # every pass coalesces the green pairs once, so counting those calls
    # counts passes; these runs reach calls of two and three passes
    passes = []
    coalesce = mesh_module._coalesce_green

    def counted(*args):
        passes[-1] += 1
        return coalesce(*args)

    def checked(mesh, marked):
        passes.append(0)
        return refine_like_oracle(mesh, marked)

    monkeypatch.setattr(mesh_module, "_coalesce_green", counted)
    monkeypatch.setattr(adaptive, "refine_marked", checked)
    adaptive.adaptive_solve(get_problem(name), theta=theta, max_iters=iters)
    assert len(passes) == iters
    assert max(passes) >= 2


def _refined_start(name):
    if name == "square":
        return make_square_piecewise_uniform(1)
    mesh = make_lshape_mesh()
    for _ in range(3):
        mesh = refine_marked(mesh, corner_marks(mesh))
    return mesh


START_MESHES = {name: _refined_start(name) for name in ("square", "lshape")}
# strategies: a start mesh, and 1-3 rounds of marks (taken modulo nt)
START_NAMES = st.sampled_from(sorted(START_MESHES))
MARK_ROUNDS = st.lists(st.lists(st.integers(0, 10**6), max_size=12), min_size=1, max_size=3)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(start=START_NAMES, rounds=MARK_ROUNDS)
def test_random_marks_keep_the_mesh_conforming(tmp_path_factory, start, rounds):
    mesh = START_MESHES[start]
    area = mesh.tri_areas().sum()
    for picks in rounds:
        mesh = refine_like_oracle(mesh, np.array(picks, dtype=np.int64) % mesh.nt)
        assert not find_tjunctions(mesh)
        assert np.all(mesh.tri_areas() > 0)
        assert mesh.tri_areas().sum() == pytest.approx(area, rel=1e-12)
        te = mesh.tri_edges[mesh.green_pairs]  # (ng, 2, 3)
        shared = (te[:, 0, :, None] == te[:, 1, None, :]).sum(axis=(1, 2))
        assert np.all(shared == 1)
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    for name in FIELDS:
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name


def test_a_conformity_loop_that_does_not_converge_raises_mesh_quality_error(monkeypatch):
    # The loop is given no pass, so it ends as if its 64 passes had not
    # converged; no real pass runs, since each can quadruple the mesh.
    mesh = two_triangle_square()
    monkeypatch.setattr(mesh_module, "range", lambda passes: range(0), raising=False)
    with pytest.raises(MeshQualityError, match="conformity restoration did not converge in 64 passes") as excinfo:
        refine_marked(mesh, [0])
    assert isinstance(excinfo.value, RuntimeError)  # every existing `except RuntimeError` still catches it
