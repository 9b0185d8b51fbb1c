"""Mesh construction, uniform refinement, and conforming local refinement."""

import re

import numpy as np
import pytest

from conftest import (
    assert_shape_classes,
    assert_valid_refinement,
    find_tjunctions,
    jittered,
    map_ref_points,
    two_triangle_square,
)

from oseenstress.assembly import solve_oseen
from oseenstress.mesh import (
    Mesh,
    _by_side,
    build_mesh,
    group_rows,
    load_mesh,
    make_lshape_mesh,
    make_square_piecewise_uniform,
    max_ratio_bound,
    mesh_stats,
    is_piecewise_uniform,
    red_groups,
    refine_marked,
    save_mesh,
    uniform_quad_refine,
)
from oseenstress.problems import get_problem


def canonical_triangle_set(mesh: Mesh):
    """Order-independent geometric fingerprint of a triangulation."""
    pts = np.round(mesh.vertices[mesh.triangles], 12)  # (nt, 3, 2)
    # Sort vertices within each triangle, then sort triangles.
    order = np.lexsort((pts[:, :, 1], pts[:, :, 0]))
    inner = np.take_along_axis(pts, order[:, :, None], axis=1).reshape(mesh.nt, 6)
    outer = np.lexsort(inner.T[::-1])
    return inner[outer]


# ----------------------------------------------------------------------
# construction and invariants
# ----------------------------------------------------------------------


def test_square_mesh_basic_counts():
    mesh = make_square_piecewise_uniform()
    assert mesh.nt == 19
    assert np.array_equal(np.sort(np.unique(mesh.region)), np.arange(19))
    # Euler formula for a simply connected planar triangulation.
    assert mesh.nv - mesh.ne + mesh.nt == 1
    assert mesh.tri_areas().sum() == pytest.approx(1.0, abs=1e-14)


def test_lshape_mesh_basic_counts():
    mesh = make_lshape_mesh()
    assert mesh.nt == 24
    assert mesh.nv - mesh.ne + mesh.nt == 1
    assert mesh.tri_areas().sum() == pytest.approx(3.0, abs=1e-14)
    # The reentrant corner is a mesh vertex.
    d = np.linalg.norm(mesh.vertices, axis=1)
    assert d.min() == 0.0


def test_lshape_mesh_matches_the_square_by_square_loop():
    # the reference: squares x-major, each numbering its new corners
    # (ll, lr, ur, ul) on first use and split along its ll-ur diagonal
    vid, tris = {}, []
    for x0 in (-1.0, -0.5, 0.0, 0.5):
        for y0 in (-1.0, -0.5, 0.0, 0.5):
            if x0 >= 0.0 and y0 < 0.0:
                continue
            ll, lr, ur, ul = (
                vid.setdefault(p, len(vid)) for p in ((x0, y0), (x0 + 0.5, y0), (x0 + 0.5, y0 + 0.5), (x0, y0 + 0.5))
            )
            tris += [(ll, lr, ur), (ll, ur, ul)]
    vertices = sorted(vid, key=vid.get)
    mesh = make_lshape_mesh()
    assert np.array_equal(mesh.vertices, np.array(vertices)) and mesh.vertices.dtype == np.float64
    assert np.array_equal(mesh.triangles, np.array(tris)) and mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.region, np.arange(24))


def test_uniform_refinement_sequence():
    h_prev = None
    for level in range(4):
        mesh = make_square_piecewise_uniform(level)
        assert mesh.nt == 19 * 4**level
        assert is_piecewise_uniform(mesh)
        h_max = mesh.tri_diameters().max()
        if h_prev is not None:
            assert h_max == pytest.approx(h_prev / 2.0, rel=1e-12)
        h_prev = h_max
        assert mesh.tri_areas().sum() == pytest.approx(1.0, abs=1e-12)


def test_side_table_matches_triangle_incidence():
    # the red-green L-shape: red groups, green pairs and unrefined triangles
    mesh = refine_marked(make_lshape_mesh(), [0, 5, 11])
    assert len(mesh.green_pairs) and len(red_groups(mesh.triangles))
    edge_of = {tuple(ends): e for e, ends in enumerate(mesh.edges.tolist())}
    tri, opposite = np.full((2, 2, mesh.ne), -1)
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        # the counterclockwise edge p -> q, opposite r, is on the +1 side when it runs low -> high
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            side, e = int(p > q), edge_of[min(p, q), max(p, q)]
            assert tri[side, e] == -1, "two triangles on one side of an edge"
            tri[side, e], opposite[side, e] = t, r
    assert np.array_equal(_by_side(mesh, np.arange(mesh.nt)[:, None]), tri)
    assert np.array_equal(_by_side(mesh, mesh.triangles), opposite)
    assert np.array_equal(np.flatnonzero(tri.min(axis=0) < 0), mesh.boundary_edges)


def test_group_rows_lists_each_key_in_order():
    keys = np.array([[2, 0, 2], [3, 2, 0]])
    expected = [[1, 5, -1], [-1, -1, -1], [0, 2, 4], [3, -1, -1]]
    assert group_rows(keys, 4).tolist() == expected
    values = 10 * np.arange(6)
    assert group_rows(keys, 4, values=values).tolist() == [
        [10 * i if i >= 0 else -1 for i in row] for row in expected
    ]
    assert group_rows(np.empty(0, dtype=np.int64), 2, width=3).tolist() == [[-1] * 3] * 2


def test_edge_points_run_along_oriented_edges():
    mesh = make_lshape_mesh()
    pts = mesh.edge_points(np.array([0.0, 0.5]), mesh.boundary_edges)
    ends = mesh.vertices[mesh.edges[mesh.boundary_edges]]
    assert pts.shape == (mesh.boundary_edges.size, 2, 2)
    assert np.array_equal(pts[:, 0], ends[:, 0])
    assert np.allclose(pts[:, 1], ends.mean(axis=1), rtol=0.0, atol=1e-15)


def test_is_piecewise_uniform_on_uniform_and_adapted_meshes():
    assert is_piecewise_uniform(make_square_piecewise_uniform(2))
    assert is_piecewise_uniform(uniform_quad_refine(uniform_quad_refine(make_lshape_mesh())))
    # a green pair and the red children beside it meet in no parallelogram of their region
    assert not is_piecewise_uniform(refine_marked(uniform_quad_refine(make_lshape_mesh()), [0]))


def test_is_piecewise_uniform_detects_a_moved_vertex():
    mesh = make_square_piecewise_uniform(1)
    interior = np.setdiff1d(np.arange(mesh.nv), mesh.boundary_vertices())
    moved = mesh.vertices.copy()
    moved[interior[0]] += 1e-3
    assert not is_piecewise_uniform(build_mesh(moved, mesh.triangles, mesh.region))


def test_uniform_quad_refine_preserves_region_and_orientation():
    mesh = make_square_piecewise_uniform()
    fine = uniform_quad_refine(mesh)
    assert fine.nt == 4 * mesh.nt
    assert np.all(fine.tri_areas() > 0)
    # Each child inherits its parent's region tag; area per region preserved.
    for r in range(19):
        coarse_area = mesh.tri_areas()[mesh.region == r].sum()
        fine_area = fine.tri_areas()[fine.region == r].sum()
        assert fine_area == pytest.approx(coarse_area, rel=1e-13)


def test_interior_edge_signs_are_opposite():
    mesh = make_square_piecewise_uniform(1)
    count = np.zeros(mesh.ne, dtype=int)
    total = np.zeros(mesh.ne, dtype=int)
    for t in range(mesh.nt):
        for le in range(3):
            e = mesh.tri_edges[t, le]
            count[e] += 1
            total[e] += mesh.tri_signs[t, le]
    interior = count == 2
    assert np.all(total[interior] == 0)
    boundary = count == 1
    assert np.array_equal(np.flatnonzero(boundary), np.sort(mesh.boundary_edges))


def test_build_mesh_validation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    with pytest.raises(ValueError, match="duplicate"):
        build_mesh(np.vstack([verts, verts[:1]]), tris)
    for bad in (np.nan, np.inf):
        moved = verts.copy()
        moved[2, 1] = bad
        with pytest.raises(ValueError, match="vertex 2 has a non-finite coordinate"):
            build_mesh(moved, tris)
    with pytest.raises((ValueError, IndexError)):
        build_mesh(verts, np.array([[0, 1, 7]]))
    with pytest.raises(ValueError):
        build_mesh(verts, np.array([[0, 1, 1]]))  # degenerate triangle
    with pytest.raises(ValueError, match=r"nonconforming mesh: edge \(0, 1\) shared by 3 triangles") as info:
        # Three triangles sharing one edge cannot be a planar 2-manifold.
        v5 = np.vstack([verts, [[0.5, -1.0]]])
        build_mesh(v5, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
    assert "np." not in str(info.value)
    with pytest.raises(ValueError):
        build_mesh(verts, tris, region=np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match=r"folded mesh: both triangles of edge \(0, 1\)"):
        # two counterclockwise triangles stacked on the same side of (0, 1)
        build_mesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0]], [[0, 1, 2], [0, 1, 3]])


def test_build_mesh_rejects_meshes_no_solve_can_use(tmp_path):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    with pytest.raises(ValueError, match="no triangles"):
        build_mesh(np.empty((0, 2)), np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="vertex 4 belongs to no triangle"):
        build_mesh(np.vstack([verts, [[5.0, 5.0]]]), tris)
    path = tmp_path / "mesh.txt"
    path.write_text("0 0\n")
    with pytest.raises(ValueError, match="no triangles"):
        load_mesh(path)


def test_build_mesh_rejects_geometry_floating_point_cannot_hold():
    # the area and the scale are compared on corners scaled by a power of
    # two, so no product overflows (pytest turns a RuntimeWarning into an
    # error); areas whose doubled value over- or underflows are named as such
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    for scale, area in ((1e200, "1e+400"), (1e-200, "1e-400")):
        message = f"triangle at index 0 cannot be represented in floating point: its doubled area is about {area}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_mesh(verts * scale, tris)
    with pytest.raises(ValueError, match="triangle at index 0 cannot be represented in floating point"):
        build_mesh([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="zero-area triangle at index 1"):
        build_mesh([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200], [2e200, 0.0]], [[0, 1, 2], [0, 1, 3]])
    for scale in (1e100, 1e-100):
        assert np.allclose(build_mesh(verts * scale, tris).tri_areas(), 0.5 * scale**2, rtol=1e-15, atol=0)


@pytest.mark.parametrize("level, classes", [(5, 469), (4, 463)])
def test_shape_classes_of_the_uniform_p1_meshes(level, classes):
    # the meshes of p1 RT0 at level 5 and of BDM1 at level 4
    mesh = make_square_piecewise_uniform(level)
    assert_shape_classes(mesh)
    assert len(mesh.shape_classes()[1]) == classes


def test_a_mesh_without_repeated_shapes_has_one_class_per_triangle():
    mesh = jittered(make_square_piecewise_uniform(2))
    classes, first, scale = mesh.shape_classes()
    assert np.array_equal(classes, np.arange(mesh.nt))
    assert np.array_equal(first, np.arange(mesh.nt))
    assert np.all(scale == 1.0)


@pytest.mark.parametrize(
    "verts, tris, vertex, edge",
    [
        # one half of the unit square bisected at (0.5, 0.5), the other not
        pytest.param(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
            [[0, 1, 2], [0, 4, 3], [4, 2, 3]],
            4,
            (0, 2),
            id="diagonal",
        ),
        # a unit square next to a 1x1 square cut at the middle of the shared side
        pytest.param(
            [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 0.5]],
            [[0, 1, 2], [0, 2, 3], [1, 4, 6], [6, 4, 5], [6, 5, 2]],
            6,
            (1, 2),
            id="vertical",
        ),
        # a triangle touching the top side of the unit square with one corner
        pytest.param(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 1], [0.25, 2], [0.75, 2]],
            [[0, 1, 2], [0, 2, 3], [4, 6, 5]],
            4,
            (2, 3),
            id="touching",
        ),
    ],
)
def test_build_mesh_rejects_hanging_boundary_vertex(verts, tris, vertex, edge):
    expected = rf"vertex {vertex} lies inside boundary edge \({edge[0]}, {edge[1]}\)"
    with pytest.raises(ValueError, match=expected):
        build_mesh(np.array(verts, dtype=float), np.array(tris))


def test_build_mesh_stores_read_only_copies():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = build_mesh(verts, tris)
    areas = mesh.tri_areas().copy()
    for array in (mesh.vertices, mesh.triangles, mesh.edges, mesh.tri_edges, mesh.tri_signs, mesh.region):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices[2, 0] += 1.0
    for cached in (mesh.tri_areas(), mesh.tri_centroids(), mesh.tri_second_moments(), mesh.edge_lengths(), mesh.edge_normals()):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0
    # the caller's arrays stay writable and are not the mesh's
    verts[2, 0] = 5.0
    tris[0, 0] = 3
    assert mesh.vertices[2, 0] == 1.0 and mesh.triangles[0, 0] == 0
    assert np.array_equal(mesh.tri_areas(), areas)


def test_build_mesh_numbers_edges_in_vertex_pair_order():
    mesh = refine_marked(make_lshape_mesh(), [0, 5, 11])
    raw = mesh.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tri_edges, inverse.reshape(mesh.nt, 3))


def test_build_mesh_reorients_clockwise_triangles():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = build_mesh(verts, np.array([[0, 2, 1], [0, 3, 2]]))
    assert np.all(mesh.tri_areas() > 0)
    assert mesh.tri_areas().sum() == pytest.approx(1.0, abs=1e-14)


def test_map_ref_points_hits_vertices():
    mesh = make_square_piecewise_uniform()
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = map_ref_points(mesh, ref, np.arange(mesh.nt))
    assert pts.shape == (mesh.nt, 3, 2)
    expected = mesh.vertices[mesh.triangles]
    assert np.abs(pts - expected).max() < 1e-14


# ----------------------------------------------------------------------
# local refinement: red-green with conformity closure
# ----------------------------------------------------------------------


def test_refine_marked_single_triangle():
    mesh = two_triangle_square()
    fine = refine_marked(mesh, np.array([0]))
    # One red split (4 children) plus a green bisection of the neighbour.
    assert fine.nt == 6
    assert fine.green_pairs.shape == (1, 2)
    assert_valid_refinement(fine)
    assert fine.tri_areas().sum() == pytest.approx(1.0, abs=1e-14)


def test_refine_marked_all_matches_uniform_refinement():
    mesh = make_square_piecewise_uniform()
    a = refine_marked(mesh, np.arange(mesh.nt))
    b = uniform_quad_refine(mesh)
    assert a.nt == b.nt == 76
    assert a.nv == b.nv == 52
    assert a.green_pairs.size == 0
    assert np.array_equal(canonical_triangle_set(a), canonical_triangle_set(b))


def test_refine_marked_empty_is_identity():
    mesh = make_square_piecewise_uniform()
    same = refine_marked(mesh, np.array([], dtype=int))
    assert same.nt == mesh.nt
    assert np.array_equal(canonical_triangle_set(same), canonical_triangle_set(mesh))


def test_refine_marked_rejects_out_of_range():
    mesh = two_triangle_square()
    with pytest.raises(IndexError):
        refine_marked(mesh, np.array([5]))


def test_refine_marked_green_member():
    # Marking one member of a green pair must not leave a hanging node:
    # the parent is re-split red instead of stacking bisections.
    mesh = two_triangle_square()
    fine = refine_marked(mesh, np.array([0]))
    t1, t2 = fine.green_pairs[0]
    finer = refine_marked(fine, np.array([int(t1)]))
    assert_valid_refinement(finer)
    assert finer.tri_areas().sum() == pytest.approx(1.0, abs=1e-13)


def test_refine_marked_hanging_node_on_green_half_edge():
    # Regression: a red split whose new midpoint lands on the *half edge*
    # of an existing green bisection used to survive the skeleton closure
    # (the coalesced parent hides the sub-edge) and produce a geometric
    # T-junction that crashed the next refinement round.
    mesh = two_triangle_square()
    fine = refine_marked(mesh, np.array([0]))
    # Triangle 0 of `fine` is a non-green corner child whose edges include
    # half-edges of the coarse diagonal; marking it red forces the cascade.
    finer = refine_marked(fine, np.array([0]))
    assert_valid_refinement(finer)
    assert finer.nt == 13
    assert finer.tri_areas().sum() == pytest.approx(1.0, abs=1e-13)
    # And the result must remain refinable.
    again = refine_marked(finer, np.arange(finer.nt))
    assert_valid_refinement(again)


def test_refine_marked_random_drill():
    rng = np.random.default_rng(42)
    for start in ("square", "lshape"):
        mesh = make_square_piecewise_uniform() if start == "square" else make_lshape_mesh()
        total = mesh.tri_areas().sum()
        for _ in range(60):
            k = int(rng.integers(1, max(2, mesh.nt // 3)))
            marked = rng.choice(mesh.nt, size=k, replace=False)
            mesh = refine_marked(mesh, marked)
            assert_valid_refinement(mesh)
            assert mesh.tri_areas().sum() == pytest.approx(total, rel=1e-12)
            if mesh.nt > 4000:
                break


def test_refine_marked_repeated_corner_marking_keeps_shape_regularity():
    # Repeatedly refining only the elements at the reentrant corner is the
    # adaptive worst case; green closure must keep the aspect ratios bounded.
    mesh = make_lshape_mesh()
    for _ in range(10):
        d = np.linalg.norm(mesh.tri_centroids(), axis=1)
        marked = np.argsort(d)[:4]
        mesh = refine_marked(mesh, marked)
        assert_valid_refinement(mesh)
    assert mesh_stats(mesh).max_ratio <= 8.0


@pytest.mark.parametrize("name", ["p1", "p2", "p2-refined"])
def test_radius_ratios_do_not_change_with_the_scale(name):
    # the ratio of a triangle scaled to a longest edge of 1: no product of
    # three lengths over- or underflows (pytest turns a RuntimeWarning
    # into an error), and the mesh statistics and the refinement bound
    # keep their values
    mesh = get_problem(name[:2]).initial_mesh()
    if name.endswith("refined"):
        mesh = refine_marked(refine_marked(mesh, [0]), [1, 2])
        assert len(mesh.green_pairs)
    ratio, bound = mesh_stats(mesh).max_ratio, max_ratio_bound(mesh)
    for scale in (1e150, 1e-150):
        scaled = build_mesh(scale * mesh.vertices, mesh.triangles, mesh.region)
        scaled.green_pairs = mesh.green_pairs
        assert mesh_stats(scaled).max_ratio == pytest.approx(ratio, rel=1e-12)
        assert max_ratio_bound(scaled) == pytest.approx(bound, rel=1e-12)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    mesh = refine_marked(make_lshape_mesh(), np.array([0, 5, 7]))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert mesh.green_pairs.shape[0] > 0
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.region, mesh.region)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.green_pairs, mesh.green_pairs)


def test_refined_and_loaded_green_pairs_are_read_only(tmp_path):
    mesh = refine_marked(make_lshape_mesh(), np.array([0, 5, 7]))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    for pairs in (mesh.green_pairs, back.green_pairs):
        assert pairs.shape[0] > 0
        with pytest.raises(ValueError, match="read-only"):
            pairs[0, 0] = pairs[0, 1]
    # the attribute itself can still be reassigned, as a mesh without its pairs
    back.green_pairs = np.empty((0, 2), dtype=np.int64)
    assert back.green_pairs.shape == (0, 2)


def test_save_mesh_without_green_pairs_has_no_pair_section(tmp_path):
    mesh = make_square_piecewise_uniform()
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    assert len(path.read_text().splitlines()) == 1 + mesh.nv + mesh.nt
    assert load_mesh(path).green_pairs.shape == (0, 2)


def test_refining_after_save_and_reload_matches_refining_without_restart(tmp_path):
    # Without the green history a restart re-bisects green triangles and
    # the shape regularity degrades.
    mesh = make_lshape_mesh()
    for _ in range(6):
        d = np.linalg.norm(mesh.tri_centroids(), axis=1)
        mesh = refine_marked(mesh, np.argsort(d)[:4])
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    marked = mesh.green_pairs[:, 0]
    direct = refine_marked(mesh, marked)
    restarted = refine_marked(load_mesh(path), marked)
    for name in ("vertices", "triangles", "region", "green_pairs"):
        assert np.array_equal(getattr(restarted, name), getattr(direct, name))


def test_load_mesh_rejects_bad_green_pairs(tmp_path):
    mesh = refine_marked(make_lshape_mesh(), np.array([0, 5, 7]))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    body = lines[: 1 + mesh.nv + mesh.nt]
    t1, t2 = mesh.green_pairs[0]
    apart = int(np.flatnonzero(~np.isin(mesh.tri_edges, mesh.tri_edges[t1]).any(axis=1))[0])
    beside = np.flatnonzero(np.isin(mesh.tri_edges, mesh.tri_edges[t2]).any(axis=1))
    other = int(beside[~np.isin(beside, [t1, t2])][0])  # shares an edge with t2, but no bisection midpoint
    # a triangle in two pairs made a later refine_marked fail, and a pair
    # without a bisection midpoint was silently merged into a worse mesh
    twice = ([f"{t1} {t2}", f"{t1} {t2}"], [f"{t1} {t2}", f"{t2} {other}"])
    for pairs in ([f"{t1} {mesh.nt}"], [f"-1 {t2}"], [f"{t1} {apart}"], [f"{t1} {t1}"], *twice, [f"{t2} {other}"]):
        path.write_text("\n".join(body + [str(len(pairs))] + pairs) + "\n")
        with pytest.raises(ValueError, match="green pair"):
            load_mesh(path)
    path.write_text("\n".join(lines[:-1]) + "\n")  # pair section cut short
    with pytest.raises(ValueError, match="expected"):
        load_mesh(path)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("3 x\n0 0\n1 0\n0 1\n0 1 2 0\n", "not an integer: 'x', the triangle count", id="triangle-count"),
        pytest.param("1e30 1\n0 0\n1 0\n0 1\n0 1 2 0\n", "not an integer: '1e30', the vertex count", id="vertex-count"),
        pytest.param("3 1\n0 0\n1 abc\n0 1\n0 1 2 0\n", "not a number: 'abc', the y coordinate of vertex 1", id="coordinate"),
        pytest.param("3 1\n0 0\n1 0\n0 1\n0 1 2 1.5\n", "not an integer: '1.5', the region of triangle 0", id="region"),
        pytest.param(
            "3 1\n0 0\n1 0\n0 1\n0 1 2 99999999999999999999\n",
            "an integer does not fit in int64: '99999999999999999999', the region of triangle 0",
            id="int64-overflow",
        ),
        pytest.param(
            "4 2\n0 0\n1 0\n0 1\n.5 .5\n0 1 3 0\n0 3 2 0\n1.0\n0 1\n",
            "not an integer: '1.0', the green-pair count",
            id="green-pair-count",
        ),
        pytest.param("4 2\n0 0\n1 0\n0 1\n.5 .5\n0 1 3 0\n0 x 2 0\n1\n0 1\n", "not an integer: 'x', corner 1 of triangle 1", id="corner"),
        pytest.param(
            "4 2\n0 0\n1 0\n0 1\n.5 .5\n0 1 3 0\n0 3 2 0\n1\n0 b\n",
            "not an integer: 'b', triangle 1 of green pair 0",
            id="green-pair-entry",
        ),
    ],
)
def test_load_mesh_names_a_token_that_does_not_parse_and_its_place(tmp_path, text, message):
    # numpy's own message named neither the file nor the place
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_mesh(path)
    assert str(exc.value) == f"mesh file {path}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("-1 1\n0 0\n1 0\n0 1\n0 1 2 0\n", "the vertex count -1 must not be negative", id="vertex-count"),
        pytest.param("3 -1\n0 0\n1 0\n0 1\n0 1 2 0\n", "the triangle count -1 must not be negative", id="triangle-count"),
        pytest.param("3 1\n0 0\n1 0\n0 1\n0 1 2 0\n-1\n", "the green-pair count -1 must not be negative", id="green-pair-count"),
    ],
)
def test_load_mesh_rejects_a_negative_count(tmp_path, text, message):
    # a negative count once gave a token count that did not match, naming no sign
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_mesh(path)
    assert str(exc.value) == f"mesh file {path}: {message}"


def test_load_mesh_rejects_truncated_file(tmp_path):
    mesh = make_square_piecewise_uniform()
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-3]) + "\n")
    with pytest.raises(ValueError):
        load_mesh(path)


def test_load_mesh_names_the_second_of_two_pieces(tmp_path):
    # two copies of the level-3 p1 mesh, side by side: each piece would
    # leave one more kernel in the solve
    mesh = make_square_piecewise_uniform(3)
    vertices = np.vstack([mesh.vertices, mesh.vertices + [2.0, 0.0]])
    triangles = np.vstack([mesh.triangles, mesh.triangles + mesh.nv])
    save_mesh(build_mesh(vertices, triangles, np.tile(mesh.region, 2)), tmp_path / "mesh.txt")
    message = f"the triangles form 2 edge-connected pieces; triangle {mesh.nt} is not edge-connected to triangle 0"
    with pytest.raises(ValueError, match=message):
        load_mesh(tmp_path / "mesh.txt")


def test_a_mesh_with_a_hole_loads_and_solves(tmp_path):
    # the unit square without its middle ninth: one piece, two boundary loops
    x = np.linspace(0.0, 1.0, 4)
    vertices = np.stack(np.meshgrid(x, x), axis=-1).reshape(-1, 2)  # vertex i + 4 j at (x_i, x_j)
    a = np.array([i + 4 * j for j in range(3) for i in range(3) if (i, j) != (1, 1)])
    triangles = np.vstack([np.stack([a, a + 1, a + 5], 1), np.stack([a, a + 5, a + 4], 1)])
    save_mesh(build_mesh(vertices, triangles), tmp_path / "hole.txt")
    mesh = load_mesh(tmp_path / "hole.txt")
    assert (mesh.nt, len(mesh.boundary_edges)) == (16, 16)
    problem = get_problem("p1")
    errors = []
    for _ in range(3):
        solution = solve_oseen(problem, mesh)
        assert solution.residual <= 1e-9
        errors.append(np.abs(solution.u.coeffs.T - problem.exact_u(mesh.tri_centroids())).max())
        mesh = uniform_quad_refine(mesh)
    assert errors[0] > 3 * errors[1] > 9 * errors[2]


def test_find_tjunctions_detects_constructed_one():
    # Sanity-check the scanner itself on a deliberately nonconforming set
    # of coordinates (not a Mesh: build_mesh would reject it).
    class Fake:
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.5, 1.0]])
        edges = np.array([[0, 1], [0, 3], [1, 3], [2, 3]])

    assert find_tjunctions(Fake()) == [(0, 1, 2)]


@pytest.mark.parametrize("make", [make_square_piecewise_uniform, make_lshape_mesh, two_triangle_square])
def test_uniform_quad_refine_writes_the_children_of_p_as_the_red_group_at_4p(make):
    coarse = make()
    fine = uniform_quad_refine(coarse)
    assert red_groups(coarse.triangles).size == 0
    assert np.array_equal(red_groups(fine.triangles), 4 * np.arange(coarse.nt))
    assert np.array_equal(red_groups(uniform_quad_refine(fine).triangles), 4 * np.arange(fine.nt))
    # the corner children start at the parent's vertices, which keep their indices
    assert np.array_equal(fine.vertices[: coarse.nv], coarse.vertices)
    assert np.array_equal(fine.triangles.reshape(coarse.nt, 4, 3)[:, :3, 0], coarse.triangles)
    parent = coarse.vertices[coarse.triangles]  # (nt, 3, 2)
    children = fine.vertices[fine.triangles].reshape(coarse.nt, 4, 3, 2)
    # each child lies inside its parent and covers a quarter of it
    d = np.stack([parent[:, 1] - parent[:, 0], parent[:, 2] - parent[:, 0]], axis=2)  # columns b - a, c - a
    bary = np.linalg.solve(d[:, None], (children - parent[:, None, None, 0]).transpose(0, 1, 3, 2))
    assert bary.min() >= -1e-12 and bary.sum(axis=2).max() <= 1.0 + 1e-12
    assert np.allclose(fine.tri_areas().reshape(-1, 4), coarse.tri_areas()[:, None] / 4, rtol=1e-12, atol=0)
    # the last child is the middle one, with the parent's edge midpoints as vertices
    mids = 0.5 * (parent[:, [1, 2, 0]] + parent[:, [2, 0, 1]])
    assert np.array_equal(children[:, 3], mids)


def _group_rows(mesh):
    """The rows of every red group of `mesh`, as a set of tuples."""
    return {tuple(mesh.triangles[g : g + 4].ravel().tolist()) for g in red_groups(mesh.triangles)}


def test_built_loaded_and_adapted_meshes_keep_their_red_groups(tmp_path):
    # the groups live in the rows, so every mesh made from the rows has them
    fine = uniform_quad_refine(make_square_piecewise_uniform())
    groups = _group_rows(fine)
    assert len(groups) == fine.nt // 4
    assert _group_rows(build_mesh(fine.vertices, fine.triangles, fine.region)) == groups
    save_mesh(fine, tmp_path / "mesh.txt")
    assert _group_rows(load_mesh(tmp_path / "mesh.txt")) == groups
    assert _group_rows(refine_marked(fine, [])) == groups
    # a red split is written as a group, and the groups no refinement touched are carried
    once = refine_marked(fine, [0])
    rows = {tuple(t) for t in once.triangles.tolist()}
    carried = {g for g in groups if all(tuple(t) in rows for t in np.reshape(g, (4, 3)).tolist())}
    split = tuple(once.triangles[:4].ravel().tolist())
    assert 0 < len(carried) < len(groups) and _group_rows(once) == carried | {split}
    assert np.array_equal(once.triangles[:3, 0], fine.triangles[0])
    everywhere = refine_marked(fine, np.arange(fine.nt))
    assert np.array_equal(red_groups(everywhere.triangles), 4 * np.arange(fine.nt))
