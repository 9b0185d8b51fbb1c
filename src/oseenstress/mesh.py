"""Conforming triangle meshes with red-green adaptive refinement.

Meshes are plain arrays: vertices, counterclockwise triangles, globally
oriented edges and a per-triangle region tag.  Regions mark the coarse
patches of a piecewise-uniform grid hierarchy: both generators tag every
initial triangle as its own region, and refinement inherits the tag, so
uniform quad-refinement keeps each region an exactly uniform sub-grid
(every pair of adjacent same-region triangles forms a parallelogram).

Adaptive refinement is red-green: marked triangles are split into four
similar children (red), and hanging nodes are removed either by propagating
red splits or by a single bisection (green).  Green pairs are recorded and
are coalesced back into their parent before that parent is refined again,
which keeps the shape regularity of the hierarchy bounded.

Treat ``Mesh`` instances as immutable; all operations return new meshes.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshStats",
    "build_mesh",
    "uniform_quad_refine",
    "refine_marked",
    "make_square_piecewise_uniform",
    "make_lshape_mesh",
    "mesh_stats",
    "save_mesh",
    "load_mesh",
    "is_piecewise_uniform",
    "group_rows",
]


@dataclass
class Mesh:
    """A conforming triangulation of a polygonal domain.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates.
    triangles : ndarray, shape (nt, 3)
        Vertex indices, counterclockwise.
    edges : ndarray, shape (ne, 2)
        Unique edges as (low, high) vertex index pairs; the global edge
        orientation runs from the lower to the higher vertex index and the
        global unit normal is the 90-degree clockwise rotation of the unit
        tangent.
    tri_edges : ndarray, shape (nt, 3)
        Global edge index of each local edge; local edge k is opposite
        local vertex k.
    tri_signs : ndarray, shape (nt, 3)
        +1 where the triangle's outward normal on that edge coincides with
        the global edge normal, else -1.  The two signs stored for an
        interior edge are opposite.
    boundary_edges : ndarray, shape (nb,)
        Indices of edges lying on the domain boundary.
    region : ndarray, shape (nt,)
        Coarse-patch tag, inherited under refinement.
    green_pairs : ndarray, shape (ng, 2)
        Triangle index pairs created by green (bisection) closure.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_signs: np.ndarray
    boundary_edges: np.ndarray
    region: np.ndarray
    green_pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    @property
    def nv(self) -> int:
        return self.vertices.shape[0]

    @property
    def nt(self) -> int:
        return self.triangles.shape[0]

    @property
    def ne(self) -> int:
        return self.edges.shape[0]

    def tri_areas(self) -> np.ndarray:
        """Signed areas (positive for the stored CCW orientation)."""
        v = self.vertices[self.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def tri_centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def tri_diameters(self) -> np.ndarray:
        """Longest edge of each triangle."""
        v = self.vertices[self.triangles]
        e = np.stack(
            [v[:, 1] - v[:, 2], v[:, 2] - v[:, 0], v[:, 0] - v[:, 1]], axis=1
        )
        return np.linalg.norm(e, axis=2).max(axis=1)

    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on the boundary."""
        return np.unique(self.edges[self.boundary_edges])

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.linalg.norm(d, axis=1)

    def edge_normals(self) -> np.ndarray:
        """Global unit normals (90-degree clockwise rotation of the tangent)."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        t = d / np.linalg.norm(d, axis=1)[:, None]
        return np.stack([t[:, 1], -t[:, 0]], axis=1)

    def edge_points(self, t: np.ndarray, edges=None) -> np.ndarray:
        """Points at parameters `t` in [0, 1] along oriented edges.

        Returns an array of shape (len(edges), len(t), 2); `edges` defaults
        to all edges.
        """
        if edges is None:
            edges = np.arange(self.ne)
        va = self.vertices[self.edges[edges, 0]]
        vb = self.vertices[self.edges[edges, 1]]
        return va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]

    def edge_owners(self):
        """Triangle and local edge index of both sides of every edge.

        Returns ``(tri, loc)``, each of shape (ne, 2).  Side 0 is the
        triangle of lower index; side 1 is -1 on boundary edges.
        """
        sides = group_rows(self.tri_edges, self.ne, width=2)  # flat index 3 t + k
        tri, loc = np.divmod(sides, 3)  # -1 // 3 is already -1
        loc[sides < 0] = -1
        return tri, loc

    def map_ref_points(self, ref_pts: np.ndarray, tris=None) -> np.ndarray:
        """Map reference-triangle points into physical triangles.

        Parameters
        ----------
        ref_pts : ndarray, shape (nq, 2)
            Points in reference coordinates.
        tris : array of triangle indices, optional
            Defaults to all triangles.

        Returns
        -------
        ndarray, shape (len(tris), nq, 2)
        """
        if tris is None:
            tris = np.arange(self.nt)
        v = self.vertices[self.triangles[tris]]
        v0 = v[:, 0][:, None, :]
        d1 = (v[:, 1] - v[:, 0])[:, None, :]
        d2 = (v[:, 2] - v[:, 0])[:, None, :]
        xi = ref_pts[None, :, 0, None]
        eta = ref_pts[None, :, 1, None]
        return v0 + xi * d1 + eta * d2


def group_rows(keys, n: int, width: int = 0, values=None) -> np.ndarray:
    """Group `values` by key into an (n, w) table padded with -1.

    Row k lists, in their order in the flattened `keys` (a stable
    argsort), the entries of `values` whose key is k; `values` defaults
    to the flat positions ``0..keys.size-1``.  w is the largest group
    size, but at least `width`.
    """
    keys = np.asarray(keys, dtype=np.int64).ravel()
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n)
    grouped = keys[order]
    rank = np.arange(keys.size) - (np.cumsum(counts) - counts)[grouped]
    table = np.full((n, max(width, counts.max(initial=0))), -1, dtype=np.int64)
    table[grouped, rank] = order if values is None else np.asarray(values).ravel()[order]
    return table


@dataclass(frozen=True)
class MeshStats:
    """Size and shape summary of a mesh."""

    nt: int
    h_max: float
    h_min: float
    max_ratio: float


def build_mesh(vertices, triangles, region=None) -> Mesh:
    """Build a validated mesh with full edge topology.

    Parameters
    ----------
    vertices : array-like, shape (nv, 2)
    triangles : array-like, shape (nt, 3)
        Vertex indices; clockwise triangles are reoriented.
    region : array-like, shape (nt,), optional
        Coarse-patch tags; defaults to all zeros.

    Raises
    ------
    ValueError
        On duplicate vertices, out-of-range indices, zero-area triangles
        or an edge shared by more than two triangles.
    """
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError(f"vertices must have shape (nv, 2), got {vertices.shape}")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError(f"triangles must have shape (nt, 3), got {triangles.shape}")
    nv = vertices.shape[0]
    nt = triangles.shape[0]
    if np.unique(vertices, axis=0).shape[0] != nv:
        raise ValueError("duplicate vertices in input")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= nv:
        raise ValueError("triangle vertex index out of range")

    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flip = area2 < 0
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        area2 = np.abs(area2)
    scale = np.maximum(np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1))
    if np.any(area2 <= 1e-14 * scale**2):
        bad = int(np.argmin(area2 / np.maximum(scale**2, 1e-300)))
        raise ValueError(f"zero-area triangle at index {bad}")

    # local edge k is opposite local vertex k
    raw = np.stack(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=1
    ).reshape(-1, 2)
    lo_hi = np.sort(raw, axis=1)
    edges, inverse = np.unique(lo_hi, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(nt, 3)
    counts = np.bincount(tri_edges.ravel(), minlength=edges.shape[0])
    if np.any(counts > 2):
        bad = int(np.argmax(counts))
        raise ValueError(
            f"nonconforming mesh: edge {tuple(edges[bad])} shared by {counts[bad]} triangles"
        )
    boundary_edges = np.flatnonzero(counts == 1)
    # +1 when the CCW traversal of the local edge runs low -> high index,
    # i.e. when the outward normal equals the global edge normal
    tri_signs = np.where(raw[:, 0] < raw[:, 1], 1, -1).reshape(nt, 3).astype(np.int64)

    if region is None:
        region = np.zeros(nt, dtype=np.int64)
    else:
        region = np.ascontiguousarray(region, dtype=np.int64)
        if region.shape != (nt,):
            raise ValueError(f"region must have shape ({nt},), got {region.shape}")

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
        tri_signs=tri_signs,
        boundary_edges=boundary_edges,
        region=region,
    )


def mesh_stats(mesh: Mesh) -> MeshStats:
    """Triangle count, extreme diameters and worst circum/in-radius ratio."""
    v = mesh.vertices[mesh.triangles]
    a = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
    b = np.linalg.norm(v[:, 2] - v[:, 0], axis=1)
    c = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
    area = mesh.tri_areas()
    s = 0.5 * (a + b + c)
    circum = a * b * c / (4.0 * area)
    inr = area / s
    h = np.maximum(a, np.maximum(b, c))
    return MeshStats(
        nt=mesh.nt,
        h_max=float(h.max()),
        h_min=float(h.min()),
        max_ratio=float((circum / inr).max()),
    )


def uniform_quad_refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four similar children via edge midpoints.

    Midpoints are created once per edge, so children of neighbouring
    triangles share vertices bit-exactly and the result is conforming.
    """
    nv = mesh.nv
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    new_vertices = np.vstack([mesh.vertices, mids])
    m = nv + mesh.tri_edges  # (nt, 3): midpoint of local edge k (opposite vertex k)
    t = mesh.triangles
    children = np.empty((4 * mesh.nt, 3), dtype=np.int64)
    children[0::4] = np.stack([t[:, 0], m[:, 2], m[:, 1]], axis=1)
    children[1::4] = np.stack([t[:, 1], m[:, 0], m[:, 2]], axis=1)
    children[2::4] = np.stack([t[:, 2], m[:, 1], m[:, 0]], axis=1)
    children[3::4] = np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1)
    region = np.repeat(mesh.region, 4)
    return build_mesh(new_vertices, children, region)


def _coalesce_green(vertices: np.ndarray, triangles: np.ndarray, region: np.ndarray, green_pairs: np.ndarray):
    """Replace green pairs by their parents.

    Returns
    -------
    tris : ndarray, shape (nb, 3)
        Skeleton triangles (all non-green triangles plus green parents).
    region : ndarray, shape (nb,)
    origin : ndarray, shape (nt,)
        Skeleton index of each original triangle.
    seeds : dict
        Maps a parent's split edge (low, high) to ``(midpoint vertex,
        skeleton index of the parent)``; these edges are already
        subdivided on the neighbouring side.
    """
    nt = triangles.shape[0]
    green_member = np.zeros(nt, dtype=bool)
    green_member[green_pairs.ravel()] = True
    keep = np.flatnonzero(~green_member)
    tris = [triangles[keep]]
    regions = [region[keep]]
    origin = np.full(nt, -1, dtype=np.int64)
    origin[keep] = np.arange(keep.size)
    seeds = {}
    extra_t = []
    extra_r = []
    nb = keep.size
    for t1, t2 in green_pairs:
        s1 = set(triangles[t1])
        s2 = set(triangles[t2])
        shared = sorted(s1 & s2)
        only1 = (s1 - s2).pop()
        only2 = (s2 - s1).pop()
        mid_ab = 0.5 * (vertices[only1] + vertices[only2])
        d0 = np.linalg.norm(vertices[shared[0]] - mid_ab)
        d1 = np.linalg.norm(vertices[shared[1]] - mid_ab)
        if d0 <= d1:
            midpoint, apex = shared[0], shared[1]
        else:
            midpoint, apex = shared[1], shared[0]
        parent = np.array([only1, only2, apex], dtype=np.int64)
        pv = vertices[parent]
        if (pv[1, 0] - pv[0, 0]) * (pv[2, 1] - pv[0, 1]) - (pv[1, 1] - pv[0, 1]) * (pv[2, 0] - pv[0, 0]) < 0:
            parent = parent[[0, 2, 1]]
        extra_t.append(parent)
        extra_r.append(region[t1])
        origin[t1] = origin[t2] = nb
        key = (min(only1, only2), max(only1, only2))
        seeds[key] = (int(midpoint), nb)
        nb += 1
    if extra_t:
        tris.append(np.array(extra_t, dtype=np.int64))
        regions.append(np.array(extra_r, dtype=np.int64))
    return np.vstack(tris), np.concatenate(regions), origin, seeds


def refine_marked(mesh: Mesh, marked) -> Mesh:
    """Red-refine the marked triangles; restore conformity by red-green closure.

    Every marked triangle is split into four similar children.  A green pair
    with a marked (or closure-bisected) member is first coalesced into its
    parent and the parent is red-refined, so green triangles are never
    bisected twice.  Unmarked triangles left with one hanging midpoint are
    green-bisected and the pair recorded; those with two or more are
    red-refined (closure propagation).

    Parameters
    ----------
    mesh : Mesh
    marked : array-like of int
        Triangle indices to refine; may be empty.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.nt):
        raise IndexError(f"marked triangle index out of range 0..{mesh.nt - 1}")
    if marked.size == 0 and mesh.green_pairs.shape[0] == 0:
        return build_mesh(mesh.vertices, mesh.triangles, mesh.region)

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    cur_verts = mesh.vertices
    cur_tris = mesh.triangles
    cur_region = mesh.region
    cur_greens = mesh.green_pairs
    marked_now = marked
    # `known` maps an edge (vertex-id pair) to its midpoint vertex for every
    # edge ever split during this call, including the hidden half-edges of
    # coalesced green pairs.  A split landing on such a half-edge is invisible
    # to the combinatorial closure (the skeleton only carries the parent
    # edge), so after each pass any output triangle still holding a known
    # edge is refined again in a follow-up pass.
    known: dict = {}
    forced: set = set()

    for _ in range(64):
        tris, region, origin, seeds = _coalesce_green(cur_verts, cur_tris, cur_region, cur_greens)
        nb = tris.shape[0]
        for key, (mid, _parent) in seeds.items():
            known[key] = mid

        red = np.zeros(nb, dtype=bool)
        if marked_now.size:
            red[origin[marked_now]] = True
        # if a seeded edge's half is itself already split, re-emitting the
        # green pair would bury a hanging node; go red so the half-edge
        # resurfaces as a child's real edge for the next pass to bisect
        for (a, b), (mid, parent) in seeds.items():
            half0, half1 = edge_key(a, mid), edge_key(mid, b)
            if half0 in known or half1 in known or half0 in forced or half1 in forced:
                red[parent] = True

        split = {key for key in seeds}
        split.update(forced)
        for t in np.flatnonzero(red):
            a, b, c = tris[t]
            split.update((edge_key(a, b), edge_key(b, c), edge_key(c, a)))

        # closure: a triangle with >= 2 split edges is promoted to red
        changed = True
        while changed:
            changed = False
            for t in range(nb):
                if red[t]:
                    continue
                a, b, c = tris[t]
                keys = (edge_key(b, c), edge_key(c, a), edge_key(a, b))
                if sum(k in split for k in keys) >= 2:
                    red[t] = True
                    split.update(keys)
                    changed = True

        new_rows = []
        next_vid = cur_verts.shape[0]

        def get_midpoint(a, b):
            nonlocal next_vid
            key = edge_key(a, b)
            vid = known.get(key)
            if vid is None:
                new_rows.append(0.5 * (cur_verts[a] + cur_verts[b]))
                vid = next_vid
                known[key] = vid
                next_vid += 1
            return vid

        out_t = []
        out_r = []
        pairs = []
        for t in range(nb):
            a, b, c = tris[t]
            reg = region[t]
            if red[t]:
                m0 = get_midpoint(b, c)
                m1 = get_midpoint(c, a)
                m2 = get_midpoint(a, b)
                out_t.extend([(a, m2, m1), (b, m0, m2), (c, m1, m0), (m0, m1, m2)])
                out_r.extend([reg] * 4)
                continue
            keys = (edge_key(b, c), edge_key(c, a), edge_key(a, b))
            hanging = [k for k, key in enumerate(keys) if key in split]
            if len(hanging) == 0:
                out_t.append((a, b, c))
                out_r.append(reg)
            else:
                # exactly one hanging midpoint: bisect toward the opposite vertex
                k = hanging[0]
                verts = (a, b, c)
                vk = verts[k]
                vn = verts[(k + 1) % 3]
                vp = verts[(k + 2) % 3]
                m = get_midpoint(*keys[k])
                i1 = len(out_t)
                out_t.extend([(vk, vn, m), (vk, m, vp)])
                out_r.extend([reg] * 2)
                pairs.append((i1, i1 + 1))

        if new_rows:
            cur_verts = np.vstack([cur_verts, np.array(new_rows)])
        out_t = np.array(out_t, dtype=np.int64)
        out_r = np.array(out_r, dtype=np.int64)
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)

        # audit: no output triangle may keep an edge whose midpoint already
        # exists as a mesh vertex
        member = np.zeros(out_t.shape[0], dtype=bool)
        member[pairs.ravel()] = True
        bad_marked = []
        bad_forced = set()
        for t in range(out_t.shape[0]):
            a, b, c = out_t[t]
            for key in (edge_key(b, c), edge_key(c, a), edge_key(a, b)):
                if key in known:
                    if member[t]:
                        bad_marked.append(t)
                    else:
                        bad_forced.add(key)
        if not bad_marked and not bad_forced:
            refined = build_mesh(cur_verts, out_t, out_r)
            refined.green_pairs = pairs
            return refined
        cur_tris = out_t
        cur_region = out_r
        cur_greens = pairs
        marked_now = np.unique(np.array(bad_marked, dtype=np.int64))
        forced = bad_forced
    raise RuntimeError("conformity restoration did not converge")


# Irregular 19-triangle Delaunay triangulation of the unit square used as the
# uniform convergence study's starting grid: 19 roughly equal-sized,
# well-shaped triangles (circumradius/inradius <= 2.51, areas within
# [0.0428, 0.0589]).  Each triangle is its own region, so repeated
# quad-refinement keeps the grid piecewise uniform with these 19 patches.
# Coordinates are frozen so results reproduce bit for bit.
_SQUARE19_VERTICES = np.array(
    [
        [0.0, 0.0],
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
        [0.2607, 0.0],
        [0.5104, 0.0],
        [0.7481, 0.0],
        [1.0, 0.3396],
        [1.0, 0.6857],
        [0.3615, 1.0],
        [0.7274, 1.0],
        [0.0, 0.3315],
        [0.0, 0.6690],
        [0.6844, 0.6884],
        [0.6687, 0.3599],
        [0.3376, 0.3498],
        [0.3296, 0.6854],
    ]
)

_SQUARE19_TRIANGLES = np.array(
    [
        [15, 5, 14],
        [7, 8, 14],
        [5, 6, 14],
        [7, 6, 1],
        [6, 7, 14],
        [15, 4, 5],
        [4, 11, 0],
        [11, 4, 15],
        [16, 9, 3],
        [16, 15, 14],
        [12, 11, 15],
        [16, 12, 15],
        [12, 16, 3],
        [16, 13, 9],
        [8, 13, 14],
        [13, 16, 14],
        [13, 10, 9],
        [10, 8, 2],
        [10, 13, 8],
    ],
    dtype=np.int64,
)


def make_square_piecewise_uniform(refinements: int = 0) -> Mesh:
    """The 19-triangle unit-square mesh, optionally quad-refined.

    The triangle count sequence under uniform refinement is
    19, 76, 304, 1216, 4864, 19456, ...
    """
    if refinements < 0:
        raise ValueError("refinements must be >= 0")
    mesh = build_mesh(
        _SQUARE19_VERTICES.copy(),
        _SQUARE19_TRIANGLES.copy(),
        np.arange(_SQUARE19_TRIANGLES.shape[0], dtype=np.int64),
    )
    for _ in range(refinements):
        mesh = uniform_quad_refine(mesh)
    return mesh


def make_lshape_mesh() -> Mesh:
    """24-triangle mesh of the L-shaped domain [-1,1]^2 minus [0,1]x[-1,0].

    The reentrant corner (0, 0) is a mesh vertex.  Each triangle is its own
    region.
    """
    squares = []
    for x0 in (-1.0, -0.5, 0.0, 0.5):
        for y0 in (-1.0, -0.5, 0.0, 0.5):
            if x0 >= 0.0 and y0 < 0.0:
                continue  # the removed quadrant
            squares.append((x0, y0))
    vid = {}
    vertices = []

    def vertex(x, y):
        key = (round(x * 2), round(y * 2))
        if key in vid:
            return vid[key]
        vid[key] = len(vertices)
        vertices.append((x, y))
        return vid[key]

    tris = []
    for x0, y0 in squares:
        ll = vertex(x0, y0)
        lr = vertex(x0 + 0.5, y0)
        ur = vertex(x0 + 0.5, y0 + 0.5)
        ul = vertex(x0, y0 + 0.5)
        tris.append((ll, lr, ur))
        tris.append((ll, ur, ul))
    tris = np.array(tris, dtype=np.int64)
    return build_mesh(np.array(vertices), tris, np.arange(tris.shape[0], dtype=np.int64))


def is_piecewise_uniform(mesh: Mesh, tol: float = 1e-12) -> bool:
    """Check that adjacent same-region triangles form exact parallelograms.

    For an interior edge (p, q) shared by triangles with opposite vertices
    r1 and r2 of the same region, the union is a parallelogram exactly when
    v_p + v_q = v_r1 + v_r2.
    """
    tri, loc = mesh.edge_owners()
    inner = np.flatnonzero(tri[:, 1] >= 0)
    e = inner[mesh.region[tri[inner, 0]] == mesh.region[tri[inner, 1]]]
    opposite = mesh.triangles[tri[e], loc[e]]  # (m, 2): vertex opposite each side
    lhs = mesh.vertices[mesh.edges[e, 0]] + mesh.vertices[mesh.edges[e, 1]]
    rhs = mesh.vertices[opposite[:, 0]] + mesh.vertices[opposite[:, 1]]
    scale = mesh.tri_diameters().max()
    return not np.any(np.abs(lhs - rhs).max(axis=1) > tol * scale)


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as plain text.

    Format: one header line ``nv nt``, then ``nv`` lines ``x y`` with 17
    significant digits (bit-exact round trip for doubles), then ``nt``
    lines ``i0 i1 i2 region``.  A mesh with green pairs ends with a line
    ``ng`` and ``ng`` lines ``t1 t2``, so a reloaded mesh refines exactly
    as the saved one does; a mesh without pairs has no such section.
    """
    lines = [f"{mesh.nv} {mesh.nt}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for (a, b, c), r in zip(mesh.triangles, mesh.region):
        lines.append(f"{a} {b} {c} {r}")
    if mesh.green_pairs.shape[0]:
        lines.append(f"{mesh.green_pairs.shape[0]}")
        lines.extend(f"{t1} {t2}" for t1, t2 in mesh.green_pairs)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    """Read a mesh written by :func:`save_mesh`, with or without green pairs.

    Raises ``ValueError`` on a file of the wrong length, invalid mesh data,
    or a green pair out of range or whose triangles share no single edge.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"mesh file {path} is truncated")
    nv, nt = int(tokens[0]), int(tokens[1])
    body = 2 + 2 * nv + 4 * nt
    ng = int(tokens[body]) if len(tokens) > body else 0
    need = body + 1 + 2 * ng if len(tokens) > body else body
    if len(tokens) != need:
        raise ValueError(
            f"mesh file {path}: expected {need} tokens for nv={nv}, nt={nt}, got {len(tokens)}"
        )
    coords = np.array(tokens[2 : 2 + 2 * nv], dtype=np.float64).reshape(nv, 2)
    rest = np.array(tokens[2 + 2 * nv : body], dtype=np.int64).reshape(nt, 4)
    mesh = build_mesh(coords, rest[:, :3], rest[:, 3])
    pairs = np.array(tokens[body + 1 :], dtype=np.int64).reshape(ng, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= nt):
        raise ValueError(f"mesh file {path}: green pair index out of range 0..{nt - 1}")
    te = mesh.tri_edges
    shared = (te[pairs[:, 0], :, None] == te[pairs[:, 1], None, :]).sum(axis=(1, 2))
    if np.any(shared != 1):
        t1, t2 = pairs[np.argmax(shared != 1)]
        raise ValueError(f"mesh file {path}: green pair ({t1}, {t2}) does not share one edge")
    mesh.green_pairs = pairs
    return mesh
