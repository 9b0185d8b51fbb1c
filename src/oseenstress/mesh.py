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
which keeps the shape regularity of the hierarchy bounded.  Refinement is
array code over int64 edge keys (``lo * 2**32 + hi``, the same keys that
number the edges of every mesh), run in passes: coalesce the green pairs,
seed red, sweep the closure, emit the children, then audit the children
for an edge whose midpoint is already a vertex, which a split on the
hidden half-edge of a coalesced pair leaves behind; any such edge sends
the result through one more pass.

Treat ``Mesh`` instances as immutable; all operations return new meshes.
:func:`build_mesh` stores read-only arrays, so the per-cell and per-edge
geometry each mesh computes once and keeps (areas, centroids, vertex
offsets, edge lengths and normals) cannot go stale.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

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
    coarse : Mesh or None
        The mesh this one was uniformly refined from
        (:func:`uniform_quad_refine`): the children of its triangle P are
        triangles 4P..4P+3, the last one the middle child.  None for a
        mesh built any other way.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_signs: np.ndarray
    boundary_edges: np.ndarray
    region: np.ndarray
    green_pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    coarse: Optional["Mesh"] = field(default=None, repr=False)

    @property
    def nv(self) -> int:
        return self.vertices.shape[0]

    @property
    def nt(self) -> int:
        return self.triangles.shape[0]

    @property
    def ne(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def _cell_geometry(self):
        """Areas (nt,), centroids (nt, 2) and second moments (nt, 2, 2), read-only."""
        v = self.vertices[self.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        centroids = v.mean(axis=1)
        d = v - centroids[:, None, :]
        return _read_only(areas, centroids, d.transpose(0, 2, 1) @ d / 12.0)

    @cached_property
    def _edge_geometry(self):
        """Lengths (ne,) and global unit normals (ne, 2), read-only."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        lengths = np.linalg.norm(d, axis=1)
        t = d / lengths[:, None]
        return _read_only(lengths, np.stack([t[:, 1], -t[:, 0]], axis=1))

    def tri_areas(self) -> np.ndarray:
        """Signed areas (positive for the stored CCW orientation)."""
        return self._cell_geometry[0]

    def tri_centroids(self) -> np.ndarray:
        return self._cell_geometry[1]

    def tri_second_moments(self) -> np.ndarray:
        """``M = (1/|K|) int_K (x - c)(x - c)^T = S / 12``, ``S = sum_i d_i d_i^T``, shape (nt, 2, 2).

        d_i are the offsets of the vertices from the centroid c; ``|K| diag(1, M)``
        is the Gram matrix of {1, x - cx, y - cy}.
        """
        return self._cell_geometry[2]

    def tri_diameters(self) -> np.ndarray:
        """Longest edge of each triangle."""
        return self.edge_lengths()[self.tri_edges].max(axis=1)

    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on the boundary."""
        return np.unique(self.edges[self.boundary_edges])

    def edge_lengths(self) -> np.ndarray:
        return self._edge_geometry[0]

    def edge_normals(self) -> np.ndarray:
        """Global unit normals (90-degree clockwise rotation of the tangent)."""
        return self._edge_geometry[1]

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


def _read_only(*arrays):
    """The arrays, each flagged read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


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


def _edge_key(a, b) -> np.ndarray:
    """One int64 key per unordered vertex pair: ``lo * 2**32 + hi``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return (np.minimum(a, b) << 32) | np.maximum(a, b)


def _local_edge_keys(tris: np.ndarray) -> np.ndarray:
    """Edge keys (nt, 3); local edge k is opposite local vertex k."""
    return _edge_key(tris[:, [1, 2, 0]], tris[:, [2, 0, 1]])


def _key_ends(keys: np.ndarray):
    """The (lo, hi) vertex pair of each edge key."""
    return np.divmod(keys, 1 << 32)


def _hanging_boundary_vertex(vertices: np.ndarray, ends: np.ndarray):
    """A boundary vertex inside a boundary edge, as ``(vertex, edge row)``.

    `ends` holds the (a, b) vertex pairs of the boundary edges.  A vertex
    of another edge lying on the open segment (a, b), to 1e-12 of |b - a|,
    is a hanging node: only the edges on either side of it look like
    boundary edges.  Candidates are the boundary vertices inside each
    edge's padded bounding box, taken from the x- or y-sorted vertex list,
    whichever gives fewer.  Returns None when there is none.
    """
    bv = np.unique(ends)
    a, b = vertices[ends[:, 0]], vertices[ends[:, 1]]
    d = b - a
    pad = 1e-12 * np.linalg.norm(d, axis=1)
    lo, hi, order = [], [], []
    for axis in range(2):
        order.append(bv[np.argsort(vertices[bv, axis])])
        coord = vertices[order[-1], axis]
        lo.append(np.searchsorted(coord, np.minimum(a, b)[:, axis] - pad, side="left"))
        hi.append(np.searchsorted(coord, np.maximum(a, b)[:, axis] + pad, side="right"))
    use_y = hi[1] - lo[1] < hi[0] - lo[0]
    first = np.where(use_y, lo[1], lo[0])
    counts = np.where(use_y, hi[1] - lo[1], hi[0] - lo[0])
    edge = np.repeat(np.arange(ends.shape[0]), counts)
    pos = np.repeat(first, counts) + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    v = np.where(use_y[edge], order[1][pos], order[0][pos])
    w = vertices[v] - a[edge]
    de = d[edge]
    along = np.einsum("ij,ij->i", w, de)
    length2 = np.einsum("ij,ij->i", de, de)
    # the edge's own ends give along = 0 and along = length2 exactly
    cross = de[:, 0] * w[:, 1] - de[:, 1] * w[:, 0]
    hit = (np.abs(cross) <= 1e-12 * length2) & (along > 0) & (along < length2)
    if not np.any(hit):
        return None
    first_hit = int(np.argmax(hit))
    return int(v[first_hit]), int(edge[first_hit])


@dataclass(frozen=True)
class MeshStats:
    """Size and shape summary of a mesh."""

    nt: int
    h_max: float
    h_min: float
    max_ratio: float


def build_mesh(vertices, triangles, region=None) -> Mesh:
    """Build a validated mesh with full edge topology.

    The mesh stores read-only copies of the input arrays, so its cached
    geometry cannot go stale; the caller's arrays are left as they are.

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
        On an empty mesh, duplicate vertices, out-of-range indices, a
        vertex that no triangle uses, zero-area triangles, an edge
        shared by more than two triangles or by two on the same side of
        it, or a boundary vertex inside a boundary edge (a hanging node).
    """
    # own copies, flagged read-only below; the caller's arrays stay writable
    vertices = np.array(vertices, dtype=np.float64, order="C")
    triangles = np.array(triangles, dtype=np.int64, order="C")
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError(f"vertices must have shape (nv, 2), got {vertices.shape}")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError(f"triangles must have shape (nt, 3), got {triangles.shape}")
    nv = vertices.shape[0]
    nt = triangles.shape[0]
    if np.unique(vertices, axis=0).shape[0] != nv:
        raise ValueError("duplicate vertices in input")
    if nt == 0:
        raise ValueError("mesh has no triangles")
    if triangles.min() < 0 or triangles.max() >= nv:
        raise ValueError("triangle vertex index out of range")
    unused = np.flatnonzero(np.bincount(triangles.ravel(), minlength=nv) == 0)
    if unused.size:
        raise ValueError(f"vertex {unused[0]} belongs to no triangle")

    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flip = area2 < 0
    if np.any(flip):
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        area2 = np.abs(area2)
    scale = np.maximum(np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1))
    if np.any(area2 <= 1e-14 * scale**2):
        bad = int(np.argmin(area2 / np.maximum(scale**2, 1e-300)))
        raise ValueError(f"zero-area triangle at index {bad}")

    keys, inverse = np.unique(_local_edge_keys(triangles), return_inverse=True)
    edges = np.stack(_key_ends(keys), axis=1)
    tri_edges = inverse.reshape(nt, 3)
    counts = np.bincount(tri_edges.ravel(), minlength=edges.shape[0])
    if np.any(counts > 2):
        bad = int(np.argmax(counts))
        raise ValueError(
            f"nonconforming mesh: edge {tuple(edges[bad])} shared by {counts[bad]} triangles"
        )
    boundary_edges = np.flatnonzero(counts == 1)
    hanging = _hanging_boundary_vertex(vertices, edges[boundary_edges])
    if hanging is not None:
        v, e = hanging
        raise ValueError(
            f"nonconforming mesh: vertex {v} lies inside boundary edge "
            f"{tuple(int(i) for i in edges[boundary_edges[e]])} (a hanging node)"
        )
    # +1 when the CCW traversal of the local edge runs low -> high index,
    # i.e. when the outward normal equals the global edge normal
    tri_signs = np.where(triangles[:, [1, 2, 0]] < triangles[:, [2, 0, 1]], 1, -1).astype(np.int64)
    # two CCW triangles on opposite sides of an edge give it opposite signs
    folded = (counts == 2) & (np.bincount(tri_edges.ravel(), weights=tri_signs.ravel()) != 0)
    if np.any(folded):
        bad = tuple(int(i) for i in edges[np.argmax(folded)])
        raise ValueError(f"folded mesh: both triangles of edge {bad} lie on the same side of it")

    if region is None:
        region = np.zeros(nt, dtype=np.int64)
    else:
        region = np.array(region, dtype=np.int64, order="C")
        if region.shape != (nt,):
            raise ValueError(f"region must have shape ({nt},), got {region.shape}")

    _read_only(vertices, triangles, edges, tri_edges, tri_signs, boundary_edges, region)
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
    a, b, c = mesh.edge_lengths()[mesh.tri_edges].T
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


# Children of triangle (a, b, c).  A red split with midpoints m0, m1, m2 of
# the local edges (opposite a, b, c) indexes the row (a, b, c, m0, m1, m2);
# a green bisection of local edge k with midpoint m indexes (a, b, c, m).
_RED_CHILDREN = np.array([[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]])
_GREEN_CHILDREN = np.array([[[0, 1, 3], [0, 3, 2]], [[1, 2, 3], [1, 3, 0]], [[2, 0, 3], [2, 3, 1]]])


def _red_children(tris: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """The four children (n, 4, 3) of each triangle, given its edge midpoints."""
    return np.hstack([tris, mids])[:, _RED_CHILDREN]


def _update(keys, values, new_keys, new_values):
    """Sorted key/value arrays with `new_keys` added; a new value wins."""
    keys, first = np.unique(np.concatenate([new_keys, keys]), return_index=True)
    return keys, np.concatenate([new_values, values])[first]


def uniform_quad_refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four similar children via edge midpoints.

    Midpoints are created once per edge, so children of neighbouring
    triangles share vertices bit-exactly and the result is conforming.
    The children of triangle P are triangles 4P..4P+3, and the result
    records `mesh` as its ``coarse`` mesh.
    """
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    children = _red_children(mesh.triangles, mesh.nv + mesh.tri_edges)
    region = np.repeat(mesh.region, 4)
    refined = build_mesh(np.vstack([mesh.vertices, mids]), children.reshape(-1, 3), region)
    refined.coarse = mesh
    return refined


def _coalesce_green(vertices: np.ndarray, triangles: np.ndarray, region: np.ndarray, green_pairs: np.ndarray):
    """Replace green pairs by their parents.

    Returns
    -------
    tris : ndarray, shape (nb, 3)
        Skeleton triangles: the non-green triangles, then one parent per
        pair in pair order.
    region : ndarray, shape (nb,)
    origin : ndarray, shape (nt,)
        Skeleton index of each original triangle.
    seeds : tuple of two ndarrays, each shape (ng,)
        Per pair: the edge key of the parent's split edge and its midpoint
        vertex.  These edges are already subdivided on the neighbouring
        side.
    """
    nt = triangles.shape[0]
    member = np.zeros(nt, dtype=bool)
    member[green_pairs.ravel()] = True
    keep = np.flatnonzero(~member)
    t1, t2 = green_pairs.T
    v1, v2 = triangles[t1], triangles[t2]
    in2 = (v1[:, :, None] == v2[:, None, :]).any(axis=2)
    in1 = (v2[:, :, None] == v1[:, None, :]).any(axis=2)
    shared = np.sort(v1[in2].reshape(-1, 2), axis=1)
    only1, only2 = v1[~in2], v2[~in1]
    # the shared vertex nearer the midpoint of the unshared ones is the
    # bisection midpoint, the other is the parent's apex
    mid_ab = 0.5 * (vertices[only1] + vertices[only2])
    d0 = np.linalg.norm(vertices[shared[:, 0]] - mid_ab, axis=1)
    d1 = np.linalg.norm(vertices[shared[:, 1]] - mid_ab, axis=1)
    midpoint = np.where(d0 <= d1, shared[:, 0], shared[:, 1])
    apex = np.where(d0 <= d1, shared[:, 1], shared[:, 0])
    parent = np.stack([only1, only2, apex], axis=1)
    pv = vertices[parent]
    e1 = pv[:, 1] - pv[:, 0]
    e2 = pv[:, 2] - pv[:, 0]
    cw = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    parent[cw] = parent[cw][:, [0, 2, 1]]
    origin = np.full(nt, -1, dtype=np.int64)
    origin[keep] = np.arange(keep.size)
    origin[t1] = origin[t2] = keep.size + np.arange(t1.size)
    seeds = (_edge_key(only1, only2), midpoint)
    return np.vstack([triangles[keep], parent]), np.concatenate([region[keep], region[t1]]), origin, seeds


def refine_marked(mesh: Mesh, marked) -> Mesh:
    """Red-refine the marked triangles; restore conformity by red-green closure.

    Every marked triangle is split into four similar children.  A green pair
    with a marked (or closure-bisected) member is first coalesced into its
    parent and the parent is red-refined, so green triangles are never
    bisected twice.  Unmarked triangles left with one hanging midpoint are
    green-bisected and the pair recorded; those with two or more are
    red-refined (closure propagation).

    Each pass works on the skeleton (the mesh with every green pair merged
    back into its parent): it seeds red from the marks, sweeps the closure
    to a fixed point, emits the children and audits them.  A split landing
    on the hidden half-edge of a coalesced pair is invisible to the
    skeleton, which only carries the parent edge; so the audit looks for
    output triangles that keep an edge whose midpoint is already a vertex,
    and a further pass refines those: such green members are marked, the
    stale edges of other triangles are forced split.  Most calls need one
    pass, some two or three; after 64 passes a ``RuntimeError`` is raised.

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

    verts, tris, region, greens = mesh.vertices, mesh.triangles, mesh.region, mesh.green_pairs
    # every edge split during this call (sorted keys), the split edges of
    # coalesced green parents included, and its midpoint vertex
    known = mids = forced = np.empty(0, dtype=np.int64)
    for _ in range(64):
        skel, skel_region, origin, (seed, seed_mid) = _coalesce_green(verts, tris, region, greens)
        nb = skel.shape[0]
        known, mids = _update(known, mids, seed, seed_mid)
        red = np.zeros(nb, dtype=bool)
        red[origin[marked]] = True

        keys = _local_edge_keys(skel)
        edges, te = np.unique(keys, return_inverse=True)
        te = te.reshape(nb, 3)
        split = np.isin(edges, seed) | np.isin(edges, forced)
        split[te[red]] = True
        # closure: a triangle with >= 2 split edges is promoted to red; the
        # rule is monotone, so whole-skeleton sweeps reach the same red set
        # as promoting one triangle at a time
        while True:
            grow = ~red & (split[te].sum(axis=1) >= 2)
            if not grow.any():
                break
            red |= grow
            split[te[grow]] = True

        hanging = split[te]
        green = ~red & hanging.any(axis=1)
        k = hanging.argmax(axis=1)  # a green triangle bisects its first split edge
        # midpoints are numbered in first-request order, row-major over
        # (triangle, local edge)
        want = red[:, None] | (green[:, None] & (np.arange(3) == k[:, None]))
        request = keys[want]
        fresh, first = np.unique(request[~np.isin(request, known)], return_index=True)
        fresh = fresh[np.argsort(first)]
        lo, hi = _key_ends(fresh)
        known, mids = _update(known, mids, fresh, verts.shape[0] + np.arange(fresh.size))
        verts = np.vstack([verts, 0.5 * (verts[lo] + verts[hi])])
        m = np.full((nb, 3), -1, dtype=np.int64)
        m[want] = mids[np.searchsorted(known, request)]

        count = np.where(red, 4, np.where(green, 2, 1))
        start = np.cumsum(count) - count
        out = np.empty((count.sum(), 3), dtype=np.int64)
        plain = count == 1
        out[start[plain]] = skel[plain]
        out[start[red, None] + np.arange(4)] = _red_children(skel[red], m[red])
        g = np.flatnonzero(green)
        corners = np.column_stack([skel[g], m[g, k[g]]])
        out[start[g, None] + np.arange(2)] = corners[np.arange(g.size)[:, None, None], _GREEN_CHILDREN[k[g]]]
        out_region = np.repeat(skel_region, count)
        pairs = start[g, None] + np.arange(2)

        # audit: no output triangle may keep an edge whose midpoint already
        # exists as a mesh vertex
        out_keys = _local_edge_keys(out)
        stale = np.isin(out_keys, known)
        if not stale.any():
            refined = build_mesh(verts, out, out_region)
            refined.green_pairs = pairs
            return refined
        member = np.zeros(out.shape[0], dtype=bool)
        member[pairs] = True
        tris, region, greens = out, out_region, pairs
        marked = np.flatnonzero(member & stale.any(axis=1))
        forced = np.unique(out_keys[stale & ~member[:, None]])
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

    def rows(row_format, array):  # one %-format over the flattened rows
        return (row_format + "\n") * len(array) % tuple(array.ravel().tolist())

    text = f"{mesh.nv} {mesh.nt}\n" + rows("%.17g %.17g", mesh.vertices)
    text += rows("%d %d %d %d", np.column_stack([mesh.triangles, mesh.region]))
    if mesh.green_pairs.shape[0]:
        text += f"{mesh.green_pairs.shape[0]}\n" + rows("%d %d", mesh.green_pairs)
    with open(path, "w") as fh:
        fh.write(text)


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
