"""Reference loop implementation of red-green refinement.

This is the per-triangle version that ``mesh.refine_marked`` replaced with
array code, kept verbatim as the oracle the array version is checked
against (``tests/test_refine.py``).
"""

import numpy as np

from oseenstress.mesh import Mesh, build_mesh


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
