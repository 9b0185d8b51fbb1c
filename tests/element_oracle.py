"""Reference per-element bases and whole-mesh element blocks of the hybridized system.

This is how ``spaces.build_space`` built the local bases, and
``assembly`` the local blocks L_K and their pinned inverses G_K, before
the element work became chunk-local and then went by shape class: one
Vandermonde inverse and one pinned inverse per triangle, in one pass over
the mesh, the data projected with ``spaces.project_exact``.  It is kept
as the oracle that ``assembly._local_operator`` is checked against bit
for bit, and the bases and the inverses G_K, which the shape classes
scale and update, to 1e-12 relative (``tests/test_spaces.py``,
``tests/test_assembly.py``).
"""

import numpy as np

from oseenstress.mesh import Mesh
from oseenstress.problems import ProblemSpec
from oseenstress.spaces import _KINDS, HdivSpace, _edge_moments, cell_gram, identity_coeffs, project_exact

QUAD_DEGREE = 4  # the exactness of the rule that the data b and c are projected in


def basis(mesh: Mesh, kind: str):
    """The local bases (nt, nl, 2, 3) and their divergences (nt, nl), one Vandermonde inverse per triangle."""
    mono = _KINDS[kind]
    mono_div = mono[:, 0, 1] + mono[:, 1, 2]
    nl = len(mono)
    centroids = mesh.tri_centroids()

    def monomials(pts):
        dx = pts - centroids[:, None, None, :]
        mono_pts = np.concatenate([np.ones(dx.shape[:-1] + (1,)), dx], axis=3)
        return np.einsum("kcm,teqm->teqkc", mono, mono_pts)

    ginv = np.linalg.inv(_edge_moments(mesh, mesh.tri_edges, 2, nl // 3, monomials).reshape(mesh.nt, nl, nl))
    return np.einsum("tkj,kcm->tjcm", ginv, mono), np.einsum("tkj,k->tj", ginv, mono_div)


def operator(problem: ProblemSpec, space: HdivSpace) -> np.ndarray:
    """The local blocks L_K (nt, m, m) of the unbordered operator, of every element at once."""
    mesh = space.mesh
    nt, nl = mesh.nt, space.ndof_local
    ns = 2 * nl
    area = mesh.tri_areas()
    moments = mesh.tri_second_moments()
    bases, div = space.bases()
    basis = bases.transpose(0, 2, 1, 3).reshape(nt, ns, 3)
    b = project_exact(mesh, problem.b, degree=QUAD_DEGREE).field.coeffs
    c = project_exact(mesh, problem.c, degree=QUAD_DEGREE).field

    blocks = np.zeros((nt, ns + 2, ns + 2))
    gram = cell_gram(area, moments, basis, basis)
    mass = gram[:, :nl, :nl] + gram[:, nl:, nl:]
    blocks[:, :ns, :ns] = -0.5 * gram
    blocks[:, :nl, :nl] += mass
    blocks[:, nl:ns, nl:ns] += mass
    divint = area[:, None] * div
    conv = cell_gram(area, moments, basis, b)
    blocks[:, ns:, :ns] = -0.5 * conv.transpose(0, 2, 1)
    conv_par = conv[:, :nl, 0] + conv[:, nl:, 1]
    for r in range(2):
        rows = slice(r * nl, (r + 1) * nl)
        blocks[:, rows, ns + r] = divint
        blocks[:, ns + r, rows] += conv_par - divint
    react = area * c.cell_means()
    blocks[:, ns, ns] = react
    blocks[:, ns + 1, ns + 1] = react
    return blocks


def pinned_inverse(blocks: np.ndarray, space: HdivSpace) -> np.ndarray:
    """G_K: each L_K with a unit row and column at the largest |z_K|, inverted, then zero there."""
    nt, m, _ = blocks.shape
    ns = m - 2
    kernel = np.zeros((nt, m))
    kernel[:, :ns] = identity_coeffs(space)[:, space.dof_map].transpose(1, 0, 2).reshape(nt, ns)
    tris = np.arange(nt)
    pin = np.argmax(np.abs(kernel), axis=1)
    pinned = blocks.copy()
    pinned[tris, pin, :] = 0.0
    pinned[tris, :, pin] = 0.0
    pinned[tris, pin, pin] = 1.0
    inverse = np.linalg.solve(pinned, np.broadcast_to(np.eye(m), pinned.shape))
    inverse[tris, pin, pin] = 0.0
    return inverse
