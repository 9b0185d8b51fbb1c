"""Reference whole-mesh element blocks of the hybridized system.

This is how ``assembly`` built the local blocks L_K and their pinned
inverses G_K before the element work became chunk-local: one pass over
every triangle of the mesh, the data projected with
``spaces.project_exact``.  It is kept as the oracle that
``assembly._local_operator`` and the inverses written chunk by chunk are
checked against, bit for bit (``tests/test_assembly.py``).
"""

import numpy as np

from oseenstress.problems import ProblemSpec
from oseenstress.spaces import CellwiseLinear, HdivSpace, identity_coeffs, project_exact

QUAD_DEGREE = 4  # the exactness of the rule that the data b and c are projected in


def operator(problem: ProblemSpec, space: HdivSpace) -> np.ndarray:
    """The local blocks L_K (nt, m, m) of the unbordered operator, of every element at once."""
    mesh = space.mesh
    nt, nl = mesh.nt, space.ndof_local
    ns = 2 * nl
    area = mesh.tri_areas()
    basis = CellwiseLinear(mesh, space.basis_coeff.transpose(0, 2, 1, 3).reshape(nt, ns, 3))
    b = project_exact(mesh, problem.b, degree=QUAD_DEGREE).field
    c = project_exact(mesh, problem.c, degree=QUAD_DEGREE).field

    blocks = np.zeros((nt, ns + 2, ns + 2))
    gram = basis.inner(basis)
    mass = gram[:, :nl, :nl] + gram[:, nl:, nl:]
    blocks[:, :ns, :ns] = -0.5 * gram
    blocks[:, :nl, :nl] += mass
    blocks[:, nl:ns, nl:ns] += mass
    divint = area[:, None] * space.basis_div
    conv = basis.inner(b)
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
