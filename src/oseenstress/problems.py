"""Benchmark problems for the pseudostress-velocity Oseen system.

The PDE is

    -Laplace(u) + (grad u) b + c u + grad p = f,   div u = 0   in Omega,
    u = g on the boundary,  with zero-mean pressure,

rewritten via the pseudostress ``sigma = grad(u) - p I``.  A problem bundle
carries the data (b, c, f, g), an initial-mesh factory, and — when a closed
form exists — the exact velocity, pseudostress and pseudostress divergence
for error reporting.  All callables are vectorized: they map point arrays
of shape (..., 2) to arrays with the same leading shape; every constant
field is one :func:`_constant`.

A bundle is frozen data: :func:`get_problem` returns the registered
:class:`ProblemSpec` itself, and a variant is derived with
``dataclasses.replace``.

Registry
--------
``p1``  smooth manufactured solution on the unit square,
``p2``  singular corner flow (r^(2/3) velocity) on an L-shaped domain,
``p3``  boundary-layer flow with convection b = (500, 1), no closed form.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Mesh, make_lshape_mesh, make_square_piecewise_uniform

__all__ = ["ProblemSpec", "get_problem", "problem_names"]


@dataclass(frozen=True)
class ProblemSpec:
    """Data bundle describing one Oseen benchmark.

    Attributes
    ----------
    name : str
    b : callable
        Convection field, (..., 2) -> (..., 2).
    c : callable
        Reaction coefficient, (..., 2) -> (...).
    f : callable
        Right-hand side, (..., 2) -> (..., 2).
    g : callable
        Dirichlet velocity data on the boundary, (..., 2) -> (..., 2).
    initial_mesh : callable
        Zero-argument factory for the problem's starting mesh.
    exact_u, exact_sigma, exact_div_sigma : callable or None
        Closed-form solution pieces when available; ``exact_sigma`` maps to
        (..., 2, 2).
    singular_corner : (float, float) or None
        Corner where the solution has an r^alpha singularity; error
        quadrature is geometrically subdivided toward it.
    default_theta : float
        Bulk threshold used by the maximum marking strategy when none is
        given on the command line.
    """

    name: str
    b: Callable
    c: Callable
    f: Callable
    g: Callable
    initial_mesh: Callable[[], Mesh]
    exact_u: Optional[Callable] = None
    exact_sigma: Optional[Callable] = None
    exact_div_sigma: Optional[Callable] = None
    singular_corner: Optional[tuple] = None
    default_theta: float = 0.7

    @property
    def has_exact(self) -> bool:
        return self.exact_u is not None and self.exact_sigma is not None


def _constant(value) -> Callable:
    """The field equal to `value` at every point: points (..., 2) to (..., *shape of value)."""
    value = np.asarray(value, dtype=np.float64)
    return lambda x: np.broadcast_to(value, x.shape[:-1] + value.shape).copy()


def spot_check_boundary_data(problem: ProblemSpec, pts: np.ndarray, g_values: np.ndarray) -> None:
    """Verify that g coincides with the exact velocity on the boundary.

    `g_values` are the values of g at the boundary points `pts`; the
    exact velocity is evaluated there.  No-op for problems without a
    closed-form solution.
    """
    if problem.exact_u is None:
        return
    uv = np.asarray(problem.exact_u(pts))
    err = float(np.abs(g_values - uv).max(initial=0.0))
    scale = max(1.0, float(np.abs(uv).max(initial=0.0)))
    if err > 1e-10 * scale:
        raise ValueError(
            f"problem {problem.name!r}: boundary data differs from the exact "
            f"velocity by {err:.3e} on the boundary"
        )


# ----------------------------------------------------------------------
# Problem 1: smooth manufactured solution on the unit square.
#
#   u = (sin(pi(x+y)), -sin(pi(x+y))),  p = x + y - 1,
#   b = (cos(y), sin(x)),  c = 0,  g = u on the boundary.
#
# f = -Laplace(u) + (grad u) b + grad p was derived by hand from these data
# and is cross-checked against numerical differentiation in the test suite.
# ----------------------------------------------------------------------


def _p1_u(x):
    s = np.sin(np.pi * (x[..., 0] + x[..., 1]))
    return np.stack([s, -s], axis=-1)


def _p1_b(x):
    return np.stack([np.cos(x[..., 1]), np.sin(x[..., 0])], axis=-1)


def _p1_f(x):
    arg = np.pi * (x[..., 0] + x[..., 1])
    s = np.sin(arg)
    c = np.cos(arg)
    conv = np.pi * c * (np.cos(x[..., 1]) + np.sin(x[..., 0]))
    f1 = 2.0 * np.pi**2 * s + conv + 1.0
    f2 = -2.0 * np.pi**2 * s - conv + 1.0
    return np.stack([f1, f2], axis=-1)


def _p1_sigma(x):
    arg = np.pi * (x[..., 0] + x[..., 1])
    c = np.pi * np.cos(arg)
    p = x[..., 0] + x[..., 1] - 1.0
    row1 = np.stack([c - p, c], axis=-1)
    row2 = np.stack([-c, -c - p], axis=-1)
    return np.stack([row1, row2], axis=-2)


def _p1_div_sigma(x):
    s = np.sin(np.pi * (x[..., 0] + x[..., 1]))
    return np.stack(
        [-2.0 * np.pi**2 * s - 1.0, 2.0 * np.pi**2 * s - 1.0], axis=-1
    )


# ----------------------------------------------------------------------
# Problem 2: corner singularity on the L-shaped domain
# [-1,1]^2 minus [0,1]x[-1,0], reentrant corner at the origin.
#
#   u = r^a (sin(a t), cos(a t)) with a = 2/3 and t in [0, 3pi/2],
#   p = x + y,  b = (1, 2),  c = 0,  g = u on the boundary.
#
# Both velocity components are harmonic (real/imaginary parts of z^a) and
# div u = 0, so f = (1, 1) + (grad u) b; the gradient follows from
# d/dz z^a = a z^(a-1).
# ----------------------------------------------------------------------

_ALPHA = 2.0 / 3.0


def _polar(x):
    r = np.hypot(x[..., 0], x[..., 1])
    t = np.arctan2(x[..., 1], x[..., 0])
    t = np.where(t < 0.0, t + 2.0 * np.pi, t)
    return r, t


def _p2_u(x):
    r, t = _polar(x)
    ra = r**_ALPHA
    return np.stack([ra * np.sin(_ALPHA * t), ra * np.cos(_ALPHA * t)], axis=-1)


def _p2_grad_u(x):
    """Velocity gradient, rows (grad u1; grad u2); O(r^(-1/3)) at the corner."""
    r, t = _polar(x)
    with np.errstate(divide="ignore"):
        mag = _ALPHA * r ** (_ALPHA - 1.0)
    phase = (_ALPHA - 1.0) * t
    s = np.sin(phase)
    c = np.cos(phase)
    row1 = np.stack([mag * s, mag * c], axis=-1)
    row2 = np.stack([mag * c, -mag * s], axis=-1)
    return np.stack([row1, row2], axis=-2)


def _p2_sigma(x):
    g = _p2_grad_u(x)
    p = x[..., 0] + x[..., 1]
    g[..., 0, 0] -= p
    g[..., 1, 1] -= p
    return g


def _p2_f(x):
    g = _p2_grad_u(x)
    b = np.array([1.0, 2.0])
    return 1.0 + np.einsum("...rc,c->...r", g, b)


# ----------------------------------------------------------------------
# Problem 3: boundary layer on the unit square, no closed form.
#
#   b = (500, 1), c = 0, f = 5000 (y, -x), g = 0.
#
# The strong convection creates a layer along the outflow side x = 1 that
# the recovery-driven estimator must resolve.
# ----------------------------------------------------------------------


def _p3_f(x):
    return 5000.0 * np.stack([x[..., 1], -x[..., 0]], axis=-1)


_REGISTRY = {
    "p1": ProblemSpec(
        name="p1",
        b=_p1_b,
        c=_constant(0.0),
        f=_p1_f,
        g=_p1_u,
        initial_mesh=make_square_piecewise_uniform,
        exact_u=_p1_u,
        exact_sigma=_p1_sigma,
        exact_div_sigma=_p1_div_sigma,
    ),
    "p2": ProblemSpec(
        name="p2",
        b=_constant([1.0, 2.0]),
        c=_constant(0.0),
        f=_p2_f,
        g=_p2_u,
        initial_mesh=make_lshape_mesh,
        exact_u=_p2_u,
        exact_sigma=_p2_sigma,
        exact_div_sigma=_constant([-1.0, -1.0]),  # u harmonic and grad p = (1, 1)
        singular_corner=(0.0, 0.0),
    ),
    "p3": ProblemSpec(
        name="p3",
        b=_constant([500.0, 1.0]),
        c=_constant(0.0),
        f=_p3_f,
        g=_constant([0.0, 0.0]),
        initial_mesh=make_square_piecewise_uniform,
        default_theta=0.3,
    ),
}


def problem_names():
    return sorted(_REGISTRY)


def get_problem(name: str) -> ProblemSpec:
    """The registered problem of that name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None
