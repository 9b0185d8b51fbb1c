"""Quadrature rules on the reference triangle and on edges.

The reference triangle is ``{(x, y) : x >= 0, y >= 0, x + y <= 1}``.
Triangle rules store points in reference coordinates and weights normalized
to sum to one, so an integral over a physical triangle ``K`` is approximated
by ``|K| * sum_q w_q f(x_q)``.  The rules are not checked when they are
built: ``tests/test_quadrature.py`` checks every one against exact
monomial integrals.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadRule", "triangle_rule", "edge_gauss_rule"]


@dataclass(frozen=True)
class QuadRule:
    """Quadrature rule on the reference triangle.

    Attributes
    ----------
    degree : int
        Highest polynomial degree integrated exactly.
    points : ndarray, shape (nq, 2)
        Evaluation points in reference coordinates.
    weights : ndarray, shape (nq,)
        Weights, summing to one.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


def _cyclic(bary):
    """All cyclic permutations of a barycentric triple."""
    u, v, w = bary
    perms = {(u, v, w), (w, u, v), (v, w, u)}
    return sorted(perms)


def _points_from_barycentric(groups):
    """Expand (weight, barycentric) orbit groups into point/weight arrays."""
    pts = []
    wts = []
    for weight, bary in groups:
        for u, v, w in _cyclic(bary):
            # reference coordinates of barycentric (u, v, w) w.r.t. the
            # vertices (0,0), (1,0), (0,1)
            pts.append((v, w))
            wts.append(weight)
    return np.array(pts), np.array(wts)


# Symmetric rules; weights are normalized so that they sum to 1.
_RULE_TABLE = {
    2: [(1 / 3, (2 / 3, 1 / 6, 1 / 6))],
    4: [
        (0.223381589678011, (0.108103018168070, 0.445948490915965, 0.445948490915965)),
        (0.109951743655322, (0.816847572980459, 0.091576213509771, 0.091576213509771)),
    ],
    6: [
        (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
        (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
        (0.082851075618374, (0.636502499121399, 0.310352451033785, 0.053145049844816)),
        (0.082851075618374, (0.636502499121399, 0.053145049844816, 0.310352451033785)),
    ],
}


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule:
    """Return the smallest tabulated rule exact for polynomials of `degree`.

    Parameters
    ----------
    degree : int
        Required polynomial exactness (>= 0).

    Raises
    ------
    ValueError
        If no tabulated rule reaches the requested degree.
    """
    if degree < 0:
        raise ValueError(f"quadrature degree must be nonnegative, got {degree}")
    for avail in sorted(_RULE_TABLE):
        if avail >= degree:
            pts, wts = _points_from_barycentric(_RULE_TABLE[avail])
            return QuadRule(degree=avail, points=pts, weights=wts)
    raise ValueError(
        f"no tabulated triangle rule of degree >= {degree} "
        f"(available: {sorted(_RULE_TABLE)})"
    )


@lru_cache(maxsize=None)
def edge_gauss_rule(npoints: int):
    """Gauss-Legendre rule on the unit interval [0, 1].

    Returns
    -------
    points : ndarray, shape (npoints,)
        Nodes in (0, 1).
    weights : ndarray, shape (npoints,)
        Weights summing to one, so ``int_E f ds ~= |E| * sum_q w_q f(x_q)``.
    """
    if npoints < 1:
        raise ValueError(f"edge rule needs at least one point, got {npoints}")
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (nodes + 1.0), 0.5 * weights
