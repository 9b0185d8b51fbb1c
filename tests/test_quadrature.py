"""Triangle and edge quadrature rules."""

import math

import numpy as np
import pytest

from oseenstress.quadrature import edge_gauss_rule, triangle_rule


def monomial_integral_reference(a: int, b: int) -> float:
    """Exact integral of ``x**a * y**b`` over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_monomial_integral_reference_formula():
    # int_T x^a y^b over the reference triangle equals a! b! / (a+b+2)!.
    assert monomial_integral_reference(0, 0) == pytest.approx(0.5, abs=0.0)
    assert monomial_integral_reference(1, 0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert monomial_integral_reference(2, 3) == pytest.approx(
        math.factorial(2) * math.factorial(3) / math.factorial(7), rel=1e-15
    )


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_triangle_rule_integrates_monomials_exactly(degree):
    rule = triangle_rule(degree)
    assert rule.degree >= degree
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            # Weights are normalized to the reference area 1/2, so the
            # quadrature value is 0.5 * sum w_q x_q^a y_q^b.
            approx = 0.5 * float(
                rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            )
            exact = monomial_integral_reference(a, b)
            assert approx == pytest.approx(exact, abs=5e-13)


def test_triangle_rule_weights_and_points():
    for degree in range(7):
        rule = triangle_rule(degree)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(rule.weights > 0)
        # Points inside the closed reference triangle.
        assert np.all(rule.points >= -1e-14)
        assert np.all(rule.points.sum(axis=1) <= 1.0 + 1e-14)


def test_triangle_rule_rejects_unsupported_degrees():
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        triangle_rule(7)


def test_triangle_rule_is_cached():
    assert triangle_rule(4) is triangle_rule(4)


@pytest.mark.parametrize("npoints", [1, 2, 3, 4, 5])
def test_edge_gauss_rule_polynomial_exactness(npoints):
    t, w = edge_gauss_rule(npoints)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all((t > 0) & (t < 1))
    for k in range(2 * npoints):
        approx = float(w @ t**k)
        assert approx == pytest.approx(1.0 / (k + 1), abs=5e-14)


def test_edge_gauss_rule_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        edge_gauss_rule(0)
