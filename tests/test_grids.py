"""Quadrature grid behavior: exactness, interpolation, construction guards."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import CubicSpline

from harmonic.grids import DEFAULT_NODES_PER_PANEL, Grid1D, make_grid


def test_integrate_exact_for_degree_15():
    # 8-node Gauss-Legendre panels integrate degree 2q-1 = 15 exactly.
    g = make_grid(2.0, n_panels=16)
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.25, 0.11, 1.5, -0.4,
                       0.9, 0.05, -0.6, 0.33, 0.21, -0.08, 0.5, 1.1])
    x = g.nodes
    vals = np.polynomial.polynomial.polyval(x, coeffs)
    exact = sum(c * 2.0 ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    assert abs(g.integrate(vals) - exact) <= 1e-13 * abs(exact)


def test_integrate_smooth_function():
    g = make_grid(np.pi, n_panels=20)
    assert abs(g.integrate(np.sin(g.nodes)) - 2.0) < 1e-14


def test_nodes_lie_inside_panels_and_weights_sum():
    g = make_grid(5.0, n_panels=25)
    assert np.all(g.nodes > 0.0) and np.all(g.nodes < 5.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert abs(np.sum(g.node_weights) - 5.0) < 1e-13
    assert g.nodes.size == g.n_panels * g.q


def test_grid_construction_guards():
    with pytest.raises(ValueError, match="start at 0"):
        Grid1D(points=np.linspace(1.0, 2.0, 33))
    with pytest.raises(ValueError, match="strictly increasing"):
        pts = np.linspace(0.0, 1.0, 33)
        pts[5] = pts[4]
        Grid1D(points=pts)
    with pytest.raises(ValueError, match="at least 16 panels"):
        Grid1D(points=np.linspace(0.0, 1.0, 10))
    with pytest.raises(ValueError, match="at least one panel"):
        Grid1D(points=np.array([0.0]))
    with pytest.raises(ValueError, match="equal panels.*make_grid"):
        Grid1D(points=2.0 * (np.arange(41) / 40) ** 2)


def test_make_grid_guards():
    with pytest.raises(ValueError, match="positive"):
        make_grid(-1.0)


def test_make_grid_spacing_and_minimum():
    assert make_grid(10.0, spacing=0.05).n_panels == 200
    assert make_grid(10.0, spacing=0.05).h == 10.0 / 200
    # tiny domain still gets the 16-panel floor
    assert make_grid(0.1, spacing=0.05).n_panels == 16


def test_even_spline_has_flat_center():
    g = make_grid(3.0, n_panels=30)
    vals = np.cosh(g.points)  # even profile, nonzero curvature at 0
    s = g.spline(vals)
    assert abs(s(0.0, 1)) < 1e-14
    assert np.max(np.abs(s(g.nodes) - g.values_at_nodes(vals))) < 1e-12


@pytest.mark.parametrize("even", [True, False])
def test_interp_matrix_matches_column_splines(even):
    # reference: one spline per unit vector, the construction the single
    # identity-data spline replaces; the arithmetic is the same per column
    g = make_grid(3.0, spacing=0.05)
    n = g.points.size
    bc = ((1, 0.0), "not-a-knot") if even else "not-a-knot"
    ref = np.empty((g.nodes.size, n))
    for j in range(n):
        ref[:, j] = CubicSpline(g.points, np.eye(n)[j], bc_type=bc)(g.nodes)
    assert np.array_equal(g.interp_matrix(even=even), ref)


def test_values_at_nodes_accuracy():
    g = make_grid(3.0, spacing=0.05)
    approx = g.values_at_nodes(np.cos(g.points))
    # cubic interpolation on 0.05 spacing; the not-a-knot end dominates
    assert np.max(np.abs(approx - np.cos(g.nodes))) < 1e-6


@given(st.integers(min_value=0, max_value=15))
def test_monomial_exactness(k):
    g = make_grid(1.0, n_panels=16)
    got = g.integrate(g.nodes ** k)
    assert abs(got - 1.0 / (k + 1)) < 1e-14


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
def test_integrate_is_linear(a, b):
    g = make_grid(1.0, n_panels=16)
    f1, f2 = np.sin(g.nodes), np.exp(-g.nodes)
    lhs = g.integrate(a * f1 + b * f2)
    rhs = a * g.integrate(f1) + b * g.integrate(f2)
    assert abs(lhs - rhs) < 1e-12
