"""Panelized Gauss-Legendre grids on [0, X] and their reference tables.

Every quadrature in the package runs through this module: a Grid1D is a
partition 0 = x_0 < x_1 < ... < x_N together with a fixed-order Gauss-Legendre
rule on each panel.  The reference-panel tables (_tables) also map node
values to the running integral of their degree q-1 Legendre interpolant,
which keeps the full spectral accuracy of the rule (exact for polynomials of
degree q-1 inside a panel); the piecewise series in spherical integrates its
pieces with them, and the first piece, from 0, with _weighted_running.

Values at the nodes of data given at the panel boundaries come from the
even cubic spline through them (flat at 0), evaluated at the nodes
directly; the dense interpolation matrix is built only when asked for.
Slope data get the odd spline; every spline in the package is built here.
A Grid1D has equal panels of width h by construction (it refuses any other
partition), so node p·q + j is the panel edge x_p plus the offset of node j
in the first panel; the cosine synthesis and the line fold in transforms
factor through that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.interpolate import CubicSpline

DEFAULT_NODES_PER_PANEL = 8


def _legendre_tables(q):
    """Reference-panel tables for q-node Gauss-Legendre on [-1, 1].

    Returns (t, w, coef_mat, partial_mat) where coef_mat maps node values to
    Legendre coefficients of the interpolant and partial_mat maps those
    coefficients to the antiderivative values at the nodes,
    partial_mat[j, p] = integral of P_p from -1 to t_j.
    """
    t, w = leggauss(q)
    V = legvander(t, q)  # V[j, p] = P_p(t_j), p = 0..q
    p = np.arange(q)
    # c_p = (2p+1)/2 * sum_j w_j P_p(t_j) g_j, exact for g in P_{q-1}
    coef_mat = ((2 * p[:, None] + 1) / 2.0) * (w[None, :] * V[:, :q].T)
    return t, w, coef_mat, _legendre_partials(t, V)


def _legendre_partials(x, V):
    """Matrix of ∫_{-1}^{x_j} P_p, p = 0..q-1, from V = legvander(x, q)."""
    out = np.empty((len(x), V.shape[1] - 1))
    out[:, 0] = x + 1.0
    for pp in range(1, out.shape[1]):
        out[:, pp] = (V[:, pp + 1] - V[:, pp - 1]) / (2 * pp + 1)
    return out


_TABLE_CACHE: dict[int, tuple] = {}


def _tables(q):
    if q not in _TABLE_CACHE:
        _TABLE_CACHE[q] = _legendre_tables(q)
    return _TABLE_CACHE[q]


@dataclass(frozen=True)
class Grid1D:
    """Equal-panel partition of [0, x_max], per-panel Gauss-Legendre nodes."""

    points: np.ndarray          # (N+1,) increasing, points[0] == 0
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least one panel")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if pts.size - 1 < 16:
            raise ValueError("grid must have at least 16 panels")
        # make_grid's panel widths agree to a few ulps of x_max
        if np.ptp(np.diff(pts)) > 16 * np.finfo(float).eps * pts[-1]:
            raise ValueError("grid needs equal panels; build it with "
                             "make_grid")
        object.__setattr__(self, "points", pts)

    # -- basic geometry -------------------------------------------------

    @property
    def x_max(self):
        return float(self.points[-1])

    @property
    def n_panels(self):
        return self.points.size - 1

    @property
    def h(self):
        """Panel width."""
        return self.x_max / self.n_panels

    @property
    def q(self):
        return self.nodes_per_panel

    @property
    def nodes(self):
        """All quadrature nodes, flattened, strictly inside the panels."""
        return self._node_data()[0]

    @property
    def node_weights(self):
        return self._node_data()[1]

    def _node_data(self):
        if "nodes" not in self._cache:
            t, w, _, _ = _tables(self.q)
            a = self.points[:-1][:, None]
            b = self.points[1:][:, None]
            half = (b - a) / 2.0
            nodes = (a + b) / 2.0 + half * t[None, :]
            weights = half * w[None, :]
            self._cache["nodes"] = nodes.ravel()
            self._cache["weights"] = weights.ravel()
        return self._cache["nodes"], self._cache["weights"]

    # -- integration -----------------------------------------------------

    def integrate(self, node_values):
        return np.sum(self.node_weights * node_values, axis=-1)

    # -- interpolation ---------------------------------------------------

    def interp_matrix(self, even=True):
        """Linear map from values at grid points to values at the nodes.

        Cubic-spline interpolation is linear in the data, so the map is a
        matrix; `even=True` clamps the derivative to zero at x=0, the right
        boundary condition for radial (even) profiles.  Column j is the
        spline through the j-th unit vector; one spline with the identity as
        its data builds all columns from a single banded solve.  The matrix
        is dense, (nodes × points): values_at_nodes does not build it, and
        it is kept for callers that need the map itself.
        """
        key = ("interp", even)
        if key not in self._cache:
            n = self.points.size
            bc = ((1, np.zeros(n)), "not-a-knot") if even else "not-a-knot"
            self._cache[key] = CubicSpline(self.points, np.eye(n),
                                           bc_type=bc)(self.nodes)
        return self._cache[key]

    def values_at_nodes(self, point_values):
        """Even cubic-spline interpolant of point_values at the nodes.

        The same values as interp_matrix() @ point_values up to rounding,
        from one spline solve and one evaluation, without the dense matrix
        (72 MB on a wave finite-difference grid, and never reused).
        """
        return self.spline(point_values)(self.nodes)

    def spline(self, point_values):
        """Cubic spline through point_values, flat at 0 (even data)."""
        return CubicSpline(self.points, point_values,
                           bc_type=((1, 0.0), "not-a-knot"))

    def odd_spline(self, point_values):
        """Cubic spline through point_values, no curvature at 0 (odd data)."""
        return CubicSpline(self.points, point_values,
                           bc_type=((2, 0.0), "not-a-knot"))


def _weighted_running(x, width, q, n):
    """Matrix of the running integral of s^n·g from 0 to each x_j ≤ width.

    (M @ g)[j] = ∫_0^{x_j} s^n p(s) ds, with p the degree q-1 interpolant of
    g at the q Gauss-Legendre nodes of [0, width]; Gauss-Legendre in
    u = s/x_j integrates u^n p(x_j u) exactly.
    """
    _, _, coef_mat, _ = _tables(q)
    u, w, _, _ = _tables((n + q) // 2 + 1)
    u, w = (u + 1) / 2, w / 2
    basis = legvander(2 * x[:, None] * u / width - 1, q - 1) @ coef_mat
    return x[:, None] ** (n + 1) * np.einsum("m,jmi->ji", w * u ** n, basis)


def make_grid(x_max, n_panels=None, spacing=0.05,
              nodes_per_panel=DEFAULT_NODES_PER_PANEL):
    """Build a Grid1D of equal panels on [0, x_max].

    Either give n_panels explicitly or let it follow from the requested
    spacing.
    """
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    if n_panels is None:
        n_panels = max(16, int(np.ceil(x_max / spacing)))
    n_panels = max(16, int(n_panels))
    pts = x_max * (np.arange(n_panels + 1) / n_panels)
    pts[0] = 0.0
    pts[-1] = x_max
    return Grid1D(points=pts, nodes_per_panel=nodes_per_panel)
