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
in the first panel; the cosine synthesis in transforms and the line fold
below factor through that.

Every sampled radial function of the package is an EvenFunction: its
samples at a grid's points, read between them through those splines and
zero beyond the grid.  φ_λ (spherical), a wave slice (pde), a Klein-Gordon
solution and both sides of every transform (transforms) are of this kind;
only what each carries in info differs.  Line functions are folded against
quadrature weights (the line convolution, the Klein-Gordon kernel) by
EvenFunction.fold, onto a grid laid on the knot lattice of the folded
spline (lattice_grid: panels of r knot intervals).  For the grid points,
and for each in-panel node offset, every shift ±σ lands at one offset
inside a knot interval for all x, so the fold is a strided correlation of
the binned weights with the spline's power coefficients
(_lattice_coefficients), one FFT product per node class, not a spline
evaluation per (x, σ) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy import fft as sp_fft
from scipy.interpolate import CubicSpline

DEFAULT_NODES_PER_PANEL = 8
# knot spacing of a profile's samples, and panel width of a fold's output
DEFAULT_SPACING = 0.02


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


# ---------------------------------------------------------------------------
# the sampled even function
# ---------------------------------------------------------------------------

@dataclass
class EvenFunction:
    """Even function stored at grid.points, x >= 0; zero beyond the grid.

    A radial function on X (x the distance to the origin) or an even
    function on the line; support bounds where it is nonzero (for φ_λ,
    which is not compactly supported, it is the grid's end).  Quadrature-node
    samples are stored separately (exact_node_values) when the constructor
    knows them exactly, so integrals of the function do not pay spline
    error.  Between the samples the function is the even cubic spline
    through them, built once per object (values must not be changed in place
    after the first call); its slope is the odd cubic spline through
    deriv_values (second derivative 0 at x = 0) when given, else the value
    spline's derivative.
    """

    grid: Grid1D
    values: np.ndarray
    support: float
    deriv_values: np.ndarray | None = None
    exact_node_values: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values)

    @classmethod
    def from_profile(cls, profile):
        grid = make_grid(profile.support, spacing=DEFAULT_SPACING)
        return cls(grid=grid, values=profile.f(grid.points),
                   support=profile.support,
                   exact_node_values=profile.f(grid.nodes))

    @cached_property
    def _spline(self):
        return self.grid.spline(self.values)

    @cached_property
    def _slope_spline(self):
        if self.deriv_values is None:
            return self._spline.derivative()
        return self.grid.odd_spline(self.deriv_values)

    def _at(self, spline, a):
        """spline at abscissae a >= 0, zero beyond the grid."""
        x_max = self.grid.x_max
        return np.where(a <= x_max, spline(np.minimum(a, x_max)), 0.0)

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        out = self._at(self._spline, np.atleast_1d(x))
        return out[0] if x.ndim == 0 else out

    def node_values(self):
        if self.exact_node_values is not None:
            return self.exact_node_values
        return self.grid.values_at_nodes(self.values)

    def derivative(self, s):
        """dg/ds at signed s (odd function)."""
        s = np.asarray(s, dtype=float)
        s1 = np.atleast_1d(s)
        out = self._at(self._slope_spline, np.abs(s1)) * np.sign(s1)
        return out[0] if s.ndim == 0 else out

    def lattice_grid(self, x_max):
        """The output grid of a fold reaching at least x_max.

        Its panels are r knot intervals of this function's grid wide,
        r = max(1, round(DEFAULT_SPACING / h)) for knot spacing h, and its
        x_max is the requested one rounded up to a whole number of panels
        (at least 16).
        """
        h = self.grid.h
        r = max(1, round(DEFAULT_SPACING / h))
        n = max(16, math.ceil(x_max / (r * h) - 1e-9))
        return make_grid(n * r * h, n_panels=n)

    def fold(self, grid, sigma, weights, slope=False):
        """Σ_k (g(x - σ_k) + g(x + σ_k)) weights[k] at grid.points and nodes.

        weights is (K,) or (K, m) for the K entries of sigma; returns the
        fold at grid.points and at grid.nodes, each of shape
        (n,) + weights.shape[1:] for its n abscissae.  slope=True folds g'
        instead of g.
        grid must lie on the knot lattice of this function's grid (panels
        of h): panels r·h wide, as lattice_grid builds.  Then
        for the points, and for each in-panel node offset, every shift ±σ_k
        lands at one offset d_k inside a knot interval for all x, and the
        fold is Σ_m Σ_i K_m[i] E_m[i + p·r]: K_m bins w_k (d_k/h)^m by the
        interval of the shift, E_m holds the spline's power coefficients,
        extended evenly (oddly for g') over [-X, X] and zero beyond, and
        the correlation is one FFT product per offset class.  A shift onto
        ±X exactly still reads the spline, as g does; beyond it, zero.
        """
        h, width = self.grid.h, grid.h
        r = round(width / h)
        if r < 1 or abs(width - r * h) > 1e-12 * width:
            raise ValueError(
                f"fold needs output panels a whole number of knot intervals "
                f"(h = {h:.6g}) wide, got {width:.6g}; build the grid with "
                "lattice_grid")
        coef, edge = self._slope_lattice if slope else self._lattice
        n_cells = coef.shape[1]                  # 2N intervals over [-X, X]
        w = np.asarray(weights, dtype=float)
        w2 = np.concatenate([w, w]).reshape(2 * w.shape[0], -1)
        offsets = np.concatenate([[0.0], grid.nodes[:grid.q]])
        sigma = np.asarray(sigma, dtype=float)
        u = (np.concatenate([-sigma, sigma])[None, :] + offsets[:, None]
             + self.grid.x_max) / h
        # a shift within rounding of a knot lands on it
        n = np.rint(u)
        on_knot = np.abs(u - n) <= 8 * np.finfo(float).eps * np.abs(u)
        n = np.where(on_knot, n, np.floor(u))
        d = np.where(on_knot, 0.0, u - n)
        lo = int(n.min())
        span = int(n.max()) - lo + 1
        rows = (np.arange(offsets.size)[:, None] * span + (n - lo)).astype(
            np.intp).ravel()
        size = offsets.size * span

        def binned(vals):
            return np.stack([np.bincount(rows, (vals * col).ravel(),
                                         minlength=size)
                             for col in w2.T], axis=-1).reshape(
                                 offsets.size, span, -1)

        length = sp_fft.next_fast_len(n_cells + span, real=True)
        spec = sum(np.conj(sp_fft.rfft(binned(d**m), length, axis=1))
                   * sp_fft.rfft(e, length)[None, :, None]
                   for m, e in enumerate(coef))
        corr = sp_fft.irfft(spec, length, axis=1)
        # j = lo + p·r indexes the correlation; it vanishes off the overlap
        n_out = grid.n_panels + 1
        j = lo + r * np.arange(n_out)
        reach = (j > -span) & (j < n_cells)
        out = np.where(reach[None, :, None], corr[:, j % length], 0.0)
        # shifts onto +X exactly read the spline's end value
        knot = binned(on_knot.astype(float))
        at_edge = n_cells - lo - r * np.arange(n_out)
        hit = (at_edge >= 0) & (at_edge < span)
        out[:, hit] += edge * knot[:, at_edge[hit]]
        shape = (-1,) + w.shape[1:]
        at_points = out[0].reshape(shape)
        at_nodes = out[1:, :-1].transpose(1, 0, 2).reshape(shape)
        return at_points, at_nodes

    @cached_property
    def _lattice(self):
        return _lattice_coefficients(self._spline, self.grid, odd=False)

    @cached_property
    def _slope_lattice(self):
        return _lattice_coefficients(self._slope_spline, self.grid, odd=True)


def _lattice_coefficients(spline, grid, odd):
    """(E, edge): power coefficients of a spline on the knot intervals of [-X, X].

    E[m, i] is the coefficient of (d/h)^m at offset d into interval i of the
    2N intervals of width h from -X, for the even (odd=True: odd) extension
    of the spline on grid's N equal panels; edge is the spline's value at X.
    """
    deg = spline.c.shape[0] - 1
    h = grid.h
    right = spline.c[::-1] * (h ** np.arange(deg + 1))[:, None]
    # on the mirror image of an interval the polynomial is P(1 - t), and
    # P(1 - t) = Σ_l t^l (-1)^l Σ_m binom(m, l) C_m
    flip = np.array([[(-1) ** l * math.comb(m, l) for m in range(deg + 1)]
                     for l in range(deg + 1)], dtype=float)
    left = (-1.0 if odd else 1.0) * (flip @ right)[:, ::-1]
    return (np.concatenate([left, right], axis=1),
            float(spline(grid.x_max)))
