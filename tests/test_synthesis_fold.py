"""Cosine synthesis and the line fold against their dense reference formulas.

abel synthesizes over λ by a blocked chirp-z transform, FFT convolutions
on the lattices of λ-panels and s-points; cosine_transform factors cos/sin
of λ times each quadrature node through the panel edges and the in-panel
offsets; EvenFunction.fold sums the spline's power coefficients on its
knot lattice by one correlation per node class.  The references below are
the dense formulas those replace: np.cos of the full (nodes × λ) outer
product, and masked spline evaluations on full (points × σ) arrays with a
matrix-vector sum.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from harmonic import transforms
from harmonic.density import (make_damek_ricci, make_euclidean,
                              make_real_hyperbolic)
from harmonic.grids import Grid1D, make_grid
from harmonic.pde import _kg_kernels, kg_kernel, kg_solve
from harmonic.profiles import annulus_bump, gauss_bump, smooth_bump
from harmonic.transforms import (EvenFunction, abel, cosine_transform,
                                 line_convolve)

E3 = make_euclidean(2)
DR21 = make_damek_ricci(2, 1)
H3 = make_real_hyperbolic(2)


def _gauss_line(w, S, deriv=False, spacing=0.02):
    g = make_grid(S, spacing=spacing)

    def f(s):
        return np.exp(-s**2 / (2 * w * w))

    return EvenFunction(grid=g, values=f(g.points), support=S,
                        deriv_values=-g.points / (w * w) * f(g.points)
                        if deriv else None,
                        exact_node_values=f(g.nodes))


# -- cosine synthesis ---------------------------------------------------------

def _abel_with_samples(model, profile):
    """abel(model, profile) with the F f samples it synthesized from."""
    pieces = []
    real = transforms.spherical_fourier

    def recording(model, f, lambdas):
        out = real(model, f, lambdas)
        pieces.append(out.values)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "spherical_fourier", recording)
        af = abel(model, profile)
    return af, np.concatenate(pieces)


@pytest.fixture(scope="module")
def bump_abel():
    """abel(E3, smooth_bump(1.5)) with the F f samples it synthesized from."""
    return _abel_with_samples(E3, smooth_bump(1.5))


# case: (model, profile, chirp-z block in λ-panels or None for the default,
# λ-panels, s-points, blocks)
SYNTHESIS_CASES = {
    # λ_max > 250
    "e3_smooth": (E3, smooth_bump(1.5), None, 463, 211, 2),
    # a long s-grid
    "h3_long_s": (H3, smooth_bump(4.0), None, 341, 461, 1),
    # a λ-grid of several blocks, and of more with the block cut down
    "h3_blocks": (H3, gauss_bump(0.02), None, 340, 76, 2),
    "h3_nine_blocks": (H3, gauss_bump(0.02), 40, 340, 76, 9),
}


@pytest.mark.parametrize("case", list(SYNTHESIS_CASES))
def test_abel_synthesis_matches_the_dense_formula(case, bump_abel,
                                                  monkeypatch):
    model, profile, block, n_panels, n_points, blocks = SYNTHESIS_CASES[case]
    if block is not None:
        monkeypatch.setattr(transforms, "_chirp_block", lambda n_out: block)
    af, Ff = (bump_abel if case == "e3_smooth"
              else _abel_with_samples(model, profile))
    s_max = af.grid.x_max
    width = math.pi / (2.0 * max(s_max + 0.5, 1.0))
    lgrid = Grid1D(points=width * np.arange(
        round(af.info["lambda_max"] / width) + 1))
    assert lgrid.nodes.size == Ff.size
    assert (lgrid.n_panels, af.grid.points.size) == (n_panels, n_points)
    assert math.ceil(n_panels / transforms._chirp_block(n_points)) == blocks
    if case == "e3_smooth":
        assert af.info["lambda_max"] > 250
    lam = lgrid.nodes
    wF = lgrid.node_weights * Ff
    phase = np.outer(af.grid.points, lam)
    expect = {
        "values": (np.cos(phase) @ wF / math.pi, af.values),
        "slopes": (-(np.sin(phase) @ (wF * lam)) / math.pi, af.deriv_values),
        "d2": (-(np.cos(phase) @ (wF * lam**2)) / math.pi,
               af.info["d2_values"]),
        "nodes": (np.cos(np.outer(af.grid.nodes, lam)) @ wF / math.pi,
                  af.exact_node_values),
    }
    for name, (ref, got) in expect.items():
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * peak, name


@pytest.mark.parametrize("case", ["abel_output", "gauss_line"])
def test_cosine_transform_matches_the_dense_formula(case, bump_abel):
    if case == "abel_output":
        g, lams = bump_abel[0], np.linspace(0.0, 275.0, 301)
    else:
        g, lams = _gauss_line(0.4, 3.0), np.linspace(0.0, 60.0, 241)
    w = g.grid.node_weights * g.node_values()
    ref = 2.0 * (np.cos(np.outer(lams, g.grid.nodes)) @ w)
    got = cosine_transform(g, lams)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- the fold -----------------------------------------------------------------

def _dense_at(g, a, data, deriv=False, odd=False):
    """Masked spline evaluation of data at |a|, zero beyond the grid.

    The spline through data is even (flat at 0), or odd (no curvature at 0)
    for slope samples.
    """
    a = np.abs(np.asarray(a, dtype=float))
    out = np.zeros(a.shape)
    inside = a <= g.grid.x_max
    spl = CubicSpline(g.grid.points, data, bc_type=((2, 0.0), "not-a-knot")) \
        if odd else g.grid.spline(data)
    out[inside] = (spl.derivative() if deriv else spl)(a[inside])
    return out


def _dense_value(g, s):
    return _dense_at(g, s, g.values)


def _dense_slope(g, s):
    s = np.asarray(s, dtype=float)
    if g.deriv_values is not None:
        return _dense_at(g, s, g.deriv_values, odd=True) * np.sign(s)
    return _dense_at(g, s, g.values, deriv=True) * np.sign(s)


def _lattice(g, x_max):
    """The fold's output grid: panels of r knot intervals h of g, r =
    max(1, round(0.02 / h)), x_max rounded up to a whole number of them."""
    h = g.grid.x_max / g.grid.n_panels
    r = max(1, round(0.02 / h))
    n = max(16, math.ceil(x_max / (r * h) - 1e-9))
    return make_grid(n * r * h, n_panels=n)


def _dense_kg(H, g, t):
    """kg_solve's (v, v_s, v_t, energy) from dense (points × σ) folds."""
    sgrid = _lattice(g, g.support + t + 0.5)
    qgrid = make_grid(t, spacing=0.03)
    sig = qgrid.nodes
    w_here, wt_here = _kg_kernels(H, t, sig)
    w_quad = qgrid.node_weights * w_here
    wt_quad = qgrid.node_weights * wt_here
    edge = kg_kernel(H, t, t)

    def assemble(x):
        gm, gp = _dense_value(g, x - t), _dense_value(g, x + t)
        dm, dp = _dense_slope(g, x - t), _dense_slope(g, x + t)
        folded = (_dense_value(g, x[:, None] - sig)
                  + _dense_value(g, x[:, None] + sig))
        dfold = (_dense_slope(g, x[:, None] - sig)
                 + _dense_slope(g, x[:, None] + sig))
        return (0.5 * (gm + gp) + folded @ w_quad,
                0.5 * (dm + dp) + dfold @ w_quad,
                0.5 * (dp - dm) + edge * (gm + gp) + folded @ wt_quad)

    v, vs, vt = assemble(sgrid.points)
    vn, vsn, vtn = assemble(sgrid.nodes)
    energy = 2.0 * float(sgrid.integrate(vsn**2 + vtn**2 + H * H / 4 * vn**2))
    return sgrid, v, vs, vt, vn, energy


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# t = 1.37 puts supp g + t + 0.5 between two lattice points; a knot spacing
# of 0.0137 gives r = 1 and output panels of one knot interval
@pytest.mark.parametrize("case", ["deriv_values", "spline_slope", "abel",
                                  "off_lattice_t", "spacing_0137"])
def test_kg_solve_fold_matches_dense_reference(case):
    if case == "abel":
        H, g, t = DR21.H, abel(DR21, annulus_bump(0.9, 0.2)), 2.5
    elif case == "off_lattice_t":
        H, g, t = 2.0, _gauss_line(0.5, 3.0, deriv=True), 1.37
    elif case == "spacing_0137":
        H, g, t = 2.0, _gauss_line(0.5, 3.0, spacing=0.0137), 1.5
    else:
        H, g, t = 2.0, _gauss_line(0.5, 3.0, deriv=case == "deriv_values"), 1.5
    v = kg_solve(H, g, t)
    sgrid, ref_v, ref_vs, ref_vt, ref_vn, ref_e = _dense_kg(H, g, t)
    assert np.array_equal(v.grid.points, sgrid.points)
    assert v.grid.x_max >= g.support + t + 0.5
    assert _rel(v.values, ref_v) <= 1e-14
    assert _rel(v.deriv_values, ref_vs) <= 1e-14
    assert _rel(v.info["vt_values"], ref_vt) <= 1e-14
    assert _rel(v.exact_node_values, ref_vn) <= 1e-14
    assert abs(v.info["energy"] - ref_e) <= 1e-14 * ref_e


def test_kg_solve_rounds_s_max_up_to_the_lattice():
    g = _gauss_line(0.5, 3.0)
    v = kg_solve(2.0, g, 1.5, s_max=7.013)
    assert np.array_equal(v.grid.points, _lattice(g, 7.013).points)
    assert v.grid.n_panels == 351 and v.grid.x_max >= 7.013


def test_line_convolve_fold_matches_dense_reference():
    # 2.61 + 3.4 = 6.01 lies between two lattice points of spacing 0.02
    for S1 in (2.6, 2.61):
        g1, g2 = _gauss_line(0.35, S1), _gauss_line(0.45, 3.4)
        conv = line_convolve(g1, g2)
        assert np.array_equal(conv.grid.points,
                              _lattice(g2, S1 + 3.4).points)
        sig = g1.grid.nodes
        w1 = g1.grid.node_weights * g1.node_values()
        for x, got in ((conv.grid.points, conv.values),
                       (conv.grid.nodes, conv.exact_node_values)):
            ref = (_dense_value(g2, x[:, None] - sig)
                   + _dense_value(g2, x[:, None] + sig)) @ w1
            assert _rel(got, ref) <= 1e-14


def test_fold_edges_and_scalars():
    # a Gaussian cut at two widths is far from zero at x_max; knots at
    # multiples of 1/40 put the lattice on dyadic points
    g = _gauss_line(0.5, 1.0, spacing=1.0 / 40)
    x_max = g.grid.x_max
    assert x_max == 1.0
    probe = np.array([0.0, 0.3, x_max, x_max + 1e-12, 1.7, -x_max])
    assert _rel(g(probe), _dense_value(g, probe)) <= 1e-14
    assert g(x_max) != 0.0 and g(x_max + 1e-12) == 0.0 and g(-2.0) == 0.0
    assert _rel(g.derivative(probe), _dense_slope(g, probe)) <= 1e-14
    # scalar in, scalar out
    assert np.ndim(g(0.3)) == 0 and np.ndim(g.derivative(-0.3)) == 0
    assert abs(g(0.3) - _dense_value(g, np.array([0.3]))[0]) <= 1e-15
    assert abs(g.derivative(-0.3)
               - _dense_slope(g, np.array([-0.3]))[0]) <= 1e-15
    # x ± σ lands exactly on ±x_max (0.25 + 0.75, 0.5 + 0.5, 0.25 - 1.25)
    # and beyond it; the lattice grid holds every x below among its points
    grid = g.lattice_grid(4.0)
    assert grid.x_max == 4.0 and grid.n_panels == 160
    x = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 4.0])
    at_x = np.searchsorted(grid.points, x)
    assert np.array_equal(grid.points[at_x], x)
    sig = np.array([0.25, 0.5, 0.75, 1.25, 2.5])
    w = np.array([0.3, -0.2, 0.5, 0.4, 0.7])
    (vals, node_vals), (slopes, node_slopes) = (
        g.fold(grid, sig, w), g.fold(grid, sig, w, slope=True))
    for pts, got, dgot in ((grid.points, vals, slopes),
                           (grid.nodes, node_vals, node_slopes)):
        ref = (_dense_value(g, pts[:, None] - sig)
               + _dense_value(g, pts[:, None] + sig)) @ w
        dref = (_dense_slope(g, pts[:, None] - sig)
                + _dense_slope(g, pts[:, None] + sig)) @ w
        assert _rel(got, ref) <= 1e-14 and _rel(dgot, dref) <= 1e-14
    # the pairs onto ±x_max read the spline there
    one, _ = g.fold(grid, [0.75], [1.0])
    assert abs(one[at_x[1]] - (g(0.5) + g(1.0))) <= 1e-15
    one, _ = g.fold(grid, [1.25], [1.0])
    assert abs(one[at_x[1]] - g(1.0)) <= 1e-15 and g(1.0) != 0.0
    assert vals[-1] == 0.0  # every pair of x = 4 lies beyond the grid


def test_fold_refuses_off_lattice_grids():
    g = _gauss_line(0.5, 3.0)
    sig, w = np.array([0.1, 0.2]), np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="lattice_grid"):
        g.fold(make_grid(4.0, spacing=0.03), sig, w)
    with pytest.raises(ValueError, match="lattice_grid"):
        g.fold(make_grid(4.013, n_panels=200), sig, w)
