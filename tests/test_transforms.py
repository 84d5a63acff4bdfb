"""Transform layer: spherical Fourier, Abel, convolution, line functions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harmonic import spherical, transforms
from harmonic.density import (make_damek_ricci, make_euclidean,
                              make_real_hyperbolic)
from harmonic.grids import make_grid
from harmonic.profiles import annulus_bump, gauss_bump, smooth_bump
from harmonic.transforms import (AccuracyError, EvenFunction, abel,
                                 abel_inverse, cosine_transform,
                                 line_convolve, plane_integral_r3,
                                 radial_convolve, spherical_fourier)

E0 = make_euclidean(0)
E2 = make_euclidean(2)
H3 = make_real_hyperbolic(2)
DR43 = make_damek_ricci(4, 3)
H6 = make_real_hyperbolic(5)


def _gauss_line(w, S=None):
    """Even Gaussian on the line with exact node samples."""
    S = 7.5 * w if S is None else S
    g = make_grid(S, spacing=min(0.02, S / 20))
    return EvenFunction(grid=g, values=np.exp(-g.points**2 / (2 * w * w)),
                        support=S,
                        exact_node_values=np.exp(-g.nodes**2 / (2 * w * w)))


# -- containers ---------------------------------------------------------------

def test_radial_function_from_profile():
    f = EvenFunction.from_profile(gauss_bump(0.4))
    assert f.support == pytest.approx(3.0)
    # exact node samples, not spline-interpolated ones
    assert np.array_equal(f.node_values(), gauss_bump(0.4).f(f.grid.nodes))
    assert f(-0.7) == pytest.approx(f(0.7))       # even by construction
    assert f(f.grid.x_max + 1.0) == 0.0           # zero beyond the grid


def test_even_line_function_symmetry():
    g = _gauss_line(0.5)
    s = np.array([0.3, 1.1, 2.0])
    assert np.array_equal(g(-s), g(s))
    assert np.array_equal(g.derivative(-s), -g.derivative(s))
    assert g(g.grid.x_max + 0.5) == 0.0
    # analytic derivative of the Gaussian
    expect = -(s / 0.25) * np.exp(-s**2 / 0.5)
    assert np.max(np.abs(g.derivative(s) - expect)) < 1e-6


@pytest.mark.parametrize("case", ["gauss_line", "abel"])
def test_slope_spline_is_odd_at_the_origin(case):
    # the spline through the odd slope samples has no curvature at 0, so
    # inside the first knot interval it keeps the accuracy it has elsewhere
    if case == "gauss_line":
        g, s = transforms.gauss_line(0.8, 6.0), np.array([0.005, -0.005, 1.5])
        exact = -2 * s / 0.64 * np.exp(-(s / 0.8) ** 2)
    else:
        f = gauss_bump(0.4)
        g, s = abel(E2, f), np.array([0.004, -0.004, 0.7])
        exact = -2 * math.pi * s * f.f(s)     # A f(s) = 2π ∫_s f(r) r dr
    assert np.max(np.abs(g.derivative(s) - exact)) < 5e-9


def test_transforms_reject_raw_callables():
    with pytest.raises(TypeError, match="EvenFunction or RadialProfile"):
        spherical_fourier(E2, lambda r: np.exp(-r), [1.0])


def test_fourier_requires_compact_support():
    g = make_grid(2.0, n_panels=20)
    f = EvenFunction(grid=g, values=np.exp(-g.points), support=np.inf)
    with pytest.raises(ValueError, match="compact support"):
        spherical_fourier(E2, f, [1.0])


# -- the contracted transform -------------------------------------------------

@pytest.mark.parametrize("model", [E0, E2, H3, H6, make_damek_ricci(2, 1)],
                         ids=lambda m: m.key)
def test_spherical_fourier_equals_the_basis_product(model):
    f = EvenFunction.from_profile(annulus_bump(0.8, 0.3))
    lams = np.linspace(0.0, 60.0, 241)
    nodes = f.grid.nodes
    weighted = f.grid.node_weights * model.theta(nodes) * f.node_values()
    rows, _ = spherical.phi_ode_values(model, lams, nodes, derivs=False)
    want = model.sphere_const * (rows @ weighted)
    got = spherical_fourier(model, f, lams).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_abel_caches_no_basis_matrix(monkeypatch):
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(spherical.CACHE_BYTES))
    af = abel(E2, smooth_bump(1.5))
    entries = list(spherical._CACHE._entries.values())
    # one F f vector per λ_max round, and no λ × r matrix behind them
    assert len(entries) > 1
    assert all(v.ndim == 1 for v in entries)
    assert sum(v.size for v in entries) == af.info["n_lambda_nodes"]


def test_abel_inverse_adds_no_cache_entry(monkeypatch):
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(spherical.CACHE_BYTES))
    g = abel(H3, gauss_bump(0.42))
    before = list(spherical._CACHE._entries)
    abel_inverse(H3, g)
    # neither its Dirichlet scan nor its rows are looked up again
    assert list(spherical._CACHE._entries) == before


# -- peak memory --------------------------------------------------------------

def _traced_peak(fn):
    """Peak bytes that fn allocates while it runs (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_abel_synthesis_stays_within_a_few_blocks(monkeypatch):
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(spherical.CACHE_BYTES))
    f = smooth_bump(1.5)
    af = abel(E2, f)                  # F f cached: the synthesis alone
    # whole s × λ tables of cos and sin would take more than the bound
    table = af.info["n_lambda_nodes"] * af.grid.points.size * 8
    assert 2 * table > 6 * 2**20
    assert _traced_peak(lambda: abel(E2, f)) <= 6 * 2**20


def test_spherical_fourier_stays_within_a_few_blocks(monkeypatch):
    # a heat profile at t = 0.8 on the 1,525 cells of dr = 0.01 that H⁶'s
    # `heat-check --t 0.8` takes: 12,200 radial nodes
    grid = make_grid(15.25, n_panels=1525)
    f = EvenFunction(grid=grid, values=np.exp(-grid.points**2 / 3.2),
                     support=grid.x_max,
                     exact_node_values=np.exp(-grid.nodes**2 / 3.2))
    assert f.grid.nodes.size == 12200
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(spherical.CACHE_BYTES))
    lams = np.linspace(0.0, 2.0, 9)
    assert _traced_peak(lambda: spherical_fourier(H6, f, lams)) <= 6 * 2**20


def test_abel_inverse_builds_no_lambda_scan_by_radii_table(monkeypatch):
    # the rows are φ at the λ_j only, and the scan is at the one radius S;
    # a (λ-scan × radii) table, interpolated to the 133 rows, takes 6.6 MiB
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(spherical.CACHE_BYTES))
    g = abel(E2, smooth_bump(1.3))
    assert _traced_peak(lambda: abel_inverse(E2, g)) <= 5 * 2**20


# -- closed-form oracles ------------------------------------------------------

def test_spherical_fourier_line_gaussian():
    # On the line the transform is twice the cosine integral of the profile.
    w = 0.4
    lams = np.array([0.0, 0.7, 1.5, 3.0])
    got = spherical_fourier(E0, gauss_bump(w), lams).values
    exact = w * math.sqrt(2 * math.pi) * np.exp(-lams**2 * w * w / 2)
    assert np.max(np.abs(got - exact)) < 1e-10


def test_cosine_transform_gaussian():
    w = 0.4
    lams = np.array([0.0, 1.0, 2.5])
    got = cosine_transform(_gauss_line(w), lams)
    exact = w * math.sqrt(2 * math.pi) * np.exp(-lams**2 * w * w / 2)
    assert np.max(np.abs(got - exact)) < 1e-10


def test_abel_on_line_is_identity():
    f = gauss_bump(0.4)
    af = abel(E0, f)
    s = np.linspace(0.0, 1.5, 7)
    assert np.max(np.abs(af(s) - f.f(s))) < 1e-12


def test_abel_flat_space_matches_plane_integral():
    f = gauss_bump(0.4)
    af = abel(E2, f)
    s = np.linspace(0.0, 2.5, 11)
    assert np.max(np.abs(af(s) - plane_integral_r3(f, s))) < 1e-8


def test_plane_integral_gaussian_closed_form():
    w = 0.3
    f = gauss_bump(w)
    s = np.array([0.0, 0.2, 0.8])
    R = f.support
    exact = 2 * math.pi * w * w * (np.exp(-s**2 / (2 * w * w))
                                   - math.exp(-R * R / (2 * w * w)))
    assert np.max(np.abs(plane_integral_r3(f, s) - exact)) < 1e-11


def test_abel_d2_values_consistent():
    af = abel(E2, gauss_bump(0.4))
    d2_spectral = af.info["d2_values"]
    d2_spline = af.grid.spline(af.values).derivative(2)(af.grid.points)
    # the spline's second derivative is only O(h^2); this is a consistency
    # check of the spectral values, not an accuracy statement about splines
    inner = slice(10, -10)
    scale = np.max(np.abs(d2_spectral))
    err = np.max(np.abs(d2_spectral[inner] - d2_spline[inner]))
    assert err < 1e-3 * scale


def test_line_convolve_gaussians():
    a, b = 0.35, 0.45
    conv = line_convolve(_gauss_line(a), _gauss_line(b))
    c2 = a * a + b * b
    s = np.linspace(0.0, 1.5, 9)
    exact = math.sqrt(2 * math.pi) * a * b / math.sqrt(c2) * np.exp(-s**2 / (2 * c2))
    # the fold samples g2 through its spline, so O(h^4) interpolation error
    # (~4e-9 here) dominates the exact quadrature
    assert np.max(np.abs(conv(s) - exact)) < 1e-7


def test_radial_convolve_line_gaussians():
    # On the line the radial convolution must agree with the classical one.
    a, b = 0.35, 0.45
    h = radial_convolve(E0, gauss_bump(a), gauss_bump(b))
    c2 = a * a + b * b
    r = np.linspace(0.0, 1.2, 7)
    exact = math.sqrt(2 * math.pi) * a * b / math.sqrt(c2) * np.exp(-r**2 / (2 * c2))
    assert np.max(np.abs(h(r) - exact)) < 1e-8


# -- inversion by the Dirichlet eigen-expansion --------------------------------

@pytest.mark.parametrize("model, offset", [(E0, 0.5), (E2, 1.0), (H3, 1.0)],
                         ids=["E0", "E2", "H3"])
def test_abel_inverse_eigenvalues_closed_forms(model, offset):
    # φ_λ(S) is cos(λS) on the line and sin(λS)/(λS), sin(λS)/(λ sinh S) on
    # R³ and H³.  Their zeros lie on the π/(4S) scan, so they carry only the
    # integrator's error in φ_λ(S) (rtol 1e-11), which grows with λ: the top
    # root here is about 1.2e-12 off.
    g = abel(model, gauss_bump(0.4))
    S = g.support
    lams = abel_inverse(model, g).info["lambdas"]
    exact = (np.arange(lams.size) + offset) * math.pi / S
    assert lams.size >= 16
    assert np.max(np.abs(lams / exact - 1.0)) < 1e-11


def test_abel_inverse_norms_on_r3():
    # ∫_0^S r² (sin(λr)/(λr))² dr = S/(2λ²) when sin(λS) = 0
    g = abel(E2, gauss_bump(0.4))
    info = abel_inverse(E2, g).info
    exact = g.support / (2.0 * info["lambdas"] ** 2)
    assert np.max(np.abs(info["norms"] / exact - 1.0)) < 1e-10


def _factorization_error(model, f, g):
    conv = radial_convolve(model, f, g)
    lams = np.linspace(0.0, 6.0, 25)
    Fc = spherical_fourier(model, conv, lams).values
    prod = (spherical_fourier(model, f, lams).values
            * spherical_fourier(model, g, lams).values)
    return float(np.max(np.abs(Fc - prod)) / np.max(np.abs(prod)))


@pytest.mark.parametrize("model", [DR43, H6], ids=["DR43", "H6"])
def test_abel_inverse_on_higher_rank_models(model):
    # roots off the scan points: the zeros are bisected on the scan's
    # interpolant of φ_λ(S), and the rows are exact at them
    f = gauss_bump(0.4)
    finv = abel_inverse(model, abel(model, f))
    truth = f.f(finv.grid.points)
    assert np.max(np.abs(finv.values - truth)) < 1e-6 * np.max(truth)
    assert _factorization_error(model, gauss_bump(0.35),
                                gauss_bump(0.45)) < 1e-6


# -- tail control -------------------------------------------------------------

def _kinked():
    """Tent of height 1 and support 0.2: a kink at the origin."""
    g = make_grid(0.2, n_panels=20)
    return EvenFunction(grid=g, values=np.maximum(0.0, 1.0 - g.points / 0.2),
                        support=0.2)


def test_abel_refuses_nonsmooth_data():
    # kink at the origin: spectral decay is only algebraic, the tail check
    # must refuse and report the lambda_max the decay rate would demand
    tri = _kinked()
    with pytest.raises(AccuracyError) as exc:
        abel(E0, tri)
    assert exc.value.required_lambda_max > 2000

    # a pinned cutoff is neither extended nor refused
    out = abel(E0, tri, lambda_max=2000.0)
    assert out.info["tail_ratio"] > 1e-8  # honest diagnostics survive


def test_abel_refusal_asks_for_more_than_it_tried(monkeypatch):
    # the decay is extrapolated from the tail maximum the stop test uses,
    # not from the last sample, which can sit near a zero of F f; the kinked
    # datum's transform decays only algebraically, so it truly needs more λ
    tried = []
    real = transforms.spherical_fourier

    def recorded(model, f, lams):
        tried.append(float(np.max(lams)))
        return real(model, f, lams)

    monkeypatch.setattr(transforms, "spherical_fourier", recorded)
    with pytest.raises(AccuracyError) as exc:
        abel(E0, _kinked())
    assert exc.value.required_lambda_max > max(tried)


def test_abel_refuses_a_lambda_round_over_budget_before_building_it():
    # support 7.5e-6: 40/R starts at λ_max = 5.3e6, a round of 29,878,896
    # nodes whose series powers alone would take 3.78 GiB
    tracemalloc.start()
    try:
        with pytest.raises(AccuracyError) as exc:
            abel(make_damek_ricci(2, 1), gauss_bump(1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    msg = str(exc.value)
    assert "support 7.5e-06" in msg and "29878896 nodes" in msg
    assert f"budget of {transforms.LAMBDA_NODE_BUDGET}" in msg
    # a pinned cutoff is held to the same budget
    with pytest.raises(AccuracyError, match="over the budget"):
        abel(E2, gauss_bump(0.4), lambda_max=1e7)


def test_abel_reports_spectral_window():
    af = abel(E2, gauss_bump(0.4))
    assert af.info["lambda_max"] >= 40.0 / 3.0
    assert af.info["tail_ratio"] <= 1e-8


def test_abel_extension_integrates_each_row_once(ode_rows):
    f = smooth_bump(1.5)
    af = abel(E2, f)
    # fixed-width panels keep the earlier rounds' nodes, so each row is
    # integrated once; panels spread evenly over [0, λ_max] would move every
    # node each round and integrate 9,304 rows here
    assert len(ode_rows) > 1
    assert sum(ode_rows) == af.info["n_lambda_nodes"]
    width = math.pi / (2 * (f.support + 0.6 + 0.5))
    n_panels = af.info["lambda_max"] / width
    assert abs(n_panels - round(n_panels)) < 1e-9
    again = abel(E2, f)
    assert sum(ode_rows) == af.info["n_lambda_nodes"]
    assert np.array_equal(again.values, af.values)


# -- the multiplier identity --------------------------------------------------

def test_eigen_multiplier_identity():
    # F = (cosine transform) ∘ A, so convolving A f with cos(λ·) multiplies
    # it by F f(λ)
    f = gauss_bump(0.35)
    lams = np.linspace(0.0, 6.0, 25)
    for model in (E2, H3):
        got = cosine_transform(abel(model, f), lams)
        want = spherical_fourier(model, f, lams).values
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


# -- profile sanity -----------------------------------------------------------

def test_smooth_bump_support_and_center():
    f = smooth_bump(1.0)
    assert f(0.0) == pytest.approx(1.0)
    assert f(1.0) == 0.0 and f(1.5) == 0.0
    assert f.df(0.0) == 0.0


def test_annulus_bump_is_even():
    f = annulus_bump(center=1.0, width=0.25)
    r, h = np.array([0.3, 0.9, 1.4]), 1e-6
    assert abs(f.df(0.0)) < 1e-30
    assert np.array_equal(f.f(-r), f.f(r))
    assert np.array_equal(f.d2f(-r), f.d2f(r))
    # the derivative of an even function is odd
    assert np.array_equal(f.df(-r), -f.df(r))
    assert f.df(-0.3) == -f.df(0.3)
    # so its slope at -r is -df(r)
    slope = (f.f(-r + h) - f.f(-r - h)) / (2 * h)
    assert slope == pytest.approx(-f.df(r), rel=1e-7)


def test_profile_laplacian_at_origin():
    f = gauss_bump(0.5)
    lap0 = f.laplacian(E2)(0.0)
    assert lap0 == pytest.approx(3 * f.d2f(0.0))


@given(st.floats(min_value=0.05, max_value=0.95))
def test_profile_derivatives_match_finite_differences(r):
    f = smooth_bump(1.0)
    h = 1e-6
    fd = (f.f(r + h) - f.f(r - h)) / (2 * h)
    assert abs(f.df(r) - fd) < 1e-5 * (1 + abs(f.df(r)))


@given(st.floats(min_value=0.2, max_value=3.0))
def test_fourier_scales_linearly(c):
    f = EvenFunction.from_profile(gauss_bump(0.4))
    scaled = EvenFunction(grid=f.grid, values=c * f.values, support=f.support,
                          exact_node_values=c * f.node_values())
    lams = np.array([0.5, 1.5])
    a = spherical_fourier(E2, scaled, lams).values
    b = c * spherical_fourier(E2, f, lams).values
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, float(np.max(np.abs(b))))
