"""Radial eigenfunction machinery: series/ODE agreement, closed-form oracles,
coefficient bounds, truncation control, derivative checks."""

import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from harmonic import cli, spherical
from harmonic.density import (make_custom, make_damek_ricci, make_euclidean,
                              make_real_hyperbolic)
from harmonic.grids import make_grid
from harmonic.spherical import (QuadratureError, TruncationError,
                                eigen_profile, eigen_state_at, phi, phi_basis,
                                phi_ode_values, phi_series, spectral_shift,
                                truncation_order, volterra_coefficients)

E0 = make_euclidean(0)
E2 = make_euclidean(2)
H2 = make_real_hyperbolic(1)
H3 = make_real_hyperbolic(2)
DR21 = make_damek_ricci(2, 1)
GRID = make_grid(6.0, spacing=0.05)


# -- Volterra coefficients -------------------------------------------------

def test_first_coefficient_closed_form():
    # theta = r^n gives a_1(r) = r^2 / (2(n+1)); for n=2 that is r^2/6.
    coeffs = volterra_coefficients(E2, GRID, 1)
    r = GRID.points
    assert np.max(np.abs(coeffs.point_values[0] - r**2 / 6.0)) < 1e-13
    assert np.max(np.abs(coeffs.point_derivs[0] - r / 3.0)) < 1e-12


def test_flat_line_coefficients_are_factorial_powers():
    # theta = 1: the recursion solves a_k = r^{2k}/(2k)! exactly.
    coeffs = volterra_coefficients(E0, GRID, 6)
    r = GRID.points
    for k in range(1, 7):
        exact = r ** (2 * k) / math.factorial(2 * k)
        scale = exact[-1]
        err = np.max(np.abs(coeffs.point_values[k - 1] - exact)) / scale
        assert err < 1e-12, f"k={k}: {err}"


def test_coefficients_nonnegative_and_bounded():
    coeffs = volterra_coefficients(H3, GRID, 8)
    r = GRID.points[1:]
    for k in range(1, 9):
        a = coeffs.point_values[k - 1][1:]
        cap = r ** (2 * k) / math.factorial(2 * k)
        assert np.all(a >= -1e-15 * cap[-1])
        assert np.all(a <= cap * (1 + 1e-12) + 1e-15 * cap[-1])


def test_workspace_extends_consistently():
    # Asking for more terms must not perturb the ones already computed.
    g = make_grid(4.0, n_panels=64)
    first = volterra_coefficients(H3, g, 3).point_values.copy()
    more = volterra_coefficients(H3, g, 10)
    assert more.k_max == 10
    assert np.array_equal(more.point_values[:3], first)


@pytest.mark.parametrize("n, edges", [(10, 202), (30, 210)])
def test_coefficients_where_the_growth_cuts_add_edges(n, edges):
    # θ = r^n: a_1 = r²/(2(n+1)), a_1' = r/(n+1), a_2 = r⁴/(8(n+1)(n+3)),
    # at the 201 grid points only, not at the edges _cut_growth inserts
    grid = make_grid(10.0, spacing=0.05)
    assert spherical._cut_growth(grid.points, n).size == edges
    coeffs = volterra_coefficients(make_euclidean(n), grid, 2)
    assert coeffs.point_values.shape == coeffs.point_derivs.shape == (2, 201)
    r = grid.points
    for got, want in [(coeffs.point_values[0], r**2 / (2 * (n + 1))),
                      (coeffs.point_derivs[0], r / (n + 1)),
                      (coeffs.point_values[1],
                       r**4 / (8 * (n + 1) * (n + 3)))]:
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] / want[1:] - 1)) < 1e-13


def test_coefficient_guards():
    with pytest.raises(ValueError):
        volterra_coefficients(E2, GRID, 0)
    # density that goes negative inside the grid: the quadrature must refuse
    bad = make_custom("r**2*(1 - r**2/4)", 2, validate=False)
    with pytest.raises(QuadratureError, match="positive"):
        volterra_coefficients(bad, make_grid(3.0, n_panels=30), 2)


# -- truncation control ----------------------------------------------------

def test_truncation_order_basics():
    assert truncation_order(0.0, 10.0) == 0
    k_small = truncation_order(1.0, 5.0)
    k_large = truncation_order(9.0, 5.0)
    assert 0 < k_small < k_large
    # the returned order really does make the bound term tiny
    b = k_small * math.log(1.0 * 25.0) - math.lgamma(2 * k_small + 1)
    assert b < math.log(1e-14)


def test_truncation_order_cap():
    with pytest.raises(TruncationError) as exc:
        truncation_order(1e4, 10.0, k_cap=160)
    assert exc.value.required_k > 160


# -- phi against closed forms ----------------------------------------------

def _phi_errors(model, lam, oracle, builder):
    sf = builder(model, lam, GRID)
    r = GRID.points
    return np.max(np.abs(sf.values - oracle(r))), sf


def test_phi_series_flat_line_is_cosine():
    err, sf = _phi_errors(E0, 1.7, lambda r: np.cos(1.7 * r), phi_series)
    assert err < 1e-11
    assert err <= sf.info["error_bound"] + 1e-11


def test_phi_series_flat_space_is_sinc():
    lam = 2.0
    def oracle(r):
        out = np.ones_like(r)
        out[1:] = np.sin(lam * r[1:]) / (lam * r[1:])
        return out
    err, _ = _phi_errors(E2, lam, oracle, phi_series)
    assert err < 1e-11


def test_phi_hyperbolic_oracle_both_paths():
    lam = 1.3
    def oracle(r):
        out = np.ones_like(r)
        out[1:] = np.sin(lam * r[1:]) / (lam * np.sinh(r[1:]))
        return out
    err_s, _ = _phi_errors(H3, lam, oracle, phi_series)
    err_o, _ = _phi_errors(H3, lam, oracle, phi)
    assert err_s < 1e-11
    assert err_o < 1e-9


def test_phi_complex_lambda():
    # on r ≤ 10 the whole-radius Volterra series sums to 8.1e-12 and 1.3e-12
    # here, the piecewise series to about 1e-13 and 1e-15
    grid = make_grid(10.0, spacing=0.05)
    for lam in (1.0 + 0.5j, 1.0):
        sf = phi(E0, lam, grid)
        err = np.max(np.abs(sf.values - np.cos(lam * grid.points)))
        assert err < 1e-12, lam


def test_phi_is_one_at_special_imaginary_lambda():
    # L(iH/2) = 0 kills every series term.
    for model in (H3, make_damek_ricci(2, 1)):
        lam = 0.5j * model.H
        L, _ = spectral_shift(model, lam)
        assert abs(L) < 1e-14
        sf = phi(model, lam, GRID)
        assert np.max(np.abs(sf.values - 1.0)) < 1e-10


@pytest.mark.parametrize("sign", [1, -1], ids=["+iH/2", "-iH/2"])
def test_phi_series_at_zero_shift_is_exactly_one(sign):
    # L(±iH/2) = 0 on H³ exactly (λ² = -1, H²/4 = 1): no series term is
    # summed, φ ≡ 1 and φ' ≡ 0 with no error
    sf = phi_series(H3, sign * 0.5j * H3.H, GRID)
    assert sf.info["L"] == 0
    assert np.all(sf.values == 1.0)
    assert np.all(sf.deriv_values == 0.0)
    assert sf.info["error_bound"] == 0.0


def _damek_ricci_phi(m, k, lam, r):
    """Jacobi-function oracle: 2F1(Q/2+iλ, Q/2-iλ; (m+k+1)/2; -sinh²(r/2))."""
    Q = m / 2 + k
    return np.array([complex(mpmath.hyp2f1(Q / 2 + 1j * lam, Q / 2 - 1j * lam,
                                           (m + k + 1) / 2,
                                           -math.sinh(x / 2) ** 2))
                     for x in r])


@pytest.mark.parametrize("lam", [1.0, 1.7, 4.0, 2 + 1j])
@pytest.mark.parametrize("r_max", [5.0, 10.0])
def test_phi_series_is_within_its_stated_bound(r_max, lam):
    # the K summed terms each round at eps of the largest: on R³ at λ = 4,
    # r ≤ 10, φ is 5.7 off, 17.8 times eps·max|a_k L^k| but within K times it
    grid = make_grid(r_max, spacing=0.05)
    r = grid.points.astype(complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        cases = [(E0, np.cos(lam * r)),
                 (E2, np.where(r > 0, np.sin(lam * r) / (lam * r), 1.0)),
                 (H3, np.where(r > 0, np.sin(lam * r) / (lam * np.sinh(r)),
                               1.0))]
    with mpmath.workdps(30):
        cases.append((DR21, _damek_ricci_phi(2, 1, lam, grid.points[::4])))
    for model, want in cases:
        sf = phi_series(model, lam, grid)
        got = sf.values[::4] if model is DR21 else sf.values
        assert np.max(np.abs(got - want)) <= sf.info["error_bound"]


def test_cli_phi_damek_ricci_short_radius(tmp_path):
    out = tmp_path / "phi.csv"
    assert cli.main(["phi", "--model", "damek-ricci", "--rmax", "2",
                     "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert '"key":"damek_ricci(2,1)"' in lines[0]
    assert '"lambda":{"im":0,"re":1}' in lines[0]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    ref = _damek_ricci_phi(2, 1, 1.0, rows[:, 0])
    assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - ref)) < 1e-8


# -- high dimensions: within error_bound, or a typed refusal ----------------

def _flat_phi(n, lam, r):
    """E^(n+1): Γ(ν+1)(2/λr)^ν J_ν(λr) = 0F1(; (n+1)/2; -(λr)²/4)."""
    return complex(mpmath.hyp0f1((n + 1) / 2, -(lam * r) ** 2 / 4))


def _hyperbolic_phi(n, lam, r):
    """H^(n+1): 2F1((n/2+iλ)/2, (n/2-iλ)/2; (n+1)/2; -sinh² r)."""
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1((n / 2 + 1j * lam) / 2,
                                     (n / 2 - 1j * lam) / 2, (n + 1) / 2,
                                     -mpmath.sinh(r) ** 2))


@pytest.mark.parametrize("lam", [1.0, 5.0])
@pytest.mark.parametrize("n", [16, 21, 30, 60])
@pytest.mark.parametrize("make, exact", [
    (make_euclidean, _flat_phi), (make_real_hyperbolic, _hyperbolic_phi)],
    ids=["E", "H"])
def test_phi_in_high_dimension_is_within_its_bound(make, exact, n, lam):
    # uncut, the piece [h, 2h] grows r^n by 2^n, more than its nodes resolve
    grid = make_grid(10.0, spacing=0.05)
    sf = phi(make(n), lam, grid)
    i = np.searchsorted(grid.points, [0.05, 0.3, 1, 2, 3, 5, 10])
    want = np.array([exact(n, lam, r) for r in grid.points[i]])
    assert np.max(np.abs(sf.values[i] - want)) <= sf.info["error_bound"]


def test_growth_cuts_leave_n_up_to_7_alone():
    lattice = 0.5 * np.arange(21.0)
    halves = 3.0 * (np.arange(65) / 64)
    for n in range(8):
        for edges in (lattice, halves):
            assert np.array_equal(spherical._cut_growth(edges, n), edges)
    # r^8 grows by 2^8 across [0.5, 1]: one cut, at 0.5·√2
    cut = spherical._cut_growth(lattice, 8)
    assert np.array_equal(np.delete(cut, 2), lattice)
    assert cut[2] == pytest.approx(0.5 * math.sqrt(2), rel=1e-15)


def test_series_refuses_the_dimension_whose_first_piece_underflows():
    model = make_euclidean(100)
    with pytest.raises(QuadratureError, match=r"n \+ 1 = 101"):
        phi(model, 1.0, make_grid(3.0, spacing=0.05))
    with pytest.raises(QuadratureError, match=r"n \+ 1 = 101"):
        eigen_state_at(model, [-1.0], 1.0)


def test_eigen_state_in_high_dimension():
    # E^31 at r = 1: φ = 0F1(; b; L/4) and φ_r = (L/2b) 0F1(; b + 1; L/4),
    # b = 31/2
    L = np.array([-1 + 0.5j, -9, -30 + 2j])
    state = eigen_state_at(make_euclidean(30), L, 1.0)
    b = 31 / 2
    phi_want = [complex(mpmath.hyp0f1(b, z / 4)) for z in L]
    dphi_want = [complex(z / (2 * b) * mpmath.hyp0f1(b + 1, z / 4))
                 for z in L]
    for got, want in [(state["phi"], phi_want),
                      (state["dphi_dr"], dphi_want)]:
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_cli_phi_in_dimension_91_has_finite_rows_within_the_bound(tmp_path):
    # r^91 on the first piece is near the bottom of double range
    out = tmp_path / "phi.csv"
    assert cli.main(["phi", "--n", "90", "--rmax", "3",
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", comments="#")
    assert np.all(np.isfinite(rows))
    bound = phi(make_euclidean(90), 1.0, make_grid(3.0)).info["error_bound"]
    want = [_flat_phi(90, 1.0, x) for x in rows[::6, 0]]
    assert np.max(np.abs(rows[::6, 1] - want)) <= bound


def test_spherical_function_spline_call():
    sf = phi_series(E0, 1.1, GRID)
    r = np.array([0.513, 2.044, 5.391])
    # stored samples are 1e-14 accurate; the spline between them is O(h^4)
    assert np.max(np.abs(sf(r) - np.cos(1.1 * r))) < 1e-7


def test_phi_ode_values_batch_matches_single():
    r_pts = np.linspace(0.0, 5.0, 41)
    lams = [0.5, 1.0, 2.0]
    batch, dbatch = phi_ode_values(E2, lams, r_pts)
    for i, lam in enumerate(lams):
        single, dsingle = phi_ode_values(E2, [lam], r_pts)
        assert np.allclose(batch[i], single[0], atol=1e-12)
        assert np.allclose(dbatch[i], dsingle[0], atol=1e-12)


def _e3_slope(lam, r):
    return (lam * r * np.cos(lam * r) - np.sin(lam * r)) / (lam * r * r)


def _h3_slope(lam, r):
    return ((lam * np.cos(lam * r) * np.sinh(r) - np.sin(lam * r) * np.cosh(r))
            / (lam * np.sinh(r) ** 2))


# (model, φ_λ, φ_λ') in closed form; λ may be complex
CLOSED_FORMS = {
    "E1": (E0, lambda lam, r: np.cos(lam * r),
           lambda lam, r: -lam * np.sin(lam * r)),
    "E2": (make_euclidean(1), lambda lam, r: special.jv(0, lam * r),
           lambda lam, r: -lam * special.jv(1, lam * r)),
    "E3": (E2, lambda lam, r: np.sin(lam * r) / (lam * r), _e3_slope),
    "H3": (H3, lambda lam, r: np.sin(lam * r) / (lam * np.sinh(r)),
           _h3_slope),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
@pytest.mark.parametrize("r_max, lam_max", [(3.0, 640.0), (10.0, 160.0)])
def test_phi_ode_values_match_closed_forms(name, r_max, lam_max):
    # the piecewise series is λ-uniform: φ and φ'/max(1, |λ|) within 1e-12
    # up to λ r = 1920, where DOP853 drifted in phase by up to 6e-9
    model, f, df = CLOSED_FORMS[name]
    r = np.linspace(0.0, r_max, 601)[1:]
    lams = np.linspace(0.5, lam_max, 64)
    vals, derivs = phi_ode_values(model, lams, r)
    lam = lams[:, None]
    assert np.max(np.abs(vals - f(lam, r))) < 1e-12
    assert np.max(np.abs(derivs - df(lam, r)) / np.maximum(1.0, lam)) < 1e-12


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_phi_ode_values_match_closed_forms_at_complex_lambda(name):
    model, f, df = CLOSED_FORMS[name]
    r = np.linspace(0.0, 3.0, 301)[1:]
    lam = 1.0 + 0.5j
    vals, derivs = phi_ode_values(model, [lam], r)
    assert vals.dtype == complex
    assert np.max(np.abs(vals[0] - f(lam, r))) < 1e-12
    assert np.max(np.abs(derivs[0] - df(lam, r))) < 1e-12


@pytest.mark.parametrize("model, exact", [
    (E0, lambda lam, r: np.cos(lam * r)),
    (E2, lambda lam, r: np.sin(lam * r) / (lam * r)),
    (H3, lambda lam, r: np.sin(lam * r) / (lam * np.sinh(r))),
], ids=["E0", "E3", "H3"])
def test_phi_ode_values_at_large_lambda(model, exact):
    # a batch topped by λ = 320: on the line DOP853 at rtol 1e-11 was 1.4e-9
    # off in the λ = 320 row, its phase drift over the 150 periods of
    # cos(320 r) on [0, 3]
    r = np.linspace(0.0, 3.0, 301)[1:]
    lams = np.array([40.0, 80.0, 160.0, 320.0])
    vals, _ = phi_ode_values(model, lams, r)
    assert np.max(np.abs(vals - exact(lams[:, None], r))) < 1e-12


@pytest.mark.parametrize("model", [
    DR21, make_damek_ricci(4, 3), make_real_hyperbolic(5),
    make_custom("sinh(r)**2", 2)], ids=["DR21", "DR43", "H6", "custom"])
def test_phi_ode_values_match_the_ode_reference(model, dop853_rows):
    # no closed form: DOP853 (built in conftest) is the reference
    r = np.linspace(0.0, 6.0, 241)
    lams = np.linspace(0.0, 40.0, 21)
    vals, derivs = phi_ode_values(model, lams, r)
    L = -(lams * lams + model.H ** 2 / 4)
    ref = dop853_rows(model, L, r)
    assert np.max(np.abs(vals - ref["phi"])) < 1e-10
    assert np.max(np.abs(derivs - ref["dphi_dr"])
                  / np.maximum(1.0, lams[:, None])) < 1e-10


def test_phi_ode_values_takes_radii_in_any_order():
    # unsorted and repeated radii get the rows of the sorted distinct radii,
    # in the caller's order, and a repeated radius adds its weights
    r = np.array([1.0, 0.5, 2.0, 0.5, 0.0, 1.0])
    distinct = np.array([0.0, 0.5, 1.0, 2.0])
    at = [2, 1, 3, 1, 0, 2]
    for lams in ([0.3, 1.7, 4.0], [1.0 + 0.4j, 2.5]):
        vals, ders = phi_ode_values(DR21, lams, r)
        ref_vals, ref_ders = phi_ode_values(DR21, lams, distinct)
        assert np.array_equal(vals, ref_vals[:, at])
        assert np.array_equal(ders, ref_ders[:, at])
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    sums = phi_ode_values(DR21, [0.3, 1.7], r, derivs=False, weights=w)
    ref = phi_ode_values(DR21, [0.3, 1.7], distinct, derivs=False,
                         weights=[5.0, 6.0, 7.0, 3.0])
    assert np.array_equal(sums, ref)


def test_phi_ode_values_of_no_lambda_are_empty():
    r = np.linspace(0.0, 3.0, 7)
    vals, ders = phi_ode_values(H3, [], r)
    assert vals.shape == ders.shape == (0, 7)
    vals, ders = phi_ode_values(H3, np.array([]), r, derivs=False)
    assert vals.shape == (0, 7) and ders is None
    sums = phi_ode_values(H3, [], r, derivs=False, weights=np.ones(7))
    assert sums.shape == (0,)


# -- integrated eigenfunction ----------------------------------------------

def test_capital_phi_flat_line():
    # Φ = ∫θφ at single radii, where the state sums its series in L
    lam = 1.4
    for r in GRID.points[10::10]:
        Phi = eigen_state_at(E0, [-lam * lam], r)["Phi"][0]
        assert abs(Phi - math.sin(lam * r) / lam) < 1e-12


def test_capital_phi_matches_dop853_on_damek_ricci(dop853_rows):
    # Φ = ∫θφ and ∂Φ/∂L from the flux levels, against the DOP853 reference
    L, r = -1.0 - 0.25j, 2.0
    got = eigen_state_at(DR21, [L], r)
    ref = dop853_rows(DR21, [L], [r])
    for key in ("Phi", "dPhi_dL"):
        assert abs(got[key][0] - ref[key][0, 0]) < 1e-10 * abs(ref[key][0, 0])


def test_capital_phi_recovers_ball_volume():
    # L = 0 (lambda = iH/2) makes phi constant 1, so Phi = integral of theta.
    r = GRID.points
    vals = eigen_profile(H3, 0.0, r)["Phi"]
    exact = (np.sinh(r) * np.cosh(r) - r) / 2.0
    assert np.max(np.abs(vals - exact)) < 1e-12 * exact[-1]


# -- batched L-plane state (zero-search backend) -----------------------------

def test_eigen_state_flat_line_closed_forms():
    lam = 1.5
    L = -lam * lam
    out = eigen_state_at(E0, [L], 2.0)
    r = 2.0
    assert abs(out["phi"][0] - math.cos(lam * r)) < 1e-10
    assert abs(out["dphi_dr"][0] + lam * math.sin(lam * r)) < 1e-10
    assert abs(out["Phi"][0] - math.sin(lam * r) / lam) < 1e-10
    # d phi/dL = r sin(lam r) / (2 lam) by the chain rule through lam^2 = -L
    assert abs(out["dphi_dL"][0] - r * math.sin(lam * r) / (2 * lam)) < 1e-9
    dPhi = (r * math.cos(lam * r) - math.sin(lam * r) / lam) / lam
    assert abs(out["dPhi_dL"][0] - dPhi / (-2 * lam)) < 1e-9


def test_eigen_state_requires_positive_radius():
    with pytest.raises(ValueError):
        eigen_state_at(E0, [-1.0], 0.0)


def test_eigen_state_below_two_taylor_radii_flat_line():
    # a radius far inside one piece: the first piece's Volterra levels alone
    lam, r = 1.5, 1.5e-3
    out = eigen_state_at(E0, [-lam * lam], r)
    assert abs(out["phi"][0] - math.cos(lam * r)) < 1e-14
    assert abs(out["dphi_dr"][0] + lam * math.sin(lam * r)) < 1e-14
    assert abs(out["Phi"][0] - math.sin(lam * r) / lam) < 1e-16
    assert abs(out["dphi_dL"][0] - r * math.sin(lam * r) / (2 * lam)) < 1e-16
    dPhi = (r * math.cos(lam * r) - math.sin(lam * r) / lam) / lam
    assert abs(out["dPhi_dL"][0] - dPhi / (-2 * lam)) < 1e-16


@pytest.mark.parametrize("model", [H2, DR21], ids=["H2", "DR21"])
def test_eigen_state_profile_and_ode_values_agree(model):
    L, r = -3.0 + 2.0j, 2.5
    state = eigen_state_at(model, [L], r)
    prof = eigen_profile(model, L, np.array([0.5, r]))
    lam = np.sqrt(-L - model.H**2 / 4)
    vals, derivs = phi_ode_values(model, [lam], np.array([r]))
    for key in ("phi", "dphi_dr", "Phi"):
        assert abs(state[key][0] - prof[key][1]) < 1e-9
    assert abs(state["phi"][0] - vals[0, 0]) < 1e-9
    assert abs(state["dphi_dr"][0] - derivs[0, 0]) < 1e-9


def test_eigen_state_L_derivatives_match_central_differences():
    L, r, h = -3.0 + 2.0j, 2.5, 1e-4
    state = eigen_state_at(DR21, [L], r)
    for step in (h, 1j * h):
        both = eigen_state_at(DR21, [L + step, L - step], r)
        for key, dkey in (("phi", "dphi_dL"), ("Phi", "dPhi_dL")):
            fd = (both[key][0] - both[key][1]) / (2 * step)
            assert abs(fd - state[dkey][0]) < 1e-7


def test_eigen_profile_repeated_radii_give_equal_rows():
    r = np.array([0.0, 5e-4, 5e-4, 0.7, 0.7, 0.7, 2.0, 2.0])
    distinct, inverse = np.unique(r, return_inverse=True)
    prof = eigen_profile(H3, -4.0 + 1.0j, r)
    ref = eigen_profile(H3, -4.0 + 1.0j, distinct)
    for key in ("phi", "dphi_dr", "Phi"):
        assert np.array_equal(prof[key], ref[key][inverse])
    assert prof["Phi"][0] == 0.0


# -- basis cache -------------------------------------------------------------

def test_phi_basis_values_and_shape():
    r_pts = np.linspace(0.0, 4.0, 17)
    lams = np.array([0.6, 1.9])
    w = np.linspace(0.5, 1.5, 17)
    vec = phi_basis(E0, lams, r_pts, w)
    assert vec.shape == (2,)
    exact = np.cos(lams[:, None] * r_pts[None, :]) @ w
    assert np.max(np.abs(vec - exact)) < 1e-9
    assert phi_basis(E0, lams, r_pts, w) is vec  # cached identity
    assert not vec.flags.writeable


def test_phi_basis_cache_evicts_to_its_byte_cap(monkeypatch, ode_rows):
    rows = ode_rows
    r_pts = np.linspace(0.0, 3.0, 64)
    w = np.ones(64)
    one = 2 * 8                  # bytes of a 2-entry float vector
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(3 * one + one // 2))
    cache = spherical._CACHE
    sets = [np.array([0.5, 1.0]) + i for i in range(6)]
    for lams in sets:
        phi_basis(E0, lams, r_pts, w)
        assert cache.nbytes <= cache.max_bytes
    assert len(rows) == 6 and cache.nbytes == 3 * one
    phi_basis(E0, sets[-1], r_pts, w)   # most recent: still cached
    assert len(rows) == 6
    phi_basis(E0, sets[0], r_pts, w)    # least recent: evicted, recomputed
    assert len(rows) == 7 and cache.nbytes <= cache.max_bytes
    # a vector larger than the whole cap is returned but not stored
    big = phi_basis(E0, np.linspace(0.0, 3.0, 8), r_pts, w)
    assert big.shape == (8,) and cache.nbytes <= cache.max_bytes


def test_phi_basis_threads_match_serial(ode_rows):
    # one λ set, four weight vectors: the weights alone tell the keys apart
    r_pts = np.linspace(0.0, 2.0, 33)
    lams = np.array([0.3, 0.7])
    ws = [np.linspace(0.5, 1.5, 33) * (1 + i % 4) for i in range(16)]
    serial = [phi_ode_values(E2, lams, r_pts, derivs=False, weights=w)
              for w in ws]
    got = [None] * len(ws)

    def work(i):
        got[i] = phi_basis(E2, lams, r_pts, ws[i])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(ws))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, serial):
        assert np.array_equal(a, b)
    cache = spherical._CACHE
    assert len(cache._entries) == 4
    assert cache.nbytes == sum(v.nbytes for v in cache._entries.values())


def test_phi_basis_weights_threads_match_serial(ode_rows):
    r_pts = np.linspace(0.0, 2.0, 33)
    weights = np.linspace(0.5, 1.5, 33)
    sets = [np.array([0.3, 0.7]) * (1 + i % 4) for i in range(16)]
    serial = [phi_ode_values(E2, lams, r_pts, derivs=False, weights=weights)
              for lams in sets]
    got = [None] * len(sets)

    def work(i):
        got[i] = phi_basis(E2, sets[i], r_pts, weights)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(sets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, serial):
        assert np.array_equal(a, b)
    cache = spherical._CACHE
    # four distinct keys; a lost update would break the byte count
    assert len(cache._entries) == 4
    assert cache.nbytes == sum(v.nbytes for v in cache._entries.values())


def _radii_across_pieces(model, lam_max):
    """Radii at 0, on piece edges and inside pieces, with piece 3 empty."""
    top = lam_max**2 + model.H**2 / 4
    h = spherical._spps_piece(top)
    inside = h * (np.arange(11)[:, None] + np.array([0.13, 0.5, 0.91]))
    inside = inside[np.arange(11) != 3].ravel()
    edges = h * np.array([1.0, 2.0, 5.0, 10.0])
    inside = inside[inside < 10.3 * h]
    return np.sort(np.concatenate([[0.0, 0.0], edges, inside, [10.3 * h]]))


def _radii_across_blocks(model, lam_max):
    """Radii over 30 pieces: 240 in most, none in pieces 4-6 and 17, and
    3,000 in piece 20, more than one of _spps_contract's table blocks
    (about 2,000 radii) holds; 9,720 radii in all."""
    top = lam_max**2 + model.H**2 / 4
    h = spherical._spps_piece(top)
    counts = np.full(30, 240)
    counts[[4, 5, 6, 17]] = 0
    counts[20] = 3000
    r = [h * (p + (np.arange(c) + 0.5) / c) for p, c in enumerate(counts)]
    return np.concatenate(r)


@pytest.mark.parametrize("model", [E0, E2, H3, make_real_hyperbolic(5), DR21],
                         ids=lambda m: m.key)
def test_weighted_sums_equal_the_rows_product(model):
    lams = np.linspace(0.0, 40.0, 97)
    r = _radii_across_pieces(model, 40.0)
    w = np.random.default_rng(7).uniform(0.5, 1.5, r.size)
    rows, _ = phi_ode_values(model, lams, r, derivs=False)
    got = phi_ode_values(model, lams, r, derivs=False, weights=w)
    assert got.shape == lams.shape
    want = rows @ w
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # complex λ, and radii all at 0
    lam = np.array([1.0 + 0.5j, 3.0 - 0.2j])
    rows, _ = phi_ode_values(model, lam, r, derivs=False)
    got = phi_ode_values(model, lam, r, derivs=False, weights=w)
    assert np.max(np.abs(got - rows @ w)) <= 1e-14 * np.max(np.abs(rows @ w))
    got = phi_ode_values(model, lams, np.zeros(3), derivs=False,
                         weights=np.array([1.0, 2.0, 0.5]))
    assert np.array_equal(got, np.full(lams.size, 3.5))
    # radii over several table blocks, with empty pieces between them
    r = _radii_across_blocks(model, 40.0)
    w = np.random.default_rng(8).uniform(0.5, 1.5, r.size)
    rows, _ = phi_ode_values(model, lams, r, derivs=False)
    got = phi_ode_values(model, lams, r, derivs=False, weights=w)
    want = rows @ w
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_weights_need_values_only_and_one_per_radius():
    r = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="weights"):
        phi_ode_values(E2, [1.0], r, weights=np.ones(5))
    with pytest.raises(ValueError, match="weights"):
        phi_ode_values(E2, [1.0], r, derivs=False, weights=np.ones(4))


# -- structural properties ---------------------------------------------------

@given(st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_phi_starts_at_one(re, im):
    sf = phi_series(H3, complex(re, im), GRID)
    assert abs(sf.values[0] - 1.0) < 1e-12
    assert abs(sf.deriv_values[0]) < 1e-12


@given(st.floats(min_value=0.1, max_value=5.0))
def test_phi_is_even_in_lambda(lam):
    a = phi_series(E2, lam, GRID).values
    b = phi_series(E2, -lam, GRID).values
    assert np.array_equal(a, b)
