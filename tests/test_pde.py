"""Evolution machinery: the Klein-Gordon kernel, line evolution, wave and
heat flows."""

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded
from scipy.special import j1

from harmonic.density import (make_damek_ricci, make_euclidean,
                              make_real_hyperbolic)
from harmonic import pde
from harmonic.grids import make_grid
from harmonic.pde import (BoundaryLeakError, heat_identity_check,
                          intertwine_check, kg_kernel, kg_solve,
                          radial_heat_solve, radial_wave_solve,
                          support_growth_slope, wave_to_kg_check)
from harmonic.profiles import gauss_bump, smooth_bump
from harmonic.transforms import EvenFunction, gauss_line, spherical_fourier

E0 = make_euclidean(0)
E2 = make_euclidean(2)
H3 = make_real_hyperbolic(2)


def _gauss_line(w):
    S = 7.5 * w
    g = make_grid(S, spacing=0.02)
    return EvenFunction(grid=g, values=np.exp(-g.points**2 / (2 * w * w)),
                        support=S,
                        exact_node_values=np.exp(-g.nodes**2 / (2 * w * w)))


# -- smoothing kernel ---------------------------------------------------------

def test_kernel_light_cone_value_is_exact():
    # on the cone u = t^2 - s^2 = 0 and the series collapses to one term
    for H, t in [(0.7, 1.0), (2.0, 3.0), (3.5, 10.0)]:
        assert kg_kernel(H, t, t) == -(H * H) * t / 16.0


def test_kernel_matches_bessel_closed_form():
    H, t = 3.0, 2.0
    s = np.linspace(0.0, 1.9, 12)
    u = t * t - s * s
    exact = -t * (H / 4.0) * j1(H * np.sqrt(u) / 2.0) / np.sqrt(u)
    assert np.max(np.abs(kg_kernel(H, t, s) - exact)) < 1e-14


def test_kernel_is_even_in_s():
    s = np.array([0.2, 0.9, 1.4])
    assert np.array_equal(kg_kernel(2.0, 1.5, s), kg_kernel(2.0, 1.5, -s))


def test_kernel_vanishes_for_flat_space():
    assert np.array_equal(kg_kernel(0.0, 2.0, np.array([0.0, 1.0])), [0.0, 0.0])


def test_kernel_domain_guards():
    with pytest.raises(ValueError, match="nonnegative"):
        kg_kernel(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        kg_kernel(1.0, -1.0, 0.0)
    with pytest.raises(ValueError, match=r"\|s\| <= t"):
        kg_kernel(1.0, 1.0, 1.5)


@pytest.mark.parametrize("H, t", [(1.3, 2.0), (2.0, 10.0), (3.5, 10.0),
                                  (5.0, 9.0), (4.0, 30.0)],
                         ids=["Ht2.6", "Ht20", "Ht35", "Ht45", "Ht120"])
def test_kernels_match_hyp0f1_at_30_digits(H, t):
    # at large H*t the power series of W alternates and cancels; the
    # closed form must keep its digits there
    s = np.linspace(0.0, t, 41)
    with mpmath.workdps(30):
        c = mpmath.mpf(-(H * H) / 16.0)
        u = [c * (mpmath.mpf(t) ** 2 - mpmath.mpf(x) ** 2) for x in s]
        ref_w = np.array([float(t * c * mpmath.hyp0f1(2, z)) for z in u])
        ref_wt = np.array([float(c * mpmath.hyp0f1(2, z)
                                 + t * t * c * c * mpmath.hyp0f1(3, z))
                           for z in u])
    w, w_t = pde._kg_kernels(H, t, s)
    assert np.max(np.abs(w - ref_w)) <= 1e-14 * np.max(np.abs(ref_w))
    assert np.max(np.abs(w_t - ref_wt)) <= 1e-14 * np.max(np.abs(ref_wt))


def test_kernel_time_derivative_matches_finite_differences():
    H, t, h = 3.0, 2.0, 1e-5
    s = np.linspace(0.0, 1.8, 10)
    fd = (kg_kernel(H, t + h, s) - kg_kernel(H, t - h, s)) / (2 * h)
    _, w_t = pde._kg_kernels(H, t, s)
    assert np.max(np.abs(w_t - fd)) < 1e-9


# -- line evolution -----------------------------------------------------------

def test_flat_line_evolution_is_dalembert():
    w, t = 0.5, 1.5
    g = _gauss_line(w)
    v = kg_solve(0.0, g, t)
    pts = v.grid.points

    def gf(x):
        return np.exp(-x**2 / (2 * w * w)) * (np.abs(x) <= g.support)

    exact = 0.5 * (gf(pts - t) + gf(pts + t))
    assert np.max(np.abs(v.values - exact)) < 1e-7
    assert v.support == pytest.approx(g.support + t)


def test_flat_line_energy_value():
    # conserved energy of the d'Alembert solution equals int (g')^2 = sqrt(pi)
    # for the unit-height Gaussian of width 0.5
    v = kg_solve(0.0, _gauss_line(0.5), 1.5)
    assert v.info["energy"] == pytest.approx(math.sqrt(math.pi), abs=1e-6)


def test_kg_energy_is_conserved_at_large_h_times_t():
    # H*t = 45, where the power series of W cancels away its digits
    g = gauss_line(0.8, 6.0)
    e0 = kg_solve(5.0, g, 0.25).info["energy"]
    e = kg_solve(5.0, g, 9.0).info["energy"]
    assert abs(e / e0 - 1.0) < 1e-10


# -- radial wave flow ---------------------------------------------------------

def test_wave_flat_line_matches_dalembert():
    states = radial_wave_solve(E0, gauss_bump(0.5), 2.0, 0.004)
    st = states[-1]
    f = gauss_bump(0.5).f
    r = st.grid.points
    exact = 0.5 * (f(np.abs(r - 2.0)) + f(r + 2.0))
    assert st.info["t"] == pytest.approx(2.0)
    assert np.max(np.abs(st.values - exact)) < 2e-4


def test_wave_states_are_ordered_samples():
    states = radial_wave_solve(E2, gauss_bump(0.5), 1.0, 0.004, n_samples=5)
    ts = [st.info["t"] for st in states]
    assert len(states) == 5
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    # initial slice is the datum with zero velocity
    assert np.array_equal(states[0].info["ut_values"],
                          np.zeros_like(states[0].values))
    datum = gauss_bump(0.5).f(states[0].grid.points)
    assert np.max(np.abs(states[0].values - datum)) < 1e-12


def test_wave_support_grows_at_unit_speed():
    states = radial_wave_solve(H3, smooth_bump(1.0), 4.0, 0.004)
    slope = support_growth_slope(states)
    assert 0.95 <= slope <= 1.05
    supports = [st.support for st in states]
    assert all(b >= a - 1e-9 for a, b in zip(supports, supports[1:]))


def test_wave_guards():
    with pytest.raises(ValueError, match="CFL"):
        radial_wave_solve(E2, gauss_bump(0.5), 1.0, dt=0.1, dr=0.1)
    with pytest.raises(ValueError, match="dt > 0"):
        radial_wave_solve(E2, gauss_bump(0.5), 1.0, dt=-0.01)
    with pytest.raises(TypeError, match="EvenFunction or RadialProfile"):
        radial_wave_solve(E2, np.cos, 1.0, 0.004)


@pytest.mark.parametrize("T", [0.0, 1.83207])
def test_wave_ends_at_T(T):
    # 1.83207 is not a multiple of dt: the steps shrink to T/459
    states = radial_wave_solve(E2, gauss_bump(0.5), T, 0.004, n_samples=3)
    assert states[-1].info["t"] == T
    assert len(states) == (1 if T == 0 else 3)


def test_support_slope_needs_samples():
    states = radial_wave_solve(E2, gauss_bump(0.5), 0.3, 0.004, n_samples=3)
    with pytest.raises(ValueError, match="not enough samples"):
        support_growth_slope(states, t_min=2.0)


# -- intertwining -------------------------------------------------------------

def test_intertwine_residual_small():
    assert intertwine_check(E2, smooth_bump(1.0)) < 1e-5


def test_intertwine_requires_profile():
    f = EvenFunction.from_profile(gauss_bump(0.4))
    with pytest.raises(TypeError, match="RadialProfile"):
        intertwine_check(E2, f)


def test_wave_to_kg_gap_does_not_depend_on_fd_node_count(monkeypatch):
    # each wave cell is one cubic spline piece, so 4 Gauss-Legendre nodes
    # per cell integrate the transform as well as 8
    gaps = {}
    for q in (4, 8):
        monkeypatch.setattr(pde, "FD_NODES_PER_CELL", q)
        gaps[q] = wave_to_kg_check(H3, gauss_bump(0.42), 1.25)
    assert abs(gaps[4] - gaps[8]) <= 1e-10 * gaps[8]


# -- radial heat flow ---------------------------------------------------------

def test_heat_conserves_unit_mass():
    states = radial_heat_solve(H3, 0.5, 0.3)
    assert states[0].mass == pytest.approx(1.0, abs=1e-12)
    for st in states:
        assert st.mass == pytest.approx(1.0, abs=1e-10)
    assert states[-1].t == pytest.approx(0.5, abs=0.01)


def test_heat_stays_nonnegative_and_spreads():
    states = radial_heat_solve(E2, 1.0, 0.3)
    k0, k1 = states[0], states[-1]
    assert np.all(k1.k >= -1e-12)
    # peak decays as mass spreads outward
    assert np.max(k1.k) < 0.5 * np.max(k0.k)


@pytest.mark.parametrize("model", [E2, make_real_hyperbolic(3),
                                   make_damek_ricci(2, 1)],
                         ids=["E3", "H4", "DR21"])
def test_heat_trajectory_equals_the_solve_banded_steps(monkeypatch, model):
    got = radial_heat_solve(model, 0.5, 0.3)

    def banded(dl, d, du):
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        return lambda b: solve_banded((1, 1), ab, b)

    # the reference re-factors the matrix at every step, as solve_banded does
    monkeypatch.setattr(pde, "_tridiagonal_solver", banded)
    want = radial_heat_solve(model, 0.5, 0.3)
    assert len(got) == len(want) == 9
    for a, b in zip(got, want):
        assert a.t == b.t and a.mass == b.mass
        assert np.array_equal(a.k, b.k)


def test_tridiagonal_solver_refuses_a_singular_matrix():
    with pytest.raises(LinAlgError, match="singular"):
        pde._tridiagonal_solver(np.ones(3), np.zeros(4), np.zeros(3))


def test_heat_guards():
    with pytest.raises(ValueError, match=r"\(0, 5\]"):
        radial_heat_solve(E2, 6.0, 0.3)
    with pytest.raises(ValueError, match="3 dr"):
        radial_heat_solve(E2, 0.5, 0.02, dr=0.01)


def test_heat_leak_error_names_the_wall(monkeypatch):
    # E³ at t = 1 leaves about 1e-16 of the mass in the last cells, which a
    # zero tolerance refuses; the wall stands at 0.3 + 10 + 2
    monkeypatch.setattr(pde, "LEAK_TOL", 0.0)
    with pytest.raises(BoundaryLeakError, match=r"wall at r = 12\.3 "):
        radial_heat_solve(E2, 1.0, 0.3)


@pytest.mark.parametrize("model", [E2, H3, make_damek_ricci(2, 1)],
                         ids=["E3", "H3", "DR21"])
def test_cell_transform_of_the_initial_state(model):
    # the cells' midpoint sum of F b against its Gauss quadrature, both over
    # the cell mass of the bump b that radial_heat_solve divides by
    lams = np.linspace(0.0, 2.0, 9)
    bump = smooth_bump(0.3)
    gaps = []
    for dr in (0.02, 0.01):
        state = radial_heat_solve(model, 0.5, 0.3, dr=dr, n_samples=2)[0]
        mass0 = model.sphere_const * np.sum(model.theta(state.r)
                                            * bump.f(state.r)) * dr
        want = spherical_fourier(model, bump, lams).values / mass0
        gaps.append(np.max(np.abs(pde._cell_transform(model, state, lams)
                                  - want)))
    # measured 2.6e-5-5.5e-5 at dr = 0.02 and 8.5e-7-1.24e-6 at dr = 0.01,
    # 21-31 times smaller: at least second order
    assert gaps[1] <= gaps[0] / 4 and gaps[1] < 3e-6


@pytest.mark.parametrize("model", [E2, H3, make_damek_ricci(2, 1)],
                         ids=["E3", "H3", "DR21"])
def test_cell_transform_at_L_zero_is_the_mass(model):
    # φ_{iH/2} ≡ 1, so the scheme's quadrature of F k is its conserved mass
    lam = np.array([0.5j * model.H])
    for st in radial_heat_solve(model, 0.5, 0.3):
        got = pde._cell_transform(model, st, lam)
        assert abs(got[0] - st.mass) < 1e-13


def test_heat_multiplier_flat_space():
    gap = heat_identity_check(E2, 0.5, np.linspace(0.0, 2.0, 5))
    assert gap < 1e-3


def test_heat_multiplier_guard_underflow():
    with pytest.raises(ValueError, match="shrink"):
        heat_identity_check(E2, 0.5, np.array([0.0, 60.0]))


@pytest.mark.parametrize("model, lam_max, flag, largest", [
    (make_real_hyperbolic(20), 2.0, "--t", "largest usable t: 0.2763"),
    (make_real_hyperbolic(2), 12.0, "--lambda-max",
     "largest usable λ: 7.366")], ids=["H21", "H3"])
def test_heat_multiplier_underflow_names_the_flag_that_helps(
        model, lam_max, flag, largest):
    # H²¹ at the default t: e^{-H²t/4} = e^{-50} is below 1e-12 at λ = 0,
    # so only a smaller t helps, up to ln(1e12)/(H²/4)
    with pytest.raises(ValueError, match=f"shrink {flag} \\({largest}\\)"):
        heat_identity_check(model, pde.HEAT_T, np.linspace(0.0, lam_max, 9))


def test_heat_multiplier_refuses_an_empty_lambda_grid():
    with pytest.raises(ValueError, match="λ grid is empty"):
        heat_identity_check(E2, 0.5, [])
