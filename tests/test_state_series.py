"""eigen_state_at's two routes: the Volterra series at one radius and DOP853.

Under the cancellation floor the five outputs are polynomials in L summed
from one coefficient pass per (model, radius); above it, and for the r = 2π
mean-value box, the ODE is integrated.
"""

import math

import mpmath
import numpy as np
import pytest

from harmonic import spherical
from harmonic.density import make_damek_ricci, make_euclidean, make_real_hyperbolic
from harmonic.two_radius import find_L_zeros

E0 = make_euclidean(0)
E2 = make_euclidean(2)
H3 = make_real_hyperbolic(2)
DR21 = make_damek_ricci(2, 1)
DEFAULT_BOX = (-60 - 8j, 5 + 8j)
NAMES = ("phi", "dphi_dr", "dphi_dL", "Phi", "dPhi_dL")
# a lattice over the default search box, off the removable singularities
# of the closed forms at L = 0 (E0) and L = -1 (H3)
BOX_L = (np.linspace(-60.0, 5.0, 14)[:, None]
         + 1j * np.linspace(-8.0, 8.0, 4)[None, :]).ravel()


@pytest.fixture
def solves(monkeypatch):
    """Number of DOP853 solves made through spherical.solve_ivp."""
    count = [0]
    real = spherical.solve_ivp

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(spherical, "solve_ivp", counted)
    return count


def _force_ode(monkeypatch):
    # the floor eps·cosh(·) is never below eps, so no batch takes the series
    monkeypatch.setattr(spherical, "STATE_SERIES_FLOOR", 0.0)


def _e0_phi(L, r):
    return mpmath.cosh(mpmath.sqrt(L) * r)


def _h3_phi(L, r):
    mu = mpmath.sqrt(L + 1)
    return mpmath.sinh(mu * r) / (mu * mpmath.sinh(r))


def _closed_form_state(phi_fn, theta_fn, L, r):
    """The five outputs from a closed-form φ(L, r); Φ = θ φ_r / L."""
    mpmath.mp.dps = 30
    try:
        L, r = mpmath.mpc(L), mpmath.mpf(r)
        phi_r = lambda lv: mpmath.diff(lambda x: phi_fn(lv, x), r)
        Phi = lambda lv: theta_fn(r) * phi_r(lv) / lv
        return [complex(v) for v in (
            phi_fn(L, r), phi_r(L), mpmath.diff(lambda lv: phi_fn(lv, r), L),
            Phi(L), mpmath.diff(Phi, L))]
    finally:
        mpmath.mp.dps = 15


@pytest.mark.parametrize("model, phi_fn, theta_fn", [
    (E0, _e0_phi, lambda r: mpmath.mpf(1)),
    (H3, _h3_phi, lambda r: mpmath.sinh(r) ** 2),
], ids=["E0", "H3"])
@pytest.mark.parametrize("r", [0.53, 0.81, 1.2])
def test_series_state_matches_closed_forms(solves, model, phi_fn, theta_fn, r):
    st = spherical.eigen_state_at(model, BOX_L, r)
    assert solves[0] == 0
    ref = np.array([_closed_form_state(phi_fn, theta_fn, L, r) for L in BOX_L]).T
    for name, want in zip(NAMES, ref):
        err = np.abs(st[name] - want) / np.maximum(1.0, np.abs(want))
        assert np.max(err) < 1e-12, name


@pytest.mark.parametrize("r", [0.53, 0.81, 1.2])
def test_series_state_matches_dop853_on_damek_ricci(monkeypatch, solves, r):
    series = spherical.eigen_state_at(DR21, BOX_L, r)
    assert solves[0] == 0
    _force_ode(monkeypatch)
    ode = spherical.eigen_state_at(DR21, BOX_L, r)
    assert solves[0] == 1
    for name in NAMES:
        want = ode[name]
        err = np.abs(series[name] - want) / np.maximum(1.0, np.abs(want))
        assert np.max(err) < 1e-11, name


def test_dispatch_by_cancellation_floor(solves):
    # x = sqrt(60.5)·0.81 = 6.3: every batch of the search takes the series
    zs = find_L_zeros(E0, 0.81, "sphere")
    assert len(zs.zeros) == 2
    assert solves[0] == 0
    # x = sqrt(|-3-3i|)·2π = 12.9: above the floor, the ODE is integrated
    zs = find_L_zeros(E0, 2 * math.pi, "mvp", box=(-3 - 3j, 1 + 3j))
    assert [z.multiplicity for z in zs.zeros] == [2]
    assert solves[0] > 0


@pytest.mark.parametrize("model, r, target", [
    (E0, 0.81, "sphere"),
    (E2, 0.75, "ball"),
    (H3, 0.53, "sphere"),
    (H3, 0.72, "ball"),
    (DR21, 0.81, "sphere"),
])
def test_series_and_ode_routes_find_the_same_zeros(monkeypatch, solves,
                                                   model, r, target):
    series = find_L_zeros(model, r, target)
    assert solves[0] == 0
    _force_ode(monkeypatch)
    ode = find_L_zeros(model, r, target)
    assert solves[0] > 0
    assert series.winding_total == ode.winding_total
    assert [z.multiplicity for z in series.zeros] == \
        [z.multiplicity for z in ode.zeros]
    a, b = series.values(), ode.values()
    assert a.size > 0
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-12
