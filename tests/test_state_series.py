"""eigen_state_at and eigen_profile by the piecewise series.

At one radius the five outputs are sums over a chain of per-piece transfer
matrices, polynomials in L; the r-profiles are _spps_rows with a Φ row.
The closed forms of E0, E3 and H³ (mpmath) and a DOP853 reference built in
conftest check them over the default search box, and the zero search run
on the DOP853 state finds the same zeros.
"""

import math

import mpmath
import numpy as np
import pytest

from harmonic import spherical, two_radius
from harmonic.density import (make_damek_ricci, make_euclidean,
                              make_real_hyperbolic)
from harmonic.spherical import PhiOverflowError
from harmonic.two_radius import find_L_zeros

E0 = make_euclidean(0)
E2 = make_euclidean(2)
H3 = make_real_hyperbolic(2)
H6 = make_real_hyperbolic(5)
DR21 = make_damek_ricci(2, 1)
NAMES = ("phi", "dphi_dr", "dphi_dL", "Phi", "dPhi_dL")
# a lattice over the default search box, off the removable singularities
# of the closed forms at L = 0 (E0, E3) and L = -1 (H3)
BOX_L = (np.linspace(-60.0, 5.0, 14)[:, None]
         + 1j * np.linspace(-8.0, 8.0, 4)[None, :]).ravel()
RADII = [0.53, 0.81, 1.2, 1.59, 2 * math.pi, 10.0]
RADIUS_IDS = ["0.53", "0.81", "1.2", "1.59", "2pi", "10"]


def _e0_phi(L, r):
    return mpmath.cosh(mpmath.sqrt(L) * r)


def _e3_phi(L, r):
    x = mpmath.sqrt(L) * r
    return mpmath.sinh(x) / x


def _h3_phi(L, r):
    mu = mpmath.sqrt(L + 1)
    return mpmath.sinh(mu * r) / (mu * mpmath.sinh(r))


CLOSED_FORMS = {
    "E0": (E0, _e0_phi, lambda r: mpmath.mpf(1)),
    "E3": (E2, _e3_phi, lambda r: r * r),
    "H3": (H3, _h3_phi, lambda r: mpmath.sinh(r) ** 2),
}


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


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
@pytest.mark.parametrize("r", RADII, ids=RADIUS_IDS)
def test_series_state_matches_closed_forms(name, r):
    model, phi_fn, theta_fn = CLOSED_FORMS[name]
    st = spherical.eigen_state_at(model, BOX_L, r)
    ref = np.array([_closed_form_state(phi_fn, theta_fn, L, r)
                    for L in BOX_L]).T
    for key, want in zip(NAMES, ref):
        assert _max_rel(st[key], want) < 1e-12, key


@pytest.fixture(scope="module")
def references(dop853_rows):
    """DOP853 states of DR(2,1) and H⁶ over the box at every test radius."""
    return {model.key: dop853_rows(model, BOX_L, RADII)
            for model in (DR21, H6)}


@pytest.mark.parametrize("r", RADII, ids=RADIUS_IDS)
def test_series_state_matches_dop853_on_damek_ricci(references, r):
    st = spherical.eigen_state_at(DR21, BOX_L, r)
    ref = references[DR21.key]
    for key in NAMES:
        assert _max_rel(st[key], ref[key][:, RADII.index(r)]) < 1e-9, key


@pytest.mark.parametrize("r", RADII[1:], ids=RADIUS_IDS[1:])
def test_series_state_matches_dop853_on_h6(references, r):
    st = spherical.eigen_state_at(H6, BOX_L, r)
    ref = references[H6.key]
    for key in NAMES:
        assert _max_rel(st[key], ref[key][:, RADII.index(r)]) < 1e-9, key


@pytest.mark.parametrize("model", [DR21, H6], ids=["DR21", "H6"])
def test_eigen_profile_matches_dop853(dop853_rows, model):
    L, r = -20.0 + 3.0j, np.linspace(0.0, 10.0, 201)
    prof = spherical.eigen_profile(model, L, r)
    ref = dop853_rows(model, [L], r)
    for key in ("phi", "dphi_dr", "Phi"):
        assert _max_rel(prof[key], ref[key][0]) < 1e-9, key


def test_state_levels_are_shared_by_the_batches_of_a_search(monkeypatch):
    # piece counts are powers of two, so a search's batches (box boundary,
    # Newton rounds, residuals) meet only a few level sets at its radius
    monkeypatch.setattr(spherical, "_CACHE", spherical._LRUCache(2**30))
    zs = find_L_zeros(E0, 0.81, "sphere")
    assert len(zs.zeros) == 2
    counts = [key[3] for key in spherical._CACHE._entries
              if key[0] == "state"]
    assert 1 <= len(counts) <= 2
    assert all(p & (p - 1) == 0 for p in counts)


def test_state_and_profile_refuse_overflow():
    # φ = cosh(sqrt(L) r) with sqrt(L) = 20 leaves double range near r = 35
    with pytest.raises(PhiOverflowError, match="34.5"):
        spherical.eigen_profile(E0, 400.0, np.linspace(0.0, 40.0, 81))
    with pytest.raises(PhiOverflowError):
        spherical.eigen_state_at(E0, [400.0, -1.0], 40.0)
    # below the limit every value is finite
    prof = spherical.eigen_profile(E0, 400.0, np.linspace(0.0, 34.0, 69))
    st = spherical.eigen_state_at(E0, [400.0, -1.0], 34.0)
    assert all(np.all(np.isfinite(prof[key]))
               for key in ("phi", "dphi_dr", "Phi"))
    assert all(np.all(np.isfinite(st[key])) for key in NAMES)


@pytest.mark.parametrize("model, r, target", [
    (E0, 0.81, "sphere"),
    (E2, 0.75, "ball"),
    (H3, 0.53, "sphere"),
    (H3, 0.72, "ball"),
    (DR21, 0.81, "sphere"),
])
def test_series_and_ode_routes_find_the_same_zeros(monkeypatch, dop853_rows,
                                                   model, r, target):
    series = find_L_zeros(model, r, target)

    def ode_state(model, L_values, r_stop):
        return {key: row[:, 0] for key, row in
                dop853_rows(model, L_values, [r_stop]).items()}

    monkeypatch.setattr(two_radius, "eigen_state_at", ode_state)
    ode = find_L_zeros(model, r, target)
    assert series.winding_total == ode.winding_total
    assert [z.multiplicity for z in series.zeros] == \
        [z.multiplicity for z in ode.zeros]
    a, b = series.values(), ode.values()
    assert a.size > 0
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-12
