"""Criterion 2 on the chained coefficients, and the series in dimensions 5-8.

The Volterra coefficients a_k are φ's Taylor coefficients in L, chained
from the pieces φ is summed from (volterra_coefficients).  On every valid
grid they must satisfy 0 ≤ a_k ≤ r^{2k}/(2k)! within the suite's measure,
and that measure must still fail a corrupted or overflowed level.
"""

import math

import numpy as np
import pytest

from harmonic import spherical, suite
from harmonic.density import make_damek_ricci, make_euclidean, make_real_hyperbolic
from harmonic.grids import make_grid
from harmonic.spherical import volterra_coefficients

E0 = make_euclidean(0)
MODELS = [E0, make_euclidean(2), make_real_hyperbolic(2), make_damek_ricci(2, 1)]
RADII = [0.53, 0.81, 1.6, 2 * math.pi]
SPACINGS = [0.01, 0.02, 0.05, 0.1]
K = 40
BOUND = 1e-12     # the volterra_* checks' bound


@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("spacing", SPACINGS)
def test_valid_grids_pass_the_bound_check(r, spacing):
    grid = make_grid(r, spacing=spacing)
    for model in MODELS:
        coeffs = volterra_coefficients(model, grid, K)
        assert suite._volterra_violation(coeffs) <= BOUND, model.key


@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("level", [1, 4, 7])
def test_corrupted_level_still_raises(r, spacing, level):
    # θ = 1 attains the bound, a_k = r^{2k}/(2k)!, so criterion 2 must fail
    # a level 1e-6 too large
    coeffs = volterra_coefficients(E0, make_grid(r, spacing=spacing), level)
    coeffs.point_values[level - 1] *= 1 + 1e-6
    assert suite._volterra_violation(coeffs) > BOUND


def test_overflowed_level_raises():
    coeffs = volterra_coefficients(MODELS[2], make_grid(1.0, spacing=0.05), 3)
    coeffs.point_values[1, -1] = np.nan
    assert math.isnan(suite._volterra_violation(coeffs))


@pytest.mark.parametrize("model", [make_euclidean(4), make_real_hyperbolic(5),
                                   make_damek_ricci(4, 3), make_damek_ricci(6, 1)],
                         ids=lambda m: m.key)
@pytest.mark.parametrize("r_max", [0.5, 1.0, 2.0])
def test_high_dimension_series_matches_ode(model, r_max, dop853_rows):
    # θ ~ r^n with n = 4..7: the first piece's running integral, divided by
    # θ, must keep its accuracy; both sums of the series against DOP853
    grid = make_grid(r_max, spacing=0.05)
    lams = (0.5, 1.0 + 0.3j, 3.0)
    L = np.array([spherical.spectral_shift(model, lam)[0] for lam in lams])
    ref = dop853_rows(model, L, grid.points)["phi"]
    for lam, want in zip(lams, ref):
        scale = max(1.0, float(np.max(np.abs(want))))
        for path in (spherical.phi_series, spherical.phi):
            got = path(model, lam, grid).values
            assert np.max(np.abs(got - want)) < 1e-9 * scale, path.__name__
