"""The Volterra coefficients' bound check: no spurious refusals, real ones kept.

Every level must satisfy 0 ≤ a_k ≤ r^{2k}/(2k)! at the panel boundaries, up
to the roundoff of its running sums.  Near r = 0, where the recursion
divides by θ ~ r^n, the first panel must not turn interpolation error into
a refusal of a valid grid.
"""

import math

import numpy as np
import pytest

from harmonic import spherical
from harmonic.density import make_damek_ricci, make_euclidean, make_real_hyperbolic
from harmonic.grids import make_grid
from harmonic.spherical import QuadratureError, volterra_coefficients

E0 = make_euclidean(0)
MODELS = [E0, make_euclidean(2), make_real_hyperbolic(2), make_damek_ricci(2, 1)]
RADII = [0.53, 0.81, 1.6, 2 * math.pi]
SPACINGS = [0.01, 0.02, 0.05, 0.1]
K = 40


@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("spacing", SPACINGS)
def test_valid_grids_pass_the_bound_check(r, spacing):
    grid = make_grid(r, spacing=spacing)
    for model in MODELS:
        coeffs = volterra_coefficients(model, grid, K)
        assert np.all(np.isfinite(coeffs.point_values)), model.key


@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("level", [1, 4, 7])
def test_corrupted_level_still_raises(monkeypatch, r, spacing, level):
    # θ = 1 attains the bound, a_k = r^{2k}/(2k)!, so a level 1e-6 too
    # large must be refused
    real = spherical._check_bound

    def corrupted(grid, k, a):
        return real(grid, k, a * (1 + 1e-6) if k == level else a)

    monkeypatch.setattr(spherical, "_check_bound", corrupted)
    with pytest.raises(QuadratureError, match=f"a_{level} violates"):
        volterra_coefficients(E0, make_grid(r, spacing=spacing), level)


def test_overflowed_level_raises(monkeypatch):
    real = spherical._check_bound

    def overflowed(grid, k, a):
        a = a.copy()
        a[-1] = np.nan if k == 2 else a[-1]
        return real(grid, k, a)

    monkeypatch.setattr(spherical, "_check_bound", overflowed)
    with pytest.raises(QuadratureError, match="a_2 violates"):
        volterra_coefficients(MODELS[2], make_grid(1.0, spacing=0.05), 3)


@pytest.mark.parametrize("model", [make_euclidean(4), make_real_hyperbolic(5),
                                   make_damek_ricci(4, 3), make_damek_ricci(6, 1)],
                         ids=lambda m: m.key)
@pytest.mark.parametrize("r_max", [0.5, 1.0, 2.0])
def test_high_dimension_series_matches_ode(model, r_max):
    # θ ~ r^n with n = 4..7: dividing the first panel's running integral by
    # θ must not blow its interpolation error up by (h/r)^n
    grid = make_grid(r_max, spacing=0.05)
    for lam in (0.5, 1.0 + 0.3j, 3.0):
        series = spherical.phi_series(model, lam, grid)
        ode = spherical.phi(model, lam, grid)
        scale = max(1.0, float(np.max(np.abs(ode.values))))
        assert np.max(np.abs(series.values - ode.values)) < 1e-9 * scale
