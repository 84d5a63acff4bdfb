"""Growth chain and Dirichlet bottom values against closed forms.

On R³ the density is θ = r², so vol B_r = 4πr³/3, area/vol = 3/r and
λ₀(B_R) = π²/R².  On H³ it is θ = sinh² r, so vol B_r = 4π(sinh 2r/4 - r/2)
and λ₀(B_R) = 1 + π²/R² (the ground state is sin(πr/R)/sinh r).
"""

import math

import pytest

from harmonic.asymptotics import (lambda0_estimate, lambda0_extrapolate,
                                  volume_growth)
from harmonic.density import make_euclidean, make_real_hyperbolic

E2 = make_euclidean(2)
H2 = make_real_hyperbolic(2)
RADII = [0.5, 1.7, 5.0, 20.0]


def _ball_integral(model, r):
    """∫₀^r θ in closed form."""
    if model is E2:
        return r**3 / 3
    return math.sinh(2 * r) / 4 - r / 2


@pytest.mark.parametrize("model", [E2, H2], ids=["R3", "H3"])
def test_volume_growth_matches_closed_forms(model):
    rep = volume_growth(model, RADII)
    for (r, mu), (r2, ratio) in zip(rep.mu_estimates, rep.sphere_ratio):
        assert r == r2
        vol = 4 * math.pi * _ball_integral(model, r)
        assert mu == pytest.approx(math.log(vol) / r, rel=1e-12)
        assert ratio == pytest.approx(float(model.theta(r))
                                      / _ball_integral(model, r), rel=1e-12)
    assert rep.mu_final == pytest.approx(float(model.dlog_theta(20.0)),
                                         rel=1e-15)


def test_volume_growth_guards():
    with pytest.raises(ValueError, match="positive"):
        volume_growth(E2, [0.0, 1.0])
    with pytest.raises(ValueError, match="supported range"):
        volume_growth(E2, [61.0])


@pytest.mark.parametrize("model, floor", [(E2, 0.0), (H2, 1.0)],
                         ids=["R3", "H3"])
def test_lambda0_estimate_and_extrapolation(model, floor):
    Rs = [10.0, 15.0, 20.0]
    rep = lambda0_estimate(model, Rs)
    for R, lam in rep.lambda0_estimates:
        assert lam == pytest.approx(floor + math.pi**2 / R**2, rel=1e-8)
    # the limit is H²/4: exact data have no 1/R term, so the fit returns it
    assert lambda0_extrapolate(rep.lambda0_estimates) == \
        pytest.approx(floor, abs=1e-7)
    exact = [(R, floor + math.pi**2 / R**2) for R in Rs]
    assert lambda0_extrapolate(exact) == pytest.approx(floor, abs=1e-12)


def test_lambda0_extrapolate_uses_the_three_largest_radii():
    def lam(R):
        return 2.0 + 0.3 / R - 1.5 / R**2

    pairs = [(40.0, lam(40.0)), (2.0, 99.0), (10.0, lam(10.0)),
             (20.0, lam(20.0))]
    assert lambda0_extrapolate(pairs) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="three"):
        lambda0_extrapolate(pairs[:2])
