"""Dirichlet bottom values on DR(4,3) and H⁶ against pinned shooting values.

lambda0_estimate takes λ₀(B_R) = λ₁² + H²/4 from the first zero λ₁ of
λ ↦ φ_λ(R) on the series engine's λ-scan.  The pinned values come from an
independent shooting solve: the first real zero of L ↦ φ_L(R) below -H²/4,
from the eigenfunction ODE, to ten digits.
"""

import pytest

from harmonic.asymptotics import cheeger_chain_report, lambda0_estimate
from harmonic.density import make_damek_ricci, make_real_hyperbolic

DR43 = make_damek_ricci(4, 3)
H6 = make_real_hyperbolic(5)


@pytest.mark.parametrize("model, radii, values", [
    (DR43, [20.0, 30.0, 40.0], [6.2848942226, 6.2637823283, 6.2573111867]),
    (H6, [15.0, 22.5, 30.0], [6.3022942379, 6.2719030352, 6.2619622343]),
], ids=["DR43", "H6"])
def test_lambda0_matches_shooting(model, radii, values):
    rep = lambda0_estimate(model, radii)
    assert [R for R, _ in rep.lambda0_estimates] == radii
    for (_, got), want in zip(rep.lambda0_estimates, values):
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("r_max", [30.0, 40.0])
def test_cheeger_dr43_passes(r_max):
    rep = cheeger_chain_report(DR43, r_max=r_max)
    assert rep.ok
    assert rep.lambda0_extrapolated == pytest.approx(6.25, rel=0.02)


def test_cheeger_h6_at_30_passes():
    # log vol B_30 / 30 = 4.9453 is 0.055 from H = 5, as log vol B_r / r
    # approaches H like log(C)/r; the verdict's two-radius fit of H + c/r
    # removes that term and lands within 1e-10 of H
    rep = cheeger_chain_report(H6, r_max=30.0)
    assert rep.ok
    (r1, s1), (r2, s2) = rep.mu_estimates[-2:]
    assert abs(s2 - 5.0) > 0.05
    assert abs((r2 * s2 - r1 * s1) / (r2 - r1) - 5.0) < 1e-10
