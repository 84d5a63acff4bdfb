"""Growth chain and Dirichlet bottom values against closed forms.

On R³ the density is θ = r², so vol B_r = 4πr³/3, area/vol = 3/r and
λ₀(B_R) = π²/R².  On H³ it is θ = sinh² r, so vol B_r = 4π(sinh 2r/4 - r/2)
and λ₀(B_R) = 1 + π²/R² (the ground state is sin(πr/R)/sinh r).  On the
other Euclidean spaces λ₀(B_R) is (j/R)² with j the first zero of the
Bessel-type φ_λ(1).
"""

import math

import pytest
from scipy.special import jn_zeros

from harmonic import spherical
from harmonic.asymptotics import (lambda0_estimate, lambda0_extrapolate,
                                  volume_growth)
from harmonic.density import (builtin_models, make_damek_ricci,
                              make_euclidean, make_real_hyperbolic)
from harmonic.spherical import phi_ode_values

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


def test_lambda0_estimate_guards():
    with pytest.raises(ValueError, match="positive"):
        lambda0_estimate(E2, [-1.0, 1.0])
    with pytest.raises(ValueError, match="supported range"):
        lambda0_estimate(E2, [1.0, 61.0])


# first zero of λ ↦ φ_λ(1): φ_λ(r) = cos λr on R¹, J₀(λr) on R², and
# J_ν(λr)/(λr)^ν, ν = (n - 1)/2, on R^(n+1); on H³ it is sin(λr)/(λ sinh r)
FIRST_ZEROS = {
    "R1": (make_euclidean(0), 0.0, math.pi / 2),
    "R2": (make_euclidean(1), 0.0, float(jn_zeros(0, 1)[0])),
    "R3": (E2, 0.0, math.pi),
    "R4": (make_euclidean(3), 0.0, float(jn_zeros(1, 1)[0])),
    # j₁₀,₁ = 14.48 lies past the first scan (λR ≤ 4π), so it is rescanned
    "R22": (make_euclidean(21), 0.0, float(jn_zeros(10, 1)[0])),
    "H3": (H2, 1.0, math.pi),
}


@pytest.mark.parametrize("key", list(FIRST_ZEROS))
def test_lambda0_estimate_and_extrapolation(key):
    model, floor, zero = FIRST_ZEROS[key]
    Rs = [1.0, 10.0, 20.0, 40.0, 60.0]
    rep = lambda0_estimate(model, Rs)
    assert [R for R, _ in rep.lambda0_estimates] == Rs
    for R, lam in rep.lambda0_estimates:
        assert lam == pytest.approx(floor + zero**2 / R**2, rel=1e-12)
    # the limit is H²/4: exact data have no 1/R term, so the fit returns it
    assert lambda0_extrapolate(rep.lambda0_estimates) == \
        pytest.approx(floor, abs=1e-7)
    exact = [(R, floor + zero**2 / R**2) for R in Rs]
    assert lambda0_extrapolate(exact) == pytest.approx(floor, abs=1e-12)


def test_lambda0_estimate_is_one_series_call(monkeypatch):
    """One phi_ode_values scan for all the radii on every built-in model,
    and no L-plane state (eigen_state_at)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return phi_ode_values(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("eigen_state_at called")

    monkeypatch.setattr(spherical, "phi_ode_values", counted)
    monkeypatch.setattr(spherical, "eigen_state_at", refused)
    Rs = [20.0, 30.0, 40.0]
    for model in builtin_models():
        calls.clear()
        lambda0_estimate(model, Rs)
        assert calls == [Rs], model.name


def _per_radius_lambda0(model, R):
    """λ₀(B_R) from R's own scan, n doubled until it holds a zero."""
    n = 32
    while (lams := spherical.dirichlet_lambdas(
            model, R, math.pi / (8.0 * R), n)).size == 0:
        n *= 2
    return n, lams[0] ** 2 + model.H**2 / 4.0


CHEEGER_RADII = (20.0, 30.0, 40.0)
# (model, radii, the radii whose scan needs n doubled)
SCAN_CASES = [
    *((m, CHEEGER_RADII, ()) for m in builtin_models()
      + [make_damek_ricci(4, 3), make_real_hyperbolic(5)]),
    # j₁₀,₁ = 14.48 > 4π: every scan of R²² is doubled
    (make_euclidean(21), CHEEGER_RADII, CHEEGER_RADII),
    # on H²² λ₁R is 14.2 at R = 0.5 and below 4 from R = 20
    (make_real_hyperbolic(21), (0.5,) + CHEEGER_RADII, (0.5,)),
]


@pytest.mark.parametrize("model, Rs, doubled", SCAN_CASES,
                         ids=[case[0].key for case in SCAN_CASES])
def test_lambda0_estimate_matches_the_per_radius_scans(model, Rs, doubled):
    rep = lambda0_estimate(model, Rs)
    assert [R for R, _ in rep.lambda0_estimates] == list(Rs)
    for R, lam in rep.lambda0_estimates:
        n, ref = _per_radius_lambda0(model, R)
        assert n == (64 if R in doubled else 32)
        assert lam == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_lambda0_extrapolate_uses_the_three_largest_radii():
    def lam(R):
        return 2.0 + 0.3 / R - 1.5 / R**2

    pairs = [(40.0, lam(40.0)), (2.0, 99.0), (10.0, lam(10.0)),
             (20.0, lam(20.0))]
    assert lambda0_extrapolate(pairs) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="three"):
        lambda0_extrapolate(pairs[:2])
