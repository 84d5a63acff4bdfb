import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from harmonic.density import (DensityError, builtin_models, make_custom,
                              make_damek_ricci, make_euclidean,
                              make_real_hyperbolic, unit_sphere_volume,
                              validate_density)


def test_builtin_models_roster():
    models = builtin_models()
    assert [m.key for m in models] == [
        "euclidean(0)", "euclidean(2)", "real_hyperbolic(2)",
        "damek_ricci(2,1)", "damek_ricci(1,1)"]
    assert [m.H for m in models] == [0.0, 0.0, 2.0, 2.0, 1.5]
    assert [m.dim for m in models] == [1, 3, 3, 4, 3]


def test_theta_closed_forms():
    r = np.linspace(0.1, 8.0, 40)
    assert np.allclose(make_euclidean(2).theta(r), r**2, rtol=1e-14)
    assert np.allclose(make_real_hyperbolic(2).theta(r), np.sinh(r) ** 2,
                       rtol=1e-13)
    dr = make_damek_ricci(2, 1)
    expect = 8 * np.sinh(r / 2) ** 3 * np.cosh(r / 2)
    assert np.allclose(dr.theta(r), expect, rtol=1e-13)


def test_unit_sphere_volume_values():
    assert unit_sphere_volume(0) == pytest.approx(2.0, rel=1e-15)
    assert unit_sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert unit_sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert unit_sphere_volume(3) == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_small_r_expansion_coefficients():
    # theta/r^n = 1 + c2 r^2 + O(r^4): no offset and no r term, so the
    # deviation from 1 falls 100-fold from r = 1e-2 to 1e-3
    for model in builtin_models():
        d1, d2 = (model.theta(r) / r**model.n - 1.0 for r in (1e-2, 1e-3))
        assert abs(d1) < 1e-3
        assert d2 == pytest.approx(d1 / 100, rel=1e-3, abs=1e-13)


def test_closed_form_theta_matches_lambdify_bit_for_bit():
    # the built-ins evaluate θ without sympy; each closed form keeps the
    # operation order lambdify prints, so the doubles are the same
    r = sp.Symbol("r", positive=True)
    x = np.linspace(0, 30, 3001)
    cases = [(make_euclidean(n), r**n) for n in range(8)]
    cases += [(make_real_hyperbolic(n), sp.sinh(r)**n) for n in range(1, 8)]
    cases += [(make_damek_ricci(m, k),
               2**(m + k) * sp.sinh(r / 2)**(m + k) * sp.cosh(r / 2)**k)
              for m in range(1, 8) for k in range(5)]
    for model, expr in cases:
        want = np.broadcast_to(sp.lambdify(r, expr, "numpy")(x), x.shape)
        assert np.array_equal(model.theta(x), want), (model.key, expr)


def test_mean_curvature_limit_converges():
    assert make_real_hyperbolic(2).dlog_theta(40.0) == \
        pytest.approx(2.0, abs=1e-8)
    assert make_damek_ricci(1, 1).dlog_theta(40.0) == \
        pytest.approx(1.5, abs=1e-8)
    # flat models decay like n/r instead
    assert make_euclidean(2).dlog_theta(40.0) == \
        pytest.approx(2 / 40, rel=1e-12)


def test_log_theta_stable_at_huge_radius():
    model = make_damek_ricci(2, 1)
    r = np.array([300.0, 600.0])
    lt = model.log_theta(r)
    assert np.all(np.isfinite(lt))
    # slope of log theta approaches H
    assert model.dlog_theta(600.0) == pytest.approx(2.0, abs=1e-12)
    # consistency with direct theta where it does not overflow
    assert model.log_theta(5.0) == pytest.approx(math.log(model.theta(5.0)),
                                                 rel=1e-13)


def test_make_custom_matches_builtin():
    custom = make_custom("sinh(r)**2", 2)
    ref = make_real_hyperbolic(2)
    r = np.linspace(0.05, 6, 23)
    assert np.allclose(custom.theta(r), ref.theta(r), rtol=1e-12)
    assert custom.H == pytest.approx(2.0, abs=1e-6)


def test_make_custom_rejects_bad_densities():
    with pytest.raises(DensityError):
        make_custom("r**3", 2)          # theta/r^2 -> 0, not 1
    with pytest.raises(DensityError):
        make_custom("r**2 * (1 - r**2/4)", 2)   # negative past r = 2
    with pytest.raises(DensityError):
        make_custom("r**2 * exp(-r)", 2)        # theta'/theta -> -1 < 0
    # theta/r^2 - 1 = r/100 is 1e-5 at r = 1e-3, inside validate_density's
    # 1e-4; only the symbolic series sees the r term
    with pytest.raises(DensityError, match="not normalized"):
        make_custom("r**2*(1 + r/100)", 2)


def test_validate_density_passes_builtins():
    for model in builtin_models():
        validate_density(model)


def test_validate_density_reports_overflow():
    # sinh^2(2000) is far outside double range; the check must fail loudly
    # instead of comparing infs.
    model = make_real_hyperbolic(2)
    with np.errstate(over="ignore"), pytest.raises(DensityError,
                                                   match="finite and positive"):
        validate_density(model, r_max=2000.0)


@given(n=st.integers(min_value=0, max_value=6),
       r=st.floats(min_value=0.01, max_value=30.0))
def test_euclidean_density_is_power_law(n, r):
    model = make_euclidean(n)
    assert model.theta(r) == pytest.approx(r**n, rel=1e-12)
    assert model.H == 0.0


@given(m=st.integers(min_value=1, max_value=4),
       k=st.integers(min_value=1, max_value=4),
       r=st.floats(min_value=0.05, max_value=20.0))
def test_damek_ricci_family_invariants(m, k, r):
    model = make_damek_ricci(m, k)
    assert model.H == pytest.approx(m / 2 + k, abs=1e-9)
    assert model.n == m + k
    # density positive and log-derivative decreasing toward H
    assert model.theta(r) > 0
    assert model.dlog_theta(r) >= model.H - 1e-9


@pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.key)
def test_scalar_path_matches_array_path(model):
    # the ODE right-hand side calls theta and dlog_theta with one float
    # radius; that path must agree with the array path
    for r in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 30.0, 100.0, 300.0):
        for f in (model.theta, model.dlog_theta):
            scalar, array = f(r), f(np.array([r]))[0]
            assert type(scalar) is float
            assert abs(scalar - array) <= 1e-15 * abs(array)
            assert f(np.float64(r)) == scalar
