"""Radial volume densities of noncompact harmonic spaces.

A model is specified by its density θ(r) > 0, normalized so θ(r)/r^n → 1 as
r → 0, where n+1 is the manifold dimension.  Geodesic spheres have volume
vol S_r = ω_n θ(r) with ω_n the volume of the unit n-sphere.  The mean
curvature of horospheres is the limit H = lim_{r→∞} θ'(r)/θ(r); θ'/θ is
monotone nonincreasing, so the limit exists and every quantity downstream
(eigenfunction shifts λ² + H²/4, exponential volume growth, the bottom of the
spectrum H²/4) is driven by it.

Built-in families:

    euclidean(n)        θ = r^n                          H = 0
    real_hyperbolic(n)  θ = sinh^n r                     H = n
    damek_ricci(m, k)   θ = 2^{m+k} sinh^{m+k}(r/2) cosh^k(r/2)

For Damek-Ricci models H is *computed* as the large-r limit of θ'/θ; the
analytic value m/2 + k is only used as a cross-check in the tests.  A model
carries three functions of r: θ, θ'/θ and log θ, each one numpy path for
scalars and arrays alike; the built-ins evaluate them from numpy closed
forms.  Custom densities are accepted as sympy expressions in r and
validated against the normalization, positivity, and monotonicity
requirements at load time; sympy is imported only then, so a process that
uses the built-ins never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Radius used to read off H = lim theta'/theta.  tanh saturates to 1 at
# double precision well before this, so the limit is exact for the built-ins.
H_LIMIT_RADIUS = 100.0
# slack of validate_density's monotonicity and sign tests on θ'/θ
DLOG_SLACK = 1e-7


class DensityError(ValueError):
    """A proposed density violates the harmonic-space requirements."""


def _log_sinh(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return x + np.log1p(-np.exp(-2 * x)) - np.log(2.0)


def _log_cosh(x):
    x = np.asarray(x, dtype=float)
    return x + np.log1p(np.exp(-2 * x)) - np.log(2.0)


def _vec(f):
    """Wrap a lambdified scalar expression so output broadcasts like input."""
    def g(r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(f(r), dtype=float)
        if out.shape != r.shape:
            out = np.broadcast_to(out, r.shape).copy()
        return out if r.ndim else float(out)
    return g


@dataclass(frozen=True, eq=False)
class DensityModel:
    """A harmonic space given by its radial density θ."""

    name: str
    key: str                      # stable identity string, used for caching
    n: int                        # sphere dimension; manifold dimension n+1
    H: float                      # lim theta'/theta
    theta: Callable = field(repr=False)
    dlog_theta: Callable = field(repr=False)   # theta'/theta, stable at large r
    log_theta: Callable = field(repr=False)    # log theta, stable at large r

    @property
    def dim(self):
        return self.n + 1

    @property
    def sphere_const(self):
        """ω_n, the volume of the unit n-sphere."""
        return unit_sphere_volume(self.n)

    def __repr__(self):
        return f"DensityModel({self.key}, H={self.H:.12g})"


def unit_sphere_volume(n):
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def _check_normalized(theta_expr, n):
    """DensityError unless sympy's series of theta/r^n is 1 + O(r^2) at 0.

    This refuses a constant other than 1 and an r or r^3 term, which can
    sit below validate_density's numeric test of theta/r^n -> 1.  Where
    sympy cannot form the series, that numeric test stands alone.
    """
    import sympy as sp
    r = sp.Symbol("r", positive=True)
    try:
        ser = sp.series(theta_expr / r**n, r, 0, 6).removeO()
        poly = sp.Poly(sp.expand(ser), r)
        c0, c1, c3 = (float(poly.coeff_monomial(m)) for m in (1, r, r**3))
    except Exception:
        return
    if abs(c0 - 1.0) > 1e-12 or abs(c1) > 1e-12 or abs(c3) > 1e-12:
        raise DensityError(
            f"density not normalized: theta/r^{n} = {c0} + {c1} r + ... near 0"
        )


def _build(name, key, n, theta, dlog, log_theta=None, H=None):
    """The model of θ and θ'/θ, given as numpy functions of an array r."""
    theta = _vec(theta)
    if log_theta is None:
        raw_theta = theta
        def log_theta(r, _f=raw_theta):
            with np.errstate(divide="ignore"):
                return np.log(_f(r))
    if H is None:
        H = float(dlog(H_LIMIT_RADIUS))
    return DensityModel(name=name, key=key, n=n, H=H, theta=theta,
                        dlog_theta=dlog, log_theta=log_theta)


def make_euclidean(n):
    """Flat model R^{n+1}: theta = r^n, H = 0."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")

    def dlog(r):
        r = np.asarray(r, dtype=float)
        if n == 0:
            return np.zeros_like(r) if r.ndim else 0.0
        with np.errstate(divide="ignore"):
            out = n / r
        return out if r.ndim else float(out)

    def log_theta(r):
        r = np.asarray(r, dtype=float)
        if n == 0:
            return np.zeros_like(r) if r.ndim else 0.0
        with np.errstate(divide="ignore"):
            out = n * np.log(r)
        return out if r.ndim else float(out)

    # θ in the operation order sympy's lambdify prints, so its values are
    # those of the symbolic θ = r^n to the last bit
    return _build(f"euclidean space R^{n+1}", f"euclidean({n})", n,
                  lambda r: r**n, dlog, log_theta=log_theta, H=0.0)


def make_real_hyperbolic(n):
    """Real hyperbolic space H^{n+1}: theta = sinh^n r, H = n."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")

    def dlog(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = n / np.tanh(r)
        return out if r.ndim else float(out)

    def log_theta(r):
        out = n * _log_sinh(np.asarray(r, dtype=float))
        return out if np.ndim(r) else float(out)

    return _build(f"real hyperbolic space H^{n+1}", f"real_hyperbolic({n})", n,
                  lambda r: np.sinh(r)**n, dlog, log_theta=log_theta,
                  H=float(n))


def make_damek_ricci(m, k):
    """Damek-Ricci space with horosphere data (m, k), dimension m + k + 1.

    theta = 2^{m+k} sinh^{m+k}(r/2) cosh^k(r/2).  H is obtained numerically
    as the limit of theta'/theta.  With a center of dimension k ≥ 1 the
    m-dimensional complement is a Clifford module, so m must be even: an odd
    m with k ≥ 1, such as (1, 1), gives a valid test density but not a
    harmonic manifold.
    """
    m, k = int(m), int(k)
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    n = m + k

    def dlog(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = (m + k) / (2 * np.tanh(r / 2)) + (k / 2) * np.tanh(r / 2)
        return out if r.ndim else float(out)

    def log_theta(r):
        r = np.asarray(r, dtype=float)
        out = ((m + k) * (np.log(2.0) + _log_sinh(r / 2))
               + k * _log_cosh(r / 2))
        return out if np.ndim(r) else float(out)

    def theta(r):
        s, c = np.sinh(0.5*r), np.cosh(0.5*r)
        return 2**n*s**n*c**k

    return _build(f"Damek-Ricci space ({m},{k})", f"damek_ricci({m},{k})", n,
                  theta, dlog, log_theta=log_theta)


def make_custom(theta_expr, n, validate=True):
    """Density from a sympy expression (or string) in r.

    The expression must satisfy theta/r^n -> 1 at 0, positivity on r > 0, and
    nonincreasing theta'/theta; violations raise DensityError.  Stability note:
    custom densities are evaluated directly, so they are only usable on radii
    where theta itself stays inside double-precision range.  This is the one
    path that imports sympy.
    """
    import sympy as sp
    r = sp.Symbol("r", positive=True)
    expr = sp.sympify(theta_expr, locals={"r": r})
    free = expr.free_symbols - {r}
    if free:
        raise DensityError(f"theta expression has unknown symbols {free}")
    n = int(n)
    key = f"custom({sp.srepr(expr)},n={n})"
    dlog_expr = sp.simplify(sp.diff(expr, r) / expr)
    funcs = [sp.lambdify(r, e, "numpy") for e in (expr, dlog_expr)]
    # lambdify prints a function numpy lacks by its bare name, which fails
    # only when called
    try:
        with np.errstate(all="ignore"):
            for f in funcs:
                f(np.float64(1.0))
    except NameError as exc:
        raise DensityError(
            f"theta uses {exc.name}, which numpy cannot evaluate") from exc
    _check_normalized(expr, n)
    model = _build(f"custom density {expr}", key, n, funcs[0], _vec(funcs[1]))
    if validate:
        validate_density(model)
    return model


def validate_density(model, r_max=50.0):
    """Check the harmonic-space requirements on a sample grid; hard error."""
    r = np.linspace(1e-3, r_max, 2001)
    th = model.theta(r)
    if not np.all(np.isfinite(th)) or np.any(th <= 0):
        raise DensityError("theta must be finite and positive on (0, r_max]")
    small = np.array([1e-4, 3e-4, 1e-3])
    ratio = model.theta(small) / small**model.n
    if np.max(np.abs(ratio - 1.0)) > 1e-4:
        raise DensityError(
            f"theta(r)/r^{model.n} -> {ratio[-1]:.6g} near 0, expected 1")
    d = model.dlog_theta(r)
    if np.any(np.diff(d) > DLOG_SLACK):
        i = int(np.argmax(np.diff(d)))
        raise DensityError(
            f"theta'/theta increases near r = {r[i]:.3g}; "
            "not a harmonic density")
    if np.any(d < -DLOG_SLACK):
        raise DensityError("theta must be nondecreasing (theta'/theta >= 0)")
    # d decreases toward H, so H is a lower bound on the whole window; the
    # limit itself is not attainable on a finite grid (flat models decay
    # like n/r), so only the one-sided comparison is checked.
    if d[-1] < model.H - 1e-6 * (1 + abs(model.H)):
        raise DensityError(
            f"theta'/theta = {d[-1]:.6g} at r = {r_max:g} drops below the "
            f"stored limit H = {model.H:.6g}")
    return True


def builtin_models():
    """The five standard models of the suite and the tests.

    damek_ricci(1, 1) is a valid test density (positive, normalized, with
    θ'/θ decreasing to H = 3/2) but not a harmonic manifold: k ≥ 1 needs m
    even.
    """
    return [
        make_euclidean(0),
        make_euclidean(2),
        make_real_hyperbolic(2),
        make_damek_ricci(2, 1),
        make_damek_ricci(1, 1),
    ]
