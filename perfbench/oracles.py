"""Closed-form answers the benchmark checks the program against.

Everything here is independent of `harmonic`: zero sets come from the
explicit eigenfunctions of euclidean(0), euclidean(2) and real_hyperbolic(2),
φ_λ from Bessel functions, sin/sinh quotients and the Jacobi-function form
₂F₁ (Koornwinder 1984; Anker–Damek–Yacoub 1996).  None of it is timed.

Conventions match the program: θ = r^n (euclidean), sinh^n r (hyperbolic),
2^{m+k} sinh^{m+k}(r/2) cosh^k(r/2) (Damek–Ricci); L = -(λ² + H²/4).
"""

import math

import mpmath
import numpy as np
from scipy import integrate, optimize, special

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# model data
# ---------------------------------------------------------------------------

def mean_curvature(family, n=None, m=None, k=None):
    """H of a model family: 0, n, or m/2 + k."""
    if family == "euclidean":
        return 0.0
    if family == "hyperbolic":
        return float(n)
    return m / 2.0 + k


def theta(family, r, n=None, m=None, k=None):
    r = np.asarray(r, dtype=float)
    if family == "euclidean":
        return r ** n
    if family == "hyperbolic":
        return np.sinh(r) ** n
    return 2.0 ** (m + k) * np.sinh(r / 2) ** (m + k) * np.cosh(r / 2) ** k


def sphere_volume(n):
    """Area of the unit sphere S^n in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


# ---------------------------------------------------------------------------
# spherical functions
# ---------------------------------------------------------------------------

def phi_euclidean(n, lam, r):
    """Γ(ν+1)(λr/2)^{-ν} J_ν(λr), ν = (n-1)/2; cos(λr) for n = 0."""
    r = np.asarray(r, dtype=float)
    z = complex(lam) * r
    if n == 0:
        return np.cos(z)
    nu = (n - 1) / 2.0
    out = np.ones(r.shape, dtype=complex)
    nz = np.abs(z) > 0
    zz = z[nz]
    out[nz] = math.gamma(nu + 1) * (zz / 2) ** (-nu) * special.jv(nu, zz)
    return out


def _jacobi(a, b, c, x):
    return complex(mpmath.hyp2f1(a, b, c, x))


def phi_hyperbolic(n, lam, r):
    """sin(λr)/(λ sinh r) on H³; the Jacobi ₂F₁ form for other n."""
    r = np.asarray(r, dtype=float)
    lam = complex(lam)
    out = np.ones(r.shape, dtype=complex)
    nz = r > 0
    if n == 2:
        rr = r[nz]
        out[nz] = (np.sin(lam * rr) / lam if lam != 0 else rr) / np.sinh(rr)
        return out
    a = (n / 2 + 1j * lam) / 2
    b = (n / 2 - 1j * lam) / 2
    for i in np.nonzero(nz)[0]:
        out[i] = _jacobi(a, b, (n + 1) / 2, -math.sinh(r[i]) ** 2)
    return out


def phi_damek_ricci(m, k, lam, r):
    """₂F₁(Q/2+iλ, Q/2-iλ; (m+k+1)/2; -sinh²(r/2)) with Q = m/2 + k."""
    r = np.asarray(r, dtype=float)
    lam = complex(lam)
    Q = m / 2 + k
    out = np.ones(r.shape, dtype=complex)
    for i in np.nonzero(r > 0)[0]:
        out[i] = _jacobi(Q / 2 + 1j * lam, Q / 2 - 1j * lam, (m + k + 1) / 2,
                         -math.sinh(r[i] / 2) ** 2)
    return out


def phi(family, lam, r, n=None, m=None, k=None):
    if family == "euclidean":
        return phi_euclidean(n, lam, r)
    if family == "hyperbolic":
        return phi_hyperbolic(n, lam, r)
    return phi_damek_ricci(m, k, lam, r)


# ---------------------------------------------------------------------------
# L-plane zero sets
# ---------------------------------------------------------------------------

# H of the three models with closed-form zero sets
ZERO_MODELS = {"euclidean(0)": 0.0, "euclidean(2)": 0.0,
               "real_hyperbolic(2)": 2.0}


def _tan_root(k, c):
    """k-th positive root of sin x - c x cos x (tan x = c x, 0 < c <= 1).

    It lies in (kπ, (k + 1/2)π): the function changes sign there.
    """
    def g(x):
        return math.sin(x) - c * x * math.cos(x)
    return optimize.brentq(g, k * math.pi, (k + 0.5) * math.pi,
                           xtol=1e-15, rtol=4 * np.finfo(float).eps)


def _lambda_root(model_key, target, r, j):
    """j-th positive λ (j = 0, 1, ...) where the target vanishes."""
    if target == "sphere":
        if model_key == "euclidean(0)":
            return (j + 0.5) * math.pi / r          # cos(λr)
        return (j + 1) * math.pi / r                # sin(λr)/(λr), sin/(λ sinh)
    if model_key == "euclidean(0)":
        return (j + 1) * math.pi / r                # Φ = sin(λr)/λ
    if model_key == "euclidean(2)":
        return _tan_root(j + 1, 1.0) / r            # tan(λr) = λr
    return _tan_root(j + 1, math.tanh(r) / r) / r   # tan(λr) = λ tanh r


def L_zeros(model_key, target, r, re_min):
    """Sorted zeros L ≥ re_min of the sphere or ball target; all simple, real."""
    H = ZERO_MODELS[model_key]
    out = []
    for j in range(100000):
        lam = _lambda_root(model_key, target, r, j)
        L = -(lam * lam + H * H / 4.0)
        if L < re_min:
            break
        out.append(L)
    return sorted(out)


def mvp_zeros_e0(r, re_min):
    """Zeros of cos(λr) - 1 on the line: L = -(2πj/r)², j ≥ 1, each double."""
    out = []
    for j in range(1, 100000):
        L = -(2 * math.pi * j / r) ** 2
        if L < re_min:
            break
        out.append(L)
    return sorted(out)


def common_zeros(a, b, rel=1e-9):
    """Values shared by two sorted zero lists, sorted by |L| like certify_pair."""
    out = [x for x in a if any(abs(x - y) <= rel * (1 + abs(x)) for y in b)]
    return sorted(out, key=abs)


def odd_odd_bad_radii(r1, re_min, r_max, r_min=1e-3):
    """bad_radii on euclidean(0), sphere target: r1 (2b+1)/(2a+1).

    The r1 zeros are λ_a = (2a+1)π/(2 r1) with -λ_a² ≥ re_min; each shares a
    zero with every r2 where cos(λ_a r2) = 0.  Deduplicated at 1e-8.
    """
    vals = set()
    a = 0
    while ((2 * a + 1) * math.pi / (2 * r1)) ** 2 <= -re_min:
        b = 0
        while True:
            r2 = r1 * (2 * b + 1) / (2 * a + 1)
            if r2 > r_max:
                break
            if r2 > r_min:
                vals.add(r2)
            b += 1
        a += 1
    out = []
    for v in sorted(vals):
        if not out or v - out[-1] > 1e-8:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def abel_closed_form(model_key, profile_f, support, s_values):
    """Abel transform on R³ and H³: 2π ∫_{|s|}^R f(r) w(r) dr.

    w(r) = r on euclidean(2) and sinh r on real_hyperbolic(2); both follow
    from F f(λ) = 4π ∫ f θ φ_λ and φ_λ = sin(λr)/(λr) or sin(λr)/(λ sinh r).
    """
    weight = {"euclidean(2)": lambda r: r,
              "real_hyperbolic(2)": math.sinh}[model_key]
    out = np.zeros(len(s_values))
    for i, s in enumerate(np.abs(np.asarray(s_values, dtype=float))):
        if s >= support:
            continue
        val, _ = integrate.quad(lambda r: float(profile_f(r)) * weight(r), s,
                                support, epsabs=1e-14, epsrel=1e-13,
                                limit=200)
        out[i] = 2 * math.pi * val
    return out


def spherical_fourier_nodes(model_key, nodes, weights, values, lambdas):
    """ω_n Σ w f θ φ_λ over given quadrature nodes, for euclidean(2)/H³."""
    nodes = np.asarray(nodes, dtype=float)
    if model_key == "euclidean(2)":
        th = nodes ** 2
        phis = [phi_euclidean(2, lam, nodes) for lam in lambdas]
    else:
        th = np.sinh(nodes) ** 2
        phis = [phi_hyperbolic(2, lam, nodes) for lam in lambdas]
    wf = np.asarray(weights) * np.asarray(values) * th
    return sphere_volume(2) * np.array([np.real(p @ wf) for p in phis])


def gauss_legendre_panels(a, b, n_panels, q=16):
    t, w = np.polynomial.legendre.leggauss(q)
    edges = np.linspace(a, b, n_panels + 1)
    half = np.diff(edges)[:, None] / 2
    mid = (edges[:-1] + edges[1:])[:, None] / 2
    return (mid + half * t).ravel(), (half * w).ravel()
