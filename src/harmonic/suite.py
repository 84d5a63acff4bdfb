"""Named verification battery covering every acceptance criterion.

Each check is one verifiable statement with a measured number and a bound;
the CLI `suite` subcommand and the acceptance tests both run this registry,
so the command-line verdict and the test suite cannot drift apart.  Where a
verdict command judges the same statement, the check reads its number, its
bound or its inputs from the one place the command does: the growth-chain
checks (criterion 10) are the verdicts of `cheeger`'s report, the geometry
checks (criterion 11) use `geo-check`'s bounds, and the heat checks
(criteria 9 and 12) `heat-check`'s t, λ grid and tolerance.  Checks are
independent and run one after another, in registration order.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import asymptotics, geometry, pde, profiles, transforms, two_radius
from .density import builtin_models, make_euclidean
from .grids import make_grid
from .spherical import phi, phi_series, volterra_coefficients

DEFAULT_SEED = 20260814

__all__ = ["CheckResult", "SuiteReport", "run_suite", "registered_checks",
           "DEFAULT_SEED"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    criterion: int
    passed: bool
    measured: float
    bound: float
    comparison: str
    detail: str
    seconds: float


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple
    quick: bool
    seed: int

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    @property
    def seconds(self):
        return sum(c.seconds for c in self.checks)


@dataclass(frozen=True)
class _Check:
    name: str
    criterion: int
    quick: bool
    fn: object


_REGISTRY: list[_Check] = []


def _check(name, criterion, quick=True):
    def wrap(fn):
        _REGISTRY.append(_Check(name, criterion, quick, fn))
        return fn
    return wrap


def registered_checks(quick=False):
    return [c for c in _REGISTRY if c.quick or not quick]


# ---------------------------------------------------------------------------
# shared fixtures (cached)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _models():
    return dict(zip(("e0", "e2", "h3", "dr21", "dr11"), builtin_models()),
                e10=make_euclidean(10))


def _model(key):
    return _models()[key]


@lru_cache(maxsize=None)
def _grid10():
    return make_grid(10.0, spacing=0.05)


@lru_cache(maxsize=None)
def _wave_states(key):
    return pde.radial_wave_solve(_model(key), profiles.smooth_bump(1.0),
                                 6.0, 0.004)


# the `convolve` command's default pair of data
_CONV_PAIR = (profiles.gauss_bump(0.35), profiles.gauss_bump(0.45))


@lru_cache(maxsize=None)
def _convolution(key):
    return transforms.radial_convolve(_model(key), *_CONV_PAIR)


@lru_cache(maxsize=None)
def _cheeger(key):
    return asymptotics.cheeger_chain_report(_model(key))


def _phi_oracle(key, lam, r):
    lam = complex(lam)
    if key == "e0":
        return np.cos(lam * r)
    if key == "e2":
        out = np.ones(r.shape, dtype=complex)
        nz = r > 0
        out[nz] = np.sin(lam * r[nz]) / (lam * r[nz])
        return out
    if key == "h3":
        out = np.ones(r.shape, dtype=complex)
        nz = r > 0
        out[nz] = np.sin(lam * r[nz]) / (lam * np.sinh(r[nz]))
        return out
    if key == "dr21":
        # Jacobi function 2F1(Q/2 + iλ, Q/2 - iλ; (m+k+1)/2; -sinh²(r/2)),
        # summed in double precision by mpmath.fp and certified against
        # mpmath's working precision to 1e-13 of max(1, |φ|) at three
        # radii; mpmath loads here only, so no other command imports it
        import mpmath
        m, k = 2, 1
        Q = m / 2 + k

        def jacobi(ctx, x):
            return complex(ctx.hyp2f1(Q / 2 + 1j * lam, Q / 2 - 1j * lam,
                                      (m + k + 1) / 2, -math.sinh(x / 2) ** 2))

        out = np.array([jacobi(mpmath.fp, x) for x in r])
        for i in (r.size // 4, r.size // 2, r.size - 1):
            exact = jacobi(mpmath.mp, r[i])
            gap = abs(out[i] - exact) / max(1.0, abs(exact))
            if gap > 1e-13:
                raise ArithmeticError(
                    f"mpmath.fp.hyp2f1 is {gap:.3g} from working precision "
                    f"at r = {r[i]:g} (allowed 1e-13)")
        return out
    raise KeyError(key)


# ---------------------------------------------------------------------------
# criterion 1: eigenfunction oracles
# ---------------------------------------------------------------------------

def _phi_oracle_check(key, lam):
    def fn(ctx):
        grid = _grid10()
        vals = phi(_model(key), lam, grid).values
        oracle = _phi_oracle(key, lam, grid.points)
        err = float(np.max(np.abs(vals - oracle)))
        return err, 1e-8, f"max deviation from the closed form at λ={lam}"
    return fn


for _key in ("e0", "e2", "h3", "dr21"):
    for _lam in (0.5, 1.0, 2.0, 1 + 0.5j):
        _tag = str(_lam).replace("(", "").replace(")", "").replace(" ", "")
        _check(f"phi_oracle_{_key}_lam_{_tag}", 1)(_phi_oracle_check(_key, _lam))


@_check("phi_paths_agree_dr21", 1)
def _paths_agree(ctx):
    grid = _grid10()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 1 + 0.5j):
        a = phi_series(_model("dr21"), lam, grid).values
        b = phi(_model("dr21"), lam, grid).values
        worst = max(worst, float(np.max(np.abs(a - b))))
    return (worst, 1e-8,
            "φ's Taylor series in L, criterion 2's coefficients summed, vs "
            "φ on Damek-Ricci(2,1)")


# ---------------------------------------------------------------------------
# criterion 2: coefficient bounds
# ---------------------------------------------------------------------------

def _volterra_scaled(coef):
    """(a_k, r^{2k}/(2k)!) at the grid points, k ≤ coef.k_max, in units of
    each row's bound at the last radius: near r = 0 the coefficients carry
    absolute noise, so a pointwise-relative test at 1e-100-sized values is
    meaningless."""
    r, k = coef.grid.points, np.arange(1, coef.k_max + 1)[:, None]
    log_fact = np.array([math.lgamma(2 * j + 1) for j in k[:, 0]])[:, None]
    cap = np.exp(2 * k * np.log(np.maximum(r, 1e-300)) - log_fact)
    return coef.point_values / cap[:, -1:], cap / cap[:, -1:]


def _volterra_violation(coef):
    """Worst violation of 0 ≤ a_k ≤ r^{2k}/(2k)!, in row units, or nan."""
    a, cap = _volterra_scaled(coef)
    # + 0.0 reads the -0.0 of a zero coefficient at r = 0 as 0
    return float(np.max(np.maximum(a - cap, -a))) + 0.0


def _volterra_check(key):
    # off the line a_k < r^{2k}/(2k)! for r > 0, so only r = 0 reaches 0
    why = "" if key == "e0" else (
        "; a pass reads exactly 0: every sample is negative but those at "
        "r = 0, where -a_k = 0, so only a violation moves it")

    def fn(ctx):
        coef = volterra_coefficients(_model(key), _grid10(), 20)
        return _volterra_violation(coef), 1e-12, \
            "worst violation of 0 ≤ a_k ≤ r^{2k}/(2k)! by φ's own series " \
            "coefficients, k ≤ 20, r ≤ 10" + why
    return fn


for _key in ("e0", "e2", "h3", "dr21", "dr11"):
    _check(f"volterra_bounds_{_key}", 2)(_volterra_check(_key))


@_check("volterra_equality_flat", 2)
def _volterra_flat(ctx):
    a, cap = _volterra_scaled(volterra_coefficients(_model("e0"), _grid10(),
                                                    20))
    worst = float(np.max(np.abs(a - cap)))
    return worst, 1e-12, ("on the line φ's series coefficients attain the "
                          "bound: a_k = r^{2k}/(2k)!")


# ---------------------------------------------------------------------------
# criterion 3: the constant eigenfunction
# ---------------------------------------------------------------------------

def _special_phi_check(key):
    def fn(ctx):
        model = _model(key)
        grid = _grid10()
        worst = 0.0
        for sign in (+1.0, -1.0):
            vals = phi(model, sign * 0.5j * model.H, grid).values
            worst = max(worst, float(np.max(np.abs(vals - 1.0))))
        return worst, 1e-10, (
            "φ at λ = ±iH/2 must be identically 1; reads exactly 0: there "
            "L = -(λ² + H²/4) is 0 in double precision, every series level "
            "but L⁰ is multiplied by 0 and φ ≡ 1 to the bit, so this "
            "guards the λ ↦ L map, not the series")
    return fn


for _key in ("e0", "e2", "h3", "dr21", "dr11"):
    _check(f"phi_constant_at_pm_iH2_{_key}", 3)(_special_phi_check(_key))


# ---------------------------------------------------------------------------
# criterion 4: Abel/Fourier transform suite
# ---------------------------------------------------------------------------

@_check("paley_wiener_leak_e2", 4)
def _pw_leak(ctx):
    f = profiles.smooth_bump(1.5)
    g = transforms.abel(_model("e2"), f, s_max=f.support + 2.0)
    outside = g.grid.points > f.support + 1e-9
    return float(np.max(np.abs(g.values[outside]))), 1e-8, \
        "Abel image beyond the support radius of the datum"


@_check("abel_geometric_oracle_r3", 4)
def _abel_r3(ctx):
    f = profiles.smooth_bump(1.5)
    g = transforms.abel(_model("e2"), f, s_max=f.support + 2.0)
    oracle = transforms.plane_integral_r3(f, g.grid.points)
    return float(np.max(np.abs(g.values - oracle))), 1e-8, \
        "spectral Abel path vs direct plane integrals on R³"


def _factorization_check(key):
    def fn(ctx):
        model = _model(key)
        lams = np.linspace(0.0, 6.0, 25)
        Fc, Ff, Fg = (transforms.spherical_fourier(model, f, lams).values
                      for f in (_convolution(key),) + _CONV_PAIR)
        rel = float(np.max(np.abs(Fc - Ff * Fg)) / np.max(np.abs(Ff * Fg)))
        return rel, 1e-12, "F(f*g) = Ff · Fg, relative on λ ∈ [0, 6]"
    return fn


_check("fourier_factorization_e2", 4)(_factorization_check("e2"))
_check("fourier_factorization_h3", 4)(_factorization_check("h3"))


def _inner_product(model, f, g):
    """⟨f, g⟩ = ω_n ∫ f g θ of two radial profiles, by quadrature."""
    grid = make_grid(min(f.support, g.support))
    r = grid.nodes
    return model.sphere_const * grid.integrate(f.f(r) * g.f(r)
                                               * model.theta(r))


def _origin_check(key, bound):
    # (f*g)(o) = ∫ f(y) g(y⁻¹o) dy = ⟨f, g⟩ for radial g: a reference that
    # takes no transform
    def fn(ctx):
        inner = _inner_product(_model(key), *_CONV_PAIR)
        rel = abs(_convolution(key).values[0] - inner) / abs(inner)
        return float(rel), bound, "(f*g)(o) = ω_n ∫ f g θ, relative"
    return fn


for _key, _bound in (("e2", 1e-12), ("h3", 1e-12), ("e10", 1e-8)):
    _check(f"convolve_at_origin_{_key}", 4)(_origin_check(_key, _bound))


@_check("convolution_intertwines_h3", 4)
def _conv_intertwine(ctx):
    model = _model("h3")
    line = transforms.line_convolve(*(transforms.abel(model, f)
                                      for f in _CONV_PAIR))
    lifted = transforms.abel(model, _convolution("h3"))
    gap = np.max(np.abs(lifted(line.grid.points) - line.values))
    return float(gap / np.max(np.abs(line.values))), 1e-8, \
        "A(f*g) = Af ⋆ Ag, relative to the peak"


def _roundtrip_check(key, f, bound, label):
    def fn(ctx):
        model = _model(key)
        finv = transforms.abel_inverse(model, transforms.abel(model, f))
        truth = f.f(finv.grid.points)
        rel = float(np.max(np.abs(finv.values - truth))
                    / np.max(np.abs(truth)))
        return rel, bound, f"abel_inverse ∘ abel identity on {label}"
    return fn


for _key in ("e2", "h3"):
    _check(f"abel_roundtrip_{_key}", 4)(_roundtrip_check(
        _key, profiles.gauss_bump(0.4), 1e-6, "a Gaussian bump"))
# the smooth bumps' transforms decay slowly (λ_max near 300), so these run
# in the full suite only
for _key, _R in (("e2", 1.3), ("h3", 1.3), ("dr21", 2.0)):
    _check(f"abel_roundtrip_smooth_{_key}", 4, quick=False)(_roundtrip_check(
        _key, profiles.smooth_bump(_R), 1e-7, f"smooth_bump({_R})"))


# ---------------------------------------------------------------------------
# criterion 5: the intertwining identity
# ---------------------------------------------------------------------------

def _intertwine_model_check(key):
    def fn(ctx):
        model = _model(key)
        worst = max(pde.intertwine_check(model, f)
                    for f in profiles.standard_suite())
        return worst, 1e-5, "A(Δf) = (d²/ds² - H²/4)Af over the 5-bump suite"
    return fn


for _key in ("e0", "e2", "h3", "dr21", "dr11"):
    _check(f"intertwining_{_key}", 5)(_intertwine_model_check(_key))


# ---------------------------------------------------------------------------
# criterion 6: Klein-Gordon kernel and solver
# ---------------------------------------------------------------------------

@_check("kg_kernel_diagonal", 6)
def _kg_diag(ctx):
    worst = 0.0
    for H in (0.7, 2.0, 3.5):
        t = np.linspace(0.05, 10.0, 60)
        w = np.array([pde.kg_kernel(H, tt, tt) for tt in t])
        exact = -H * H * t / 16.0
        worst = max(worst, float(np.max(np.abs(w - exact)
                                        / np.maximum(np.abs(exact), 1e-300))))
    return worst, 1e-14, ("W(t, t) = t c ₀F₁(;2;0) = -H²t/16 reads exactly 0: "
                          "₀F₁(;2;0) = 1 and scaling by 1/16 is exact")


@_check("kg_energy_drift", 6)
def _kg_energy(ctx):
    g = transforms.gauss_line(0.8, 6.0)
    worst = 0.0
    for H in (0.0, 1.0, 2.0):
        e0 = pde.kg_solve(H, g, 0.25).info["energy"]
        for t in (1.0, 3.0, 10.0):
            e = pde.kg_solve(H, g, t).info["energy"]
            worst = max(worst, abs(e / e0 - 1.0))
    return worst, 1e-6, "relative energy drift over t ∈ [0, 10], H ∈ {0,1,2}"


@_check("wave_to_kg_h3", 6)
def _wave_kg(ctx):
    res = pde.wave_to_kg_check(_model("h3"), profiles.gauss_bump(0.5), 3.0)
    return res, 1e-4, "Abel transform of the wave slice vs the kernel solver"


# ---------------------------------------------------------------------------
# criterion 7: finite propagation speed
# ---------------------------------------------------------------------------

def _slope_check(key):
    def fn(ctx):
        slope = pde.support_growth_slope(_wave_states(key))
        return abs(slope - 1.0), 0.02, \
            f"support growth slope {slope:.4f} (unit speed window)"
    return fn


for _key in ("e0", "e2", "h3", "dr21", "dr11"):
    _check(f"propagation_speed_{_key}", 7)(_slope_check(_key))


# ---------------------------------------------------------------------------
# criterion 8: two-radius certificates on the line
# ---------------------------------------------------------------------------

@_check("bad_radii_odd_odd", 8)
def _bad_radii(ctx):
    # the box reaches -(9π/2)², so denominators 2b+1 run through b ≤ 4
    found = np.array(two_radius.bad_radii(_model("e0"), 1.0, "sphere",
                                          box=(-210 - 8j, 5 + 8j), r_max=10.0))
    oracle = sorted({(2 * a + 1) / (2 * b + 1)
                     for b in range(5) for a in range(80)
                     if (2 * a + 1) / (2 * b + 1) <= 10.0})
    if found.size != len(oracle):
        return float("inf"), 1e-10, \
            f"expected {len(oracle)} radii, found {found.size}"
    err = float(np.max(np.abs(found - np.array(oracle))))
    return err, 1e-10, f"odd/odd rational set, {len(oracle)} radii ≤ 10"


@_check("certify_reject_1_3", 8)
def _certify_reject(ctx):
    cert = two_radius.certify_pair(_model("e0"), 1.0, 3.0)
    if cert.verdict != "common-zero-found":
        return float("inf"), 1e-9, f"unexpected verdict {cert.verdict}"
    err = abs(cert.witness - (-((math.pi / 2) ** 2)))
    return err, 1e-9, "witness must be the first common cosine zero -(π/2)²"


@_check("certify_accept_1_sqrt2", 8)
def _certify_accept(ctx):
    cert = two_radius.certify_pair(_model("e0"), 1.0, math.sqrt(2.0),
                                   box=(-400 - 20j, 2 + 20j))
    ok = cert.verdict == "no-common-zero-in-box"
    return (0.0 if ok else 1.0), 0.5, \
        f"verdict {cert.verdict} on |Re L| ≤ 400 (irrational ratio); " \
        "reads the verdict itself, 0 accepted or 1 not"


@_check("mvp_cosine_counterexample", 8)
def _mvp_demo(ctx):
    res = two_radius.mvp_counterexample_demo(seed=ctx["seed"])
    good = max(res["residual_2pi"], res["residual_linear"])
    return good, 1e-14, (
        "cos satisfies the mean value property at 2π "
        f"(and fails at π: residual {res['residual_pi']:.3f})")


@_check("mvp_certify_2pi_4pi", 8, quick=False)
def _mvp_certify(ctx):
    cert = two_radius.certify_pair(_model("e0"), 2 * math.pi, 4 * math.pi,
                                   target="mvp", box=(-3 - 3j, 1 + 3j))
    if cert.verdict != "common-zero-found":
        return float("inf"), 1e-6, f"unexpected verdict {cert.verdict}"
    err = min(abs(z - (-1.0)) for z in cert.common)
    return err, 1e-6, ("2π and 4π share the mean-value zero L = -1 "
                       "(double zero: its Hankel pencil value)")


# ---------------------------------------------------------------------------
# criterion 9: heat multiplier identity and mass conservation
# ---------------------------------------------------------------------------

def _heat_identity_check(key):
    def fn(ctx):
        err = pde.heat_identity_check(_model(key))
        return err, pde.HEAT_REL_TOL, \
            f"F k_t / F k_0 vs exp(-(λ²+H²/4)t) at t = {pde.HEAT_T:g}"
    return fn


for _key in ("e0", "h3", "dr21"):
    _check(f"heat_multiplier_{_key}", 9)(_heat_identity_check(_key))


@_check("heat_mass_conserved", 9)
def _heat_mass(ctx):
    states = pde.radial_heat_solve(_model("dr21"), 0.5, 0.3)
    m0 = states[0].mass
    drift = max(abs(s.mass / m0 - 1.0) for s in states)
    return drift, 1e-5, "discrete mass under the zero-flux scheme"


# ---------------------------------------------------------------------------
# criterion 10: growth chain and spectral bottom
# ---------------------------------------------------------------------------

def _chain_check(key, verdict):
    def fn(ctx):
        v, = (v for v in _cheeger(key).verdicts if v.name == verdict)
        return v.measured, v.bound, v.detail
    return fn


for _key in ("h3", "dr21", "dr11"):
    for _stem, _verdict in (
            ("growth_rate", "growth_rate_matches_H"),
            ("volume_ratio", "log_volume_ratio_near_H"),
            ("spectral_bottom", "spectral_bottom_matches_quarter_H_squared")):
        _check(f"{_stem}_{_key}", 10)(_chain_check(_key, _verdict))


# ---------------------------------------------------------------------------
# criterion 11: non-radial identities on explicit 2D spaces
# ---------------------------------------------------------------------------

@_check("displacement_identity_plane", 11)
def _disp_plane(ctx):
    pl = geometry.make_plane()
    res = geometry.displacement_identity_check(
        pl, 1.0, np.array([1.5, 0.7]), np.linspace(0.2, 3.0, 8))
    return res, geometry.BOUNDS["displacement_identity"], \
        "circle averages of the shifted eigenfunction (λ = 1)"


@_check("displacement_identity_h2", 11)
def _disp_h2(ctx):
    h2 = geometry.make_hyperbolic_plane()
    x = h2.sphere_param(h2.origin, 1.0, 0.0)
    res = geometry.displacement_identity_check(h2, 1.0, x, np.array([1.0]))
    return res, geometry.BOUNDS["displacement_identity"], \
        "hyperbolic displacement identity at |x| = 1, r = 1"


@_check("projector_commutes_plane", 11)
def _commute_plane(ctx):
    pl = geometry.make_plane()
    res = geometry.projector_convolution_check(
        pl, 1.0, lambda p: np.exp(p[:, 0]))
    return res, geometry.BOUNDS["projector_commutes"], \
        "π(T_r * f) = T_r * (π f) for f = eˣ at r = 1"


@_check("projector_commutes_h2", 11)
def _commute_h2(ctx):
    h2 = geometry.make_hyperbolic_plane()
    f = geometry.bump_patch(h2, h2.sphere_param(h2.origin, 0.7, 0.4), 1.1)
    res = geometry.projector_convolution_check(h2, 1.0, f)
    return res, geometry.BOUNDS["projector_commutes"], \
        "projector/translation commutation on H²"


@_check("projector_selfadjoint", 11)
def _selfadjoint(ctx):
    rng = np.random.default_rng(ctx["seed"])
    pl = geometry.make_plane()
    c1 = pl.sphere_param(pl.origin, 0.9, rng.uniform(0.0, 2 * math.pi))
    c2 = pl.sphere_param(pl.origin, 1.4, rng.uniform(0.0, 2 * math.pi))
    f = geometry.bump_patch(pl, c1, 1.0)
    g = geometry.bump_patch(pl, c2, 1.2)
    res = geometry.projector_selfadjoint_check(pl, f, g, 3.2)
    return res, geometry.BOUNDS["projector_selfadjoint"], \
        "⟨πf, g⟩ = ⟨f, πg⟩ for random off-center bumps"


@_check("projector_idempotent", 11)
def _idempotent(ctx):
    pl = geometry.make_plane()
    h2 = geometry.make_hyperbolic_plane()
    r1 = geometry.idempotence_check(pl, lambda p: np.exp(p[:, 0]))
    fh = geometry.bump_patch(h2, h2.sphere_param(h2.origin, 0.7, 0.4), 1.1)
    r2 = geometry.idempotence_check(h2, fh)
    return max(r1, r2), geometry.BOUNDS["projector_idempotent"], \
        "π² = π on both explicit spaces"


# ---------------------------------------------------------------------------
# criterion 12: convergence orders
# ---------------------------------------------------------------------------

def _wave_exact_error(key, dr):
    model = _model(key)
    prof = profiles.gauss_bump(0.5)
    states = pde.radial_wave_solve(model, prof, 2.0, dt=0.4 * dr, dr=dr)
    st = states[-1]
    r, t = st.grid.points, st.info["t"]
    if key == "e0":
        exact = (prof.f(np.abs(r - t)) + prof.f(r + t)) / 2.0
    else:
        def psi(x):
            return x * prof.f(np.abs(x))
        with np.errstate(invalid="ignore", divide="ignore"):
            exact = (psi(r - t) + psi(r + t)) / (2.0 * r)
        h = 1e-6
        exact[0] = (psi(t + h) - psi(t - h)) / (2.0 * h)
    return float(np.max(np.abs(st.values - exact)))


def _wave_order_check(key):
    def fn(ctx):
        coarse = _wave_exact_error(key, 0.02)
        fine = _wave_exact_error(key, 0.01)
        ratio = coarse / fine
        return ratio, 3.5, (f"d'Alembert-oracle error {coarse:.3e} → "
                            f"{fine:.3e} under mesh halving"), ">="
    return fn


_check("wave_order_e0", 12)(_wave_order_check("e0"))
_check("wave_order_e2", 12)(_wave_order_check("e2"))


@_check("heat_order", 12)
def _heat_order(ctx):
    coarse = pde.heat_identity_check(_model("e0"), dr=0.02)
    fine = pde.heat_identity_check(_model("e0"), dr=0.01)
    return coarse / fine, 3.5, (
        f"multiplier-identity error {coarse:.3e} → {fine:.3e} "
        "under mesh halving"), ">="


@_check("kg_quadrature_order", 12)
def _kg_order(ctx):
    g = transforms.gauss_line(0.12, 3.0)
    ref = pde.kg_solve(3.0, g, 2.0, sigma_panels=256, s_max=7.0)
    errs = []
    for p in (32, 64):
        v = pde.kg_solve(3.0, g, 2.0, sigma_panels=p, s_max=7.0)
        errs.append(float(np.max(np.abs(v.values - ref.values))))
    return errs[0] / errs[1], 4.0, (
        f"kernel-integral error {errs[0]:.3e} → {errs[1]:.3e} when the "
        "σ panel count doubles"), ">="


@_check("displacement_quadrature_order", 12)
def _disp_order(ctx):
    h2 = geometry.make_hyperbolic_plane()
    x = h2.sphere_param(h2.origin, 2.0, 0.7)
    rg = np.linspace(0.5, 3.0, 6)
    errs = [geometry.displacement_identity_check(h2, 8.0, x, rg, quad_order=N)
            for N in (64, 128)]
    return errs[0] / errs[1], 4.0, (
        f"residual {errs[0]:.3e} → {errs[1]:.3e} when the angular "
        "order doubles"), ">="


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _run_one(check, ctx):
    t0 = time.perf_counter()
    try:
        out = check.fn(ctx)
        comparison = "<="
        if len(out) == 4:
            measured, bound, detail, comparison = out
        else:
            measured, bound, detail = out
        if comparison == "<=":
            passed = bool(measured <= bound)
        else:
            passed = bool(measured >= bound)
    except Exception:
        measured, bound, comparison = float("nan"), float("nan"), "<="
        passed = False
        detail = "raised: " + traceback.format_exc(limit=3).strip()
    return CheckResult(check.name, check.criterion, passed,
                       float(measured), float(bound), comparison, detail,
                       time.perf_counter() - t0)


def run_suite(quick=False, seed=DEFAULT_SEED, progress=None):
    """Run the registered battery; returns a SuiteReport.

    progress, if given, is called with each CheckResult as it completes.
    """
    picks = registered_checks(quick=quick)
    ctx = {"seed": int(seed), "quick": quick}
    results = []
    for c in picks:
        results.append(_run_one(c, ctx))
        if progress is not None:
            progress(results[-1])
    return SuiteReport(checks=tuple(results), quick=quick, seed=int(seed))
