"""Volume growth, the Cheeger chain, and the bottom of the spectrum.

Three constants of a noncompact harmonic space coincide: the Cheeger constant
h, the horosphere mean curvature H, and the exponential volume growth
mu = lim log vol B_r / r.  The chain runs through three stages, each the
l'Hospital refinement of the previous one:

    log vol B_r / r   →   area S_r / vol B_r   →   θ'/θ (r)   →   H.

This module samples all three stages, estimates the Dirichlet bottom
eigenvalue λ₀(B_R) of the radial Sturm-Liouville problem (whose R → ∞ limit
is H²/4), and assembles a consolidated report.  λ₀(B_R) comes from the
series engine: it is λ₁² + H²/4 at the first zero λ₁ of λ ↦ φ_λ(R), found
by spherical.dirichlet_lambdas, the scan that gives abel_inverse its
Dirichlet zeros.
h itself is an infimum over all compact domains and is not computable from θ
alone; the report labels the equality h = H as proved but unverified by this
artifact.

Ball volumes are always accumulated in log space (panelwise log-sum-exp of
log θ), so densities that overflow double precision pointwise are still
handled; nothing downstream ever needs vol B_r itself, only its logarithm
and ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .grids import make_grid
from .spherical import dirichlet_lambdas

__all__ = [
    "GrowthReport",
    "Verdict",
    "volume_growth",
    "lambda0_estimate",
    "lambda0_extrapolate",
    "cheeger_chain_report",
]

GROWTH_R_CAP = 60.0
# panel width of the ball-volume quadrature
GROWTH_SPACING = 0.01
# cheeger_chain_report's default largest radius
CHEEGER_R_MAX = 40.0
# cheeger_chain_report's bounds on a curved space: |θ'/θ(r_max) - H|, the
# gap of the H + c/r fit of log vol B_r / r to H, and |λ₀ / (H²/4) - 1|
MU_TOL = 1e-8
STAGE1_TOL = 0.05
SPECTRAL_BOTTOM_TOL = 0.02
# the bound on |λ₀| on a flat space
FLAT_LAMBDA0_TOL = 1e-4

# Slack for the monotonicity / domination invariants; they hold strictly for
# every admissible density, the slack only absorbs quadrature roundoff.
INVARIANT_SLACK = 1e-9


@dataclass(frozen=True)
class Verdict:
    """One named conclusion of a report.

    status is 'pass', 'fail', or 'assumed'; the last marks statements that
    are true by theorem but outside what the artifact can compute (the
    Cheeger infimum itself) and has neither measured value nor bound.
    """

    name: str
    status: str
    detail: str
    measured: float | None = None
    bound: float | None = None

    @property
    def ok(self):
        return self.status != "fail"


@dataclass(frozen=True)
class GrowthReport:
    """Sampled growth chain and spectral-bottom estimates for one model.

    mu_estimates holds (r, log vol B_r / r) pairs, sphere_ratio holds
    (r, area S_r / vol B_r) pairs, lambda0_estimates holds (R, λ₀(B_R))
    pairs.  mu_final is θ'/θ at the largest sampled radius, the last stage
    of the chain and the sharpest growth estimate available.
    """

    model: str
    H: float
    mu_estimates: tuple
    sphere_ratio: tuple
    lambda0_estimates: tuple
    verdicts: tuple = ()
    mu_final: float | None = None
    lambda0_extrapolated: float | None = None

    def __post_init__(self):
        if self.mu_final is not None and len(self.sphere_ratio) > 1:
            ratios = np.array([v for _, v in self.sphere_ratio])
            slack = INVARIANT_SLACK * (1.0 + abs(self.mu_final))
            if np.any(np.diff(ratios) > slack):
                raise ValueError(
                    "area/vol failed to decrease with r; "
                    "density is not an admissible harmonic profile")
            if np.any(ratios < self.mu_final - slack):
                raise ValueError(
                    "area/vol dropped below the final growth estimate")
        if len(self.lambda0_estimates) > 1:
            vals = np.array([v for _, v in self.lambda0_estimates])
            floor = self.H**2 / 4.0
            slack = 1e-6 * (1.0 + floor)
            if np.any(np.diff(vals) > slack):
                raise ValueError("Dirichlet λ₀(B_R) failed to decrease in R")
            if np.any(vals < floor - 1e-3 * (1.0 + floor)):
                raise ValueError("Dirichlet λ₀(B_R) fell below H²/4")

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)


# ---------------------------------------------------------------------------
# ball volumes and the growth chain
# ---------------------------------------------------------------------------

def _radii(r_list):
    """The radii sorted, refused unless in (0, GROWTH_R_CAP]."""
    rs = sorted(float(r) for r in np.atleast_1d(np.asarray(r_list, float)))
    if not rs or rs[0] <= 0:
        raise ValueError("radii must be positive")
    if rs[-1] > GROWTH_R_CAP:
        raise ValueError(f"--rmax = {rs[-1]:g} exceeds the supported range: "
                         f"at most {GROWTH_R_CAP:g}")
    return rs


def volume_growth(model, r_list):
    """Sample the first two stages of the growth chain at the given radii.

    Returns a GrowthReport fragment whose mu_estimates are log vol B_r / r,
    whose sphere_ratio entries are area S_r / vol B_r, and whose mu_final is
    θ'/θ at max(r_list).  Everything runs in log space, so overflow in θ is
    handled without a separate code path.
    """
    rs = _radii(r_list)

    # One fine grid to r_max; cumulative panel sums give every smaller ball.
    grid = make_grid(rs[-1], spacing=GROWTH_SPACING)
    lw = np.log(grid.node_weights).reshape(grid.n_panels, grid.q)
    lt = model.log_theta(grid.nodes).reshape(grid.n_panels, grid.q)
    panel_logs = logsumexp(lw + lt, axis=1)
    cum_logs = np.logaddexp.accumulate(panel_logs)
    log_w = math.log(model.sphere_const)

    mu_pairs = []
    ratio_pairs = []
    for r in rs:
        # the whole panels below r from the accumulated prefix, and the
        # remainder, at most one panel, on its own 16-panel grid
        j = int(np.searchsorted(grid.points, r)) - 1
        a = float(grid.points[j])
        tail = make_grid(r - a, n_panels=16)
        log_int = np.logaddexp(
            cum_logs[j - 1] if j > 0 else -np.inf,
            logsumexp(np.log(tail.node_weights)
                      + model.log_theta(tail.nodes + a)))
        log_vol = log_w + log_int
        mu_pairs.append((r, log_vol / r))
        ratio_pairs.append((r, math.exp(float(model.log_theta(r)) - log_int)))

    mu_final = float(model.dlog_theta(rs[-1]))
    return GrowthReport(
        model=model.name,
        H=model.H,
        mu_estimates=tuple(mu_pairs),
        sphere_ratio=tuple(ratio_pairs),
        lambda0_estimates=(),
        mu_final=mu_final,
    )


# ---------------------------------------------------------------------------
# Dirichlet bottom eigenvalue on B_R
# ---------------------------------------------------------------------------

def lambda0_estimate(model, R_list):
    """Dirichlet ground value λ₀(B_R) of the radial problem for each R.

    λ₀(B_R) = λ₁² + H²/4, where λ₁ is the first zero of λ ↦ φ_λ(R)
    (Koornwinder 1984): φ_{λ₁}, regular at 0 and zero at the wall, is the
    radial ground state.  dirichlet_lambdas scans φ_λ(R) at every R in one
    series call, each R at λ = kπ/(8R), k = 0 … n + 8, and λ₁ is the first
    zero of its scan.  At half abel_inverse's step π/(4R) this places λ₁
    to about 1e-13 relative on the built-in models.  n = 32 covers
    λR ≤ 4π; the balls whose λ₁R lies beyond that are rescanned together
    with n doubled.

    The first sign change is λ₁ because φ₀(R) > 0.  θ'/θ ≥ H
    (validate_density) gives McKean's inequality ∫θu'² ≥ (H²/4)∫θu² on
    B_R, so no Dirichlet value of any ball reaches H²/4; a zero of φ₀ at
    ρ ≤ R would make H²/4 one of B_ρ.  Returns a GrowthReport fragment.
    """
    Rs = _radii(R_list)

    first, n = {}, 32
    while todo := [R for R in Rs if R not in first]:
        steps = [math.pi / (8.0 * R) for R in todo]
        scans = dirichlet_lambdas(model, todo, steps, [n] * len(todo))
        first.update((R, lams[0]) for R, lams in zip(todo, scans)
                     if lams.size)
        n *= 2
    pairs = [(R, float(first[R] ** 2 + model.H**2 / 4.0)) for R in Rs]
    return GrowthReport(
        model=model.name,
        H=model.H,
        mu_estimates=(),
        sphere_ratio=(),
        lambda0_estimates=tuple(pairs),
    )


def lambda0_extrapolate(pairs):
    """R → ∞ limit from three (R, λ₀(B_R)) samples.

    Dirichlet values approach the limit like a mix of 1/R and 1/R² terms,
    so fit λ(R) = λ∞ + b/R + c/R² exactly through the three largest-R
    samples and return λ∞.
    """
    pts = sorted(pairs)[-3:]
    if len(pts) < 3:
        raise ValueError("need at least three (R, λ₀) samples")
    R = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    V = np.vander(1.0 / R, 3, increasing=True)    # columns 1, 1/R, 1/R²
    coef = np.linalg.solve(V, y)
    return float(coef[0])


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

FLAT_H = 1e-8


def _judged(name, measured, bound, detail):
    """A Verdict that passes when measured <= bound (a nan fails)."""
    measured, bound = float(measured), float(bound)
    return Verdict(name, "pass" if measured <= bound else "fail", detail,
                   measured, bound)


def cheeger_chain_report(model, r_max=CHEEGER_R_MAX):
    """Verify every computable link of the chain h = H = mu, λ₀ = H²/4.

    The verdicts confirm (i) the final growth stage θ'/θ(r_max) matches H,
    (ii) the H + c/r fit of log vol B_r / r at the last two radii matches
    H, (iii) area/vol dominates the growth estimate at every sampled r ≥ 1
    and decreases, (iv) the extrapolated Dirichlet bottom matches H²/4.
    Each carries the number it judged and its bound; on a flat space (i),
    (ii) and (iv) are judged on the polynomial scales.  The Cheeger constant
    itself is an infimum over all compact domains, not computable from θ;
    it is reported as assumed.  The growth stages are sampled at nine radii
    from min(1, r_max/4) to r_max and at r = 1, λ₀(B_R) at R = r_max/2,
    3r_max/4 and r_max.
    """
    growth = volume_growth(model, np.unique(np.concatenate([
        np.linspace(min(1.0, r_max / 4), r_max, 9), [1.0, r_max]])))
    spectral = lambda0_estimate(model, (r_max / 2, 3 * r_max / 4, r_max))
    lam_inf = lambda0_extrapolate(spectral.lambda0_estimates)

    H = model.H
    r_last, stage1 = growth.mu_estimates[-1]
    gap = abs(growth.mu_final - H)
    if H < FLAT_H:
        # polynomial volume: the stages decay to 0 like (n+1) log r / r
        # and n/r, far slower than any exponential-rate tolerance
        cap3 = (model.n + 1.0) / r_max
        cap1 = (model.n + 1.0) * (math.log(max(r_last, math.e)) + 1) / r_last
        growth_rate = (gap, cap3 + MU_TOL,
                       f"θ'/θ({r_max:g}) = {growth.mu_final:.6g} is below "
                       f"the polynomial-growth scale (n+1)/r = {cap3:.3g}, "
                       "consistent with H = 0")
        log_volume = (abs(stage1), cap1,
                      f"log vol B_r / r at r = {r_last:g} is {stage1:.6g}, "
                      f"within the (n+1)(log r + 1)/r = {cap1:.3g} envelope "
                      "of polynomial volume, consistent with H = 0")
        bottom = (abs(lam_inf), FLAT_LAMBDA0_TOL,
                  f"extrapolated λ₀ = {lam_inf:.3e}; H = 0, so the only "
                  "admissible space is flat Euclidean space (rigidity) and "
                  "λ₀ = 0")
    else:
        # log vol B_r / r = H + log(C)/r + O(e^{-r}): the last two radii
        # fit away the 1/r term, which is 0.055 on H⁶ at r = 30
        r_prev, stage_prev = growth.mu_estimates[-2]
        fit = (r_last * stage1 - r_prev * stage_prev) / (r_last - r_prev)
        target = H**2 / 4.0
        rel = abs(lam_inf / target - 1.0)
        growth_rate = (gap, MU_TOL,
                       f"θ'/θ({r_max:g}) = {growth.mu_final:.12g} vs H = "
                       f"{H:.12g} (|diff| = {gap:.3e})")
        log_volume = (abs(fit - H), STAGE1_TOL,
                      f"log vol B_r / r at r = {r_last:g} is {stage1:.6g}; "
                      f"its fit H + c/r through r = {r_prev:g} and "
                      f"{r_last:g} gives {fit:.6g} vs H = {H:g} (|diff| = "
                      f"{abs(fit - H):.3e}, tolerance {STAGE1_TOL:g})")
        bottom = (rel, SPECTRAL_BOTTOM_TOL,
                  f"extrapolated λ₀ = {lam_inf:.9g} vs H²/4 = {target:.9g} "
                  f"(rel err {rel:.2e})")

    # area/vol falls short of H by at most the invariants' slack
    ratios = [v for r, v in growth.sphere_ratio if r >= 1.0]
    smallest = min(ratios, default=np.nan)
    verdicts = (
        _judged("growth_rate_matches_H", *growth_rate),
        _judged("log_volume_ratio_near_H", *log_volume),
        _judged("sphere_ratio_dominates_H", H - smallest,
                INVARIANT_SLACK * (1 + H),
                f"area S_r / vol B_r ≥ H at all {len(ratios)} sampled r ≥ 1; "
                f"smallest ratio {smallest:.9g}"),
        _judged("spectral_bottom_matches_quarter_H_squared", *bottom),
        Verdict("cheeger_constant_equals_H", "assumed",
                "h is an infimum over all compact domains and cannot be "
                "computed from θ; the equality h = H is a theorem, taken as "
                "given here"),
    )

    return GrowthReport(
        model=model.name,
        H=H,
        mu_estimates=growth.mu_estimates,
        sphere_ratio=growth.sphere_ratio,
        lambda0_estimates=spectral.lambda0_estimates,
        verdicts=verdicts,
        mu_final=growth.mu_final,
        lambda0_extrapolated=lam_inf,
    )
