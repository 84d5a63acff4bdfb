"""Wave, Klein-Gordon, and heat flows for radial data.

Three solvers share the radial Laplacian Δw = w'' + (θ'/θ) w'.  The wave
flow is advanced by an explicit leapfrog scheme, the heat flow implicitly
on the flux form (so the discrete mass is conserved exactly), and the
Klein-Gordon problem on the line is assembled from the d'Alembert average
plus a smoothing kernel W(t, s) = t c ₀F₁(;2; c (t² - s²)), c = -H²/16,
evaluated in closed form by scipy.special.hyp0f1.

A wave slice is a grids.EvenFunction: u at the finite-difference grid's
points, its numerical support and info {"t", "ut_values"}, u_t at the
points, as a Klein-Gordon solution carries info["t"] and info["vt_values"].

The checks in this module tie the flows together: the line picture of the
radial wave flow solves Klein-Gordon, the transform intertwines the radial
Laplacian with d²/ds² - H²/4, and the heat flow acts spectrally as the
multiplier e^{-(λ² + H²/4) t}, checked on the heat scheme's own cells: at
φ_{±iH/2} ≡ 1 their quadrature of F k is the mass the scheme conserves.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.special import hyp0f1

from .grids import EvenFunction, make_grid
from .profiles import RadialProfile, smooth_bump
from .spherical import phi_ode_values
from .transforms import _as_radial, abel

# Gauss-Legendre nodes per cell of the wave grid.  Its samples are read
# through the cubic spline, one piece per cell, so spline × θφ_λ is smooth
# within a cell: 4 nodes give F f within 1e-14 of its peak (against 16, on
# wave_to_kg's H3 data for λ <= 150); 8 would only double the radii
# the transform sums.
FD_NODES_PER_CELL = 4
# a wave slice's numerical support ends at its last sample above this
# fraction of the slice's peak
SUPPORT_FLOOR = 3e-4
# heat mass in the last three cells above this is a leak through the wall
LEAK_TOL = 1e-10
# heat_identity_check refuses λ where |F bump| is at most this
MULTIPLIER_GUARD = 1e-3
# the heat statement `heat-check` and the suite judge: at t = HEAT_T and on
# HEAT_LAMBDAS the multiplier identity holds to HEAT_REL_TOL, relative
HEAT_T = 0.5
HEAT_LAMBDAS = tuple(np.linspace(0.0, 2.0, 9).tolist())
HEAT_REL_TOL = 1e-3


# ---------------------------------------------------------------------------
# Klein-Gordon smoothing kernel
# ---------------------------------------------------------------------------

def _kg_kernels(H, t, s):
    """W(t, s) and W_t(t, s) of the Klein-Gordon propagator in closed form.

    With c = -H²/16 and u = t² - s²: W = t c ₀F₁(;2;cu) and, since
    d/dz ₀F₁(;2;z) = ₀F₁(;3;z)/2, W_t = c ₀F₁(;2;cu) + t²c² ₀F₁(;3;cu).
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > t * (1.0 + 1e-12) + 1e-12):
        raise ValueError("kernel is only defined on |s| <= t")
    c = -(H * H) / 16.0
    cu = c * np.maximum(t * t - s * s, 0.0)
    f2 = hyp0f1(2.0, cu)
    return t * c * f2, c * f2 + (t * c) ** 2 * hyp0f1(3.0, cu)


def kg_kernel(H, t, s):
    """Smoothing kernel W(t, s) of the Klein-Gordon propagator.

    W(t, s) = ½ ∂_t J₀((H/2)√(t² - s²)) = t c ₀F₁(;2; c (t² - s²)) with
    c = -H²/16, even in s, with W(t, t) = -H² t / 16 on the light cone
    (₀F₁(;2;0) = 1).
    """
    return _kg_kernels(H, t, s)[0]


# ---------------------------------------------------------------------------
# Klein-Gordon evolution on the line
# ---------------------------------------------------------------------------

def kg_solve(H, g, t, s_max=None, sigma_panels=None):
    """Evolve v_tt = v_ss - (H²/4) v from v(0) = g, v_t(0) = 0.

    v(t, s) = (g(s-t) + g(s+t))/2 + ∫_{-t}^{t} W(t, σ) g(s-σ) dσ, so the
    support is exactly supp(g) + [-t, t].  The slope and velocity come from
    the same formula differentiated analytically; info carries the velocity
    samples and the conserved energy ∫ v_s² + v_t² + (H²/4) v² ds.
    The output grid is g's lattice grid (EvenFunction.lattice_grid) over
    [0, s_max], s_max = supp(g) + t + 0.5 unless given, and s_max rounds
    up to a whole number of its panels.  Pass s_max to put solutions at
    different times on a common grid.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    t = float(t)
    support = g.support + t
    sgrid = g.lattice_grid(support + 0.5 if s_max is None else s_max)
    quarter = H * H / 4.0

    # for H = 0 the kernel vanishes identically and v is the d'Alembert mean
    smoothing = t > 0 and H != 0
    if smoothing:
        # a fixed panel count makes the quadrature error vary smoothly in t,
        # which matters when callers difference solutions across times
        qgrid = make_grid(t, n_panels=sigma_panels, spacing=0.03)
        sig = qgrid.nodes
        w_here, wt_here = _kg_kernels(H, t, sig)
        weights = qgrid.node_weights[:, None] * np.column_stack([w_here,
                                                                 wt_here])
        edge = kg_kernel(H, t, t)
        # (fold of g against W and W_t, fold of g' against W) at the points,
        # then at the nodes
        folds = list(zip(g.fold(sgrid, sig, weights),
                         g.fold(sgrid, sig, weights[:, 0], slope=True)))
    else:
        edge = 0.0
        folds = [None, None]

    def assemble(points, fold):
        gm = g(points - t)
        gp = g(points + t)
        dm = g.derivative(points - t)
        dp = g.derivative(points + t)
        v = 0.5 * (gm + gp)
        vs = 0.5 * (dm + dp)
        vt = 0.5 * (dp - dm) + edge * (gm + gp)
        if smoothing:
            folded, dfold = fold
            v = v + folded[:, 0]
            vt = vt + folded[:, 1]
            vs = vs + dfold
        return v, vs, vt

    vp, vsp, vtp = assemble(sgrid.points, folds[0])
    vn, vsn, vtn = assemble(sgrid.nodes, folds[1])
    energy = 2.0 * float(sgrid.integrate(vsn**2 + vtn**2 + quarter * vn**2))
    info = {"t": t, "energy": energy, "vt_values": vtp}
    return EvenFunction(grid=sgrid, values=vp, support=support,
                        deriv_values=vsp, exact_node_values=vn, info=info)


# ---------------------------------------------------------------------------
# radial wave flow
# ---------------------------------------------------------------------------

def _numerical_support(u, r):
    # threshold relative to the current slice, so fronts whose amplitude
    # decays (spreading, damping) are still tracked
    a = np.abs(u)
    peak = float(np.max(a))
    if peak == 0.0:
        return 0.0
    hot = np.nonzero(a > SUPPORT_FLOOR * peak)[0]
    return float(r[hot[-1]]) if hot.size else 0.0


def radial_wave_solve(model, q0, T, dt, dr=None, n_samples=9):
    """Leapfrog trajectory of w_tt = w_rr + (θ'/θ) w_r with w_t(0) = 0.

    The origin is handled by the even-extension ghost point together with
    the removable-singularity form (n+1) w_rr of the radial Laplacian at
    r = 0.  It ends at t = T in ⌈T/dt⌉ equal steps of at most dt (none at
    T = 0); dr defaults to 2.5 dt.  Refuses when dt violates the CFL bound
    0.5 dr.  The artificial wall stands at supp(q0) + T + max(1, 5 dr),
    beyond the reach of the unit light cone.
    """
    fn = q0.f if isinstance(q0, RadialProfile) else _as_radial(q0)
    support = q0.support
    dt = float(dt)
    if dt <= 0 or T < 0:
        raise ValueError("need T >= 0 and dt > 0")
    if dr is None:
        dr = 2.5 * dt
    if dt > 0.5 * dr * (1.0 + 1e-12):
        raise ValueError(
            f"CFL violation: dt = {dt:g} exceeds 0.5 dr = {0.5 * dr:g}")
    r_max = support + T + max(1.0, 5.0 * dr)
    m_cells = int(math.ceil(r_max / dr))
    grid = make_grid(m_cells * dr, n_panels=m_cells,
                     nodes_per_panel=FD_NODES_PER_CELL)
    r = grid.points
    n = model.n
    dlog = model.dlog_theta(r[1:-1])
    inv_dr2 = 1.0 / (dr * dr)
    half_inv = 0.5 / dr

    def apply_lap(w):
        out = np.empty_like(w)
        out[0] = 2.0 * (n + 1) * (w[1] - w[0]) * inv_dr2
        out[1:-1] = ((w[2:] - 2.0 * w[1:-1] + w[:-2]) * inv_dr2
                     + dlog * (w[2:] - w[:-2]) * half_inv)
        out[-1] = 0.0           # Dirichlet wall, never reached by the cone
        return out

    n_steps = max(1, math.ceil(T / dt - 1e-9)) if T > 0 else 0
    dt = T / n_steps if n_steps else dt
    w_prev = np.asarray(fn(r), dtype=float)
    w_cur = w_prev + 0.5 * dt * dt * apply_lap(w_prev)
    sample_steps = sorted({int(round(x))
                           for x in np.linspace(0.0, n_steps, n_samples)})

    def state(t, u, u_t):
        return EvenFunction(grid, u, _numerical_support(u, r),
                            info={"t": t, "ut_values": u_t})

    states = []
    if sample_steps and sample_steps[0] == 0:
        states.append(state(0.0, w_prev.copy(), np.zeros_like(w_prev)))
    wanted = set(sample_steps)
    for m in range(1, n_steps + 1):
        w_next = 2.0 * w_cur - w_prev + dt * dt * apply_lap(w_cur)
        if m in wanted:
            states.append(state(T if m == n_steps else m * dt, w_cur.copy(),
                                (w_next - w_prev) * (0.5 / dt)))
        w_prev, w_cur = w_cur, w_next
    return states


def support_growth_slope(states, t_min=0.5):
    """Least-squares slope of the numerical support radius against time."""
    ts = np.array([st.info["t"] for st in states])
    rs = np.array([st.support for st in states])
    keep = ts >= t_min
    if np.count_nonzero(keep) < 2:
        raise ValueError("not enough samples past t_min for a slope")
    return float(np.polyfit(ts[keep], rs[keep], 1)[0])


# ---------------------------------------------------------------------------
# intertwining and the wave correspondence
# ---------------------------------------------------------------------------

def intertwine_check(model, f):
    """Sup-residual of A(Δf) = (d²/ds² - H²/4) A f.

    f must be a RadialProfile: Δf is formed from its analytic derivatives
    through the polar formula, keeping differentiation error out of the
    comparison.  Both transforms go through the spectral route, and the
    second derivative of A f reuses the stored spectral samples.
    """
    if not isinstance(f, RadialProfile):
        raise TypeError("intertwine_check needs a RadialProfile")
    rf = EvenFunction.from_profile(f)
    lap = f.laplacian(model)
    rlap = EvenFunction(grid=rf.grid, values=lap(rf.grid.points),
                        support=f.support,
                        exact_node_values=lap(rf.grid.nodes))
    # both transforms share one spectral cutoff: the identity holds at any
    # truncation level, and a common grid keeps tail effects out of it
    lam_c = max(40.0 / f.support, 8.0)
    a_f = abel(model, rf, lambda_max=lam_c)
    a_lap = abel(model, rlap, s_max=a_f.grid.x_max, lambda_max=lam_c)
    quarter = model.H ** 2 / 4.0
    resid = a_lap.values - (a_f.info["d2_values"] - quarter * a_f.values)
    return float(np.max(np.abs(resid)))


def wave_to_kg_check(model, q0, T, dt=0.002):
    """Max gap between the transported wave flow and the line evolution.

    The radial wave trajectory from q0 is pushed to the line by the
    transform at three sample times and compared against the Klein-Gordon
    solution started from A q0.  Returns the worst sup-norm gap.
    """
    rf = _as_radial(q0)
    states = radial_wave_solve(model, rf, T, dt, n_samples=4)
    g0 = abel(model, rf)
    worst = 0.0
    for st in states:
        if st.info["t"] <= 0:
            continue
        fw = replace(st, support=min(st.support + 0.1, st.grid.x_max))
        # the flow multiplies F q0 by a bounded factor, so above q0's own
        # cutoff a slice's spectrum is the O(dr^2) noise of its FD samples
        a_w = abel(model, fw, s_max=st.support + 0.5,
                   lambda_max=g0.info["lambda_max"])
        v = kg_solve(model.H, g0, st.info["t"])
        gap = np.abs(a_w.values - v(a_w.grid.points))
        worst = max(worst, float(np.max(gap)))
    return worst


# ---------------------------------------------------------------------------
# radial heat flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatState:
    """Cell-centred heat profile at one time: k[i] lives at r[i], in the
    cell of weight w[i] = ω θ(r_i) Δr, so the mass is Σ w k."""

    t: float
    r: np.ndarray
    w: np.ndarray
    k: np.ndarray

    @property
    def mass(self):
        return float(np.sum(self.w * self.k))


class BoundaryLeakError(RuntimeError):
    """Heat mass reached the artificial wall: more than LEAK_TOL of it sits
    in the last cells."""


def _tridiagonal_solver(dl, d, du):
    """x ↦ A⁻¹x for the tridiagonal A with sub-, main and super-diagonals
    dl, d, du: factored once by LAPACK ?gttrf (LU with partial pivoting,
    the elimination solve_banded's ?gtsv performs), substituted by ?gttrs.
    Raises LinAlgError when a pivot is exactly zero (A singular).
    """
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
    *lu, info = gttrf(dl, d, du)
    if info != 0:
        raise LinAlgError(f"tridiagonal factorization failed (?gttrf info "
                          f"{info}): the matrix is singular")

    return lambda b: gttrs(*lu, b)[0]


def radial_heat_solve(model, t_final, bump_width, dr=0.01, n_samples=9):
    """Crank-Nicolson trajectory of k_t = k_rr + (θ'/θ) k_r from a bump.

    Discretized in flux form on cell centers, d/dt (θ_i k_i Δr) =
    F_{i+1/2} - F_{i-1/2} with F = θ(face) Δk/Δr and zero flux at both
    walls, so the total mass ω_n Σ θ_i k_i Δr is conserved to roundoff.
    The first two steps are split into backward-Euler halves to damp the
    startup transient.  Initial datum: a smooth bump scaled to mass one.
    The wall stands at bump_width + H t + 10 √t + 2; more than LEAK_TOL of
    the mass in the last cells raises BoundaryLeakError.
    """
    if t_final <= 0 or t_final > 5.0:
        raise ValueError(f"--t = {t_final:g} must lie in (0, 5]")
    if bump_width < 3.0 * dr:
        raise ValueError(f"--width = {bump_width:g} must be at least 3 dr = "
                         f"{3.0 * dr:g} (--dr = {dr:g})")
    dt = 0.5 * dr
    spread = model.H * t_final + 10.0 * math.sqrt(t_final) + 2.0
    m_cells = int(math.ceil((bump_width + spread) / dr))
    grid = make_grid(m_cells * dr, n_panels=m_cells)
    faces = grid.points
    centers = 0.5 * (faces[:-1] + faces[1:])
    theta_c = model.theta(centers)
    flux = model.theta(faces) / dr
    flux[0] = flux[-1] = 0.0

    # D k = (flux[i+1](k[i+1]-k[i]) - flux[i](k[i]-k[i-1])) / (theta_c dr)
    denom = theta_c * dr
    lower = flux[:-1] / denom          # coefficient of k[i-1]
    upper = flux[1:] / denom           # coefficient of k[i+1]
    diag = -(flux[:-1] + flux[1:]) / denom

    def rhs_mul(c, k):
        out = (1.0 + c * diag) * k
        out[:-1] += c * upper[:-1] * k[1:]
        out[1:] += c * lower[1:] * k[:-1]
        return out

    weights = model.sphere_const * theta_c * dr
    bump = np.asarray(smooth_bump(bump_width).f(centers), dtype=float)
    k = bump / float(np.sum(weights * bump))

    n_steps = max(4, int(math.ceil(t_final / dt - 1e-9)))
    dt_eff = t_final / n_steps
    # schedule: two Rannacher steps as backward-Euler halves, then CN;
    # both use the same left-hand matrix I - (dt_eff/2) D, factored once
    schedule = [("be", 0.5 * dt_eff)] * 4 + [("cn", dt_eff)] * (n_steps - 2)
    c = 0.5 * dt_eff
    lhs_solve = _tridiagonal_solver(-c * lower[1:], 1.0 - c * diag,
                                    -c * upper[:-1])

    times = np.cumsum([s[1] for s in schedule])
    sample_times = np.linspace(0.0, t_final, n_samples)
    record = set()
    for st_t in sample_times[1:]:
        record.add(int(np.argmin(np.abs(times - st_t))))

    states = [HeatState(0.0, centers, weights, k.copy())]
    for j, (kind, step) in enumerate(schedule):
        k = lhs_solve(k if kind == "be" else rhs_mul(c, k))
        if j in record:
            states.append(HeatState(float(times[j]), centers, weights,
                                    k.copy()))

    tail = float(np.sum(weights[-3:] * k[-3:]))
    if tail > LEAK_TOL:
        raise BoundaryLeakError(
            f"mass {tail:.3g} in the last cells before the wall at r = "
            f"{grid.x_max:.6g} exceeds {LEAK_TOL:g}")
    return states


def _cell_transform(model, state, lambdas):
    """Σ_i w_i k_i φ_λ(r_i) over the state's cells: F k by the scheme's own
    quadrature, whose weights also sum to the state's mass."""
    return phi_ode_values(model, lambdas, state.r, derivs=False,
                          weights=state.w * state.k)


def heat_identity_check(model, t=HEAT_T, lambdas=HEAT_LAMBDAS, dr=0.01):
    """Max relative gap between the heat flow and its spectral multiplier.

    Evolving a bump b of width 0.3 for time t multiplies its transform
    pointwise: F(k(t))(λ) = e^{-(λ² + H²/4) t} F(b)(λ).  Both states are
    transformed by the scheme's own quadrature (_cell_transform, nothing
    interpolated or cached), so the discretization of b cancels in the
    ratio.  At L = 0 (λ = ±iH/2, φ ≡ 1) that sum is the mass, which the
    flux form conserves to roundoff, so there the ratio is e^0 = 1 exactly;
    elsewhere it carries the scheme's O(dr²) error.  λ values where
    |F b| <= MULTIPLIER_GUARD are refused (the quotient would amplify
    noise), as is an empty λ grid and, naming --t or --lambda-max with its
    largest usable value, a multiplier below 1e-12.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("the λ grid is empty; give at least one λ")
    # a relative comparison is meaningless where e^{-(λ² + H²/4)t} < 1e-12
    log_floor, quarter = math.log(1e12), model.H**2 / 4.0
    if quarter * t > log_floor:
        raise ValueError(
            f"spectral multiplier underflows already at λ = 0; shrink --t "
            f"(largest usable t: {log_floor / quarter:.4g})")
    lam_top = float(np.max(np.abs(lambdas)))
    if (lam_top**2 + quarter) * t > log_floor:
        raise ValueError(
            f"spectral multiplier underflows at λ = {lam_top:.4g}; shrink "
            f"--lambda-max (largest usable λ: "
            f"{math.sqrt(log_floor / t - quarter):.4g})")
    states = radial_heat_solve(model, t, 0.3, dr=dr, n_samples=2)
    f_start, f_end = (_cell_transform(model, st, lambdas)
                      for st in (states[0], states[-1]))
    weak = np.abs(f_start) <= MULTIPLIER_GUARD
    if np.any(weak):
        ok = lambdas[~weak]
        cap = f"{np.max(ok):.4g}" if ok.size else "none"
        raise ValueError(
            f"|F bump| <= {MULTIPLIER_GUARD:g} at λ = {lambdas[weak][0]:.4g}; "
            f"shrink the λ grid (largest usable λ: {cap})")
    target = np.exp(-(lambdas**2 + model.H**2 / 4.0) * states[-1].t)
    return float(np.max(np.abs(f_end / f_start - target) / target))
