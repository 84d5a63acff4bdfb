"""Spherical Fourier transform, Abel transform, and radial convolution.

For a radial function f on the space X with density θ:

    F f(λ) = ω_n ∫_0^∞ f(r) φ_λ(r) θ(r) dr          (spherical Fourier)

The Abel transform A f is the even function on the line whose Euclidean
cosine transform equals F f; equivalently A f is the horosphere integral
e^{-Hs/2} ∫_{H_s} f.  This module computes A through the spectral route

    A f(s) = (1/π) ∫_0^∞ F f(λ) cos(λ s) dλ,

which needs no horosphere geometry and works for every density.  The flat
special cases (A = even extension on the line, A = plane integral on R³)
are kept nearby as oracles for the tests.

The synthesis takes cos and sin of λ·s at the grid points only.  At the
quadrature nodes, s = a_p + b_j (panel edge plus in-panel offset) and
cos λ(a + b) = cos λa cos λb - sin λa sin λb, so the node values are two
matrix products of the point matrices with the small (λ × q) offset
matrices; cosine_transform factors the same way.  Both need a grid of equal
panels, which make_grid's uniform grids are.  Line functions are folded
against quadrature weights (line_convolve here, the Klein-Gordon kernel in
pde.kg_solve) by EvenLineFunction.fold, which evaluates the stored spline
only at the pairs that fall inside its grid, block by block.

A intertwines convolutions: A(f * g) = A f ⋆ A g with ⋆ the line
convolution, and F(f * g) = F f · F g.  radial_convolve exploits that:
convolve on the line, then invert A by ridge-regularized least-squares
collocation on a λ-grid.  The dual lift `a` (with a(cos λ·) = φ_λ and
a(cosh(H·/2)) = 1) is the same collocation run in the opposite direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import Grid1D, make_grid
from .profiles import RadialProfile
from .spherical import phi_basis

DEFAULT_SPACING = 0.02
TAIL_TOL = 1e-11
# pairs per block of EvenLineFunction.fold: 0.5 MB per temporary array
_FOLD_PAIRS = 2**16


class AccuracyError(RuntimeError):
    """A quadrature cannot reach the requested accuracy; see attributes."""

    def __init__(self, msg, required_lambda_max=None):
        super().__init__(msg)
        self.required_lambda_max = required_lambda_max


class ConditioningError(RuntimeError):
    """A collocation system is too ill-conditioned to invert."""


# ---------------------------------------------------------------------------
# sampled function containers
# ---------------------------------------------------------------------------

class _Sampled:
    """Even function stored at grid.points, x >= 0; zero beyond the grid.

    Quadrature-node samples are stored separately (exact_node_values) when
    the constructor knows them exactly, so integrals of the function do not
    pay spline error.  Between the samples the function is the even cubic
    spline through them, built once per object (values must not be changed
    in place after the first call).
    """

    def __post_init__(self):
        self.values = np.asarray(self.values)

    @cached_property
    def _spline(self):
        return self.grid.spline(self.values)

    def _at(self, spline, a):
        """spline at abscissae a >= 0, zero beyond the grid."""
        x_max = self.grid.x_max
        return np.where(a <= x_max, spline(np.minimum(a, x_max)), 0.0)

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        out = self._at(self._spline, np.atleast_1d(x))
        return out[0] if x.ndim == 0 else out

    def node_values(self):
        if self.exact_node_values is not None:
            return self.exact_node_values
        return self.grid.values_at_nodes(self.values)


@dataclass
class RadialFunction(_Sampled):
    """Radial function sampled at grid points; zero beyond its support."""

    model: object
    grid: Grid1D
    values: np.ndarray
    support_radius: float
    exact_node_values: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    @classmethod
    def from_profile(cls, model, profile, spacing=DEFAULT_SPACING, r_max=None):
        r_max = profile.support if r_max is None else r_max
        grid = make_grid(r_max, spacing=spacing)
        return cls(model=model, grid=grid, values=profile.f(grid.points),
                   support_radius=profile.support,
                   exact_node_values=profile.f(grid.nodes))


@dataclass
class EvenLineFunction(_Sampled):
    """Even function on the line, stored on s >= 0; zero beyond the grid."""

    grid: Grid1D
    values: np.ndarray
    support: float
    deriv_values: np.ndarray | None = None
    exact_node_values: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    @cached_property
    def _slope_spline(self):
        """Spline of deriv_values when given, else the value spline's slope."""
        if self.deriv_values is None:
            return self._spline.derivative()
        return self.grid.spline(self.deriv_values)

    def derivative(self, s):
        """dg/ds at signed s (odd function)."""
        s = np.asarray(s, dtype=float)
        s1 = np.atleast_1d(s)
        out = self._at(self._slope_spline, np.abs(s1)) * np.sign(s1)
        return out[0] if s.ndim == 0 else out

    def fold(self, x, sigma, weights, slope=False):
        """Σ_k (g(x - σ_k) + g(x + σ_k)) weights[k] at each x, and of g'.

        x ascending, weights (K,) or (K, m) for the K entries of sigma; the
        result has the shape (x.size,) + weights.shape[1:].
        With slope=True the same fold of g' follows as a second result.
        For each ±σ_k the x with |x ± σ_k| inside the grid form one index
        range.  σ is taken in blocks of about _FOLD_PAIRS / x.size nodes,
        and each block evaluates value (and slope) on the rectangle of x
        its ranges span only, then sums it against the block's weights.
        """
        x = np.asarray(x, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        w = np.asarray(weights, dtype=float)
        n, x_max = x.size, self.grid.x_max
        splines = ((self._spline, self._slope_spline) if slope
                   else (self._spline,))
        sums = [np.zeros((n,) + w.shape[1:]) for _ in splines]
        block = max(1, _FOLD_PAIRS // max(n, 1))
        for shift in (-sigma, sigma):
            # one index of slack each side against rounding at the edges;
            # _at zeroes the pairs that land beyond the grid
            lo = np.searchsorted(x, -x_max - shift) - 1
            hi = np.searchsorted(x, x_max - shift, side="right") + 1
            for k in range(0, sigma.size, block):
                a = max(0, int(lo[k:k + block].min()))
                b = min(n, int(hi[k:k + block].max()))
                if b <= a:
                    continue
                z = x[a:b] + shift[k:k + block, None]
                az = np.abs(z)
                vals = [self._at(spl, az) for spl in splines]
                if slope:
                    vals[1] *= np.sign(z)
                for total, v in zip(sums, vals):
                    total[a:b] += v.T @ w[k:k + block]
        return tuple(sums) if slope else sums[0]


@dataclass
class SpectralSamples:
    """F f sampled on a real λ-grid."""

    model: object
    lambdas: np.ndarray
    values: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def sphere_const(self):
        return self.model.sphere_const


def _as_radial(model, f, spacing=DEFAULT_SPACING):
    if isinstance(f, RadialFunction):
        return f
    if isinstance(f, RadialProfile):
        return RadialFunction.from_profile(model, f, spacing=spacing)
    raise TypeError("expected RadialFunction or RadialProfile")


def radial_integral(model, f):
    """∫_X f = ω_n ∫ f θ dr for a radial f."""
    f = _as_radial(model, f)
    nodes = f.grid.nodes
    return model.sphere_const * f.grid.integrate(
        model.theta(nodes) * f.node_values())


# ---------------------------------------------------------------------------
# spherical Fourier transform
# ---------------------------------------------------------------------------

def spherical_fourier(model, f, lambdas):
    """F f on a grid of real λ ≥ 0.  f must be compactly supported."""
    f = _as_radial(model, f)
    if not np.isfinite(f.support_radius):
        raise ValueError("spherical_fourier needs compact support")
    lambdas = np.asarray(lambdas, dtype=float)
    nodes = f.grid.nodes
    weighted = f.grid.node_weights * model.theta(nodes) * f.node_values()
    basis = phi_basis(model, lambdas, nodes)
    vals = model.sphere_const * (basis @ weighted)
    return SpectralSamples(model=model, lambdas=lambdas, values=vals)


def abel(model, f, s_max=None, s_spacing=0.01, tail_tol=TAIL_TOL,
         lambda_max=None, max_lambda_factor=10.0, strict_tail=True):
    """Abel transform via the spectral route; even output on [0, s_max].

    F f is integrated over λ on Gauss-Legendre panels of fixed width
    π/(2·max(s_max + 0.5, 1)), fine enough for cos(λ s) up to s_max + 0.5,
    laid from 0: λ_max is always a whole number of panels (at least 16).
    λ_max starts at the conventional 40/R, rounded up to a panel edge, and is
    extended geometrically until |F f| has decayed below tail_tol of its
    peak; an extension evaluates F f on the added panels only, so every
    φ-basis row is integrated once (and cached, see phi_basis).  If λ_max
    reaches max_lambda_factor times its starting value the call refuses and
    reports the λ_max the decay rate would require.  strict_tail=False keeps the cap
    value instead of refusing, for callers that pin the cutoff themselves
    (identity checks, noisy samples).  info["lambda_max"] is the rounded
    cutoff actually used.
    """
    f = _as_radial(model, f)
    R = f.support_radius
    if not np.isfinite(R):
        raise ValueError("abel needs compact support")
    s_max = (R + 0.6) if s_max is None else float(s_max)
    width = math.pi / (2.0 * max(s_max + 0.5, 1.0))
    lam0 = lambda_max if lambda_max is not None else max(40.0 / R, 8.0)
    target = lam0
    Ff = np.empty(0)
    while True:
        n_panels = max(16, math.ceil(target / width))
        lgrid = Grid1D(points=width * np.arange(n_panels + 1))
        lam = lgrid.x_max
        added = spherical_fourier(model, f, lgrid.nodes[Ff.size:])
        Ff = np.concatenate([Ff, added.values])
        peak = float(np.max(np.abs(Ff)))
        ltail = lgrid.nodes >= 0.9 * lam
        tail = float(np.max(np.abs(Ff[ltail]))) if peak > 0 else 0.0
        if peak == 0.0 or tail <= tail_tol * peak:
            break
        if lam >= max_lambda_factor * lam0:
            if not strict_tail:
                break
            # extrapolate the decay to report what would have been needed
            mask = lgrid.nodes >= 0.5 * lam
            x, y = lgrid.nodes[mask], np.log(np.abs(Ff[mask]) + 1e-300)
            slope = np.polyfit(x, y, 1)[0]
            need = lam + (math.log(tail_tol * peak) - y[-1]) / min(slope, -1e-12)
            raise AccuracyError(
                f"|F f| has not decayed below {tail_tol:g} of peak at "
                f"λ_max = {lam:.3g}; decay rate suggests λ_max ≈ {need:.3g}",
                required_lambda_max=float(need))
        target *= 1.6

    sgrid = make_grid(s_max, spacing=s_spacing)
    lnodes = lgrid.nodes
    wF = lgrid.node_weights * Ff
    phase = np.outer(sgrid.points, lnodes)
    cosp = np.cos(phase)
    sinp = np.sin(phase)
    vals = (cosp @ wF) / math.pi
    dvals = -(sinp @ (wF * lnodes)) / math.pi
    d2vals = -(cosp @ (wF * lnodes**2)) / math.pi
    # node p·q + j = edge p + offset j, and the edges are the first P points:
    # cos λ(a + b) = cos λa cos λb - sin λa sin λb reuses cosp and sinp
    inner = np.outer(lnodes, _panel_frame(sgrid)[1])
    node_vals = ((cosp[:-1] * wF) @ np.cos(inner)
                 - (sinp[:-1] * wF) @ np.sin(inner)).ravel() / math.pi
    info = {"lambda_max": lam, "tail_ratio": (tail / peak if peak else 0.0),
            "n_lambda_nodes": lgrid.nodes.size, "d2_values": d2vals}
    return EvenLineFunction(grid=sgrid, values=vals, support=min(R, s_max),
                            deriv_values=dvals, exact_node_values=node_vals,
                            info=info)


def _panel_frame(grid):
    """(panel edges, in-panel node offsets) of a grid with equal panels.

    Node p·q + j lies at edges[p] + offsets[j], so cos and sin of λ times
    every node follow from those at the P edges and the q offsets by the
    angle-addition formula.  make_grid's uniform grids qualify (their panel
    widths agree to a few ulps of x_max); any other grid is refused.
    """
    widths = np.diff(grid.points)
    if np.ptp(widths) > 16 * np.finfo(float).eps * grid.x_max:
        raise ValueError(
            "the cosine synthesis needs equal panels; build the grid with "
            "make_grid(kind='uniform')")
    return grid.points[:-1], grid.nodes[:grid.q]


def cosine_transform(g, lambdas):
    """ĝ(λ) = 2 ∫_0^S g(s) cos(λ s) ds for an even line function.

    The quadrature sum over the nodes factors by panel: with node = a_p + b_j,
    ĝ(λ) = 2 Σ_p [cos λa_p C_p(λ) - sin λa_p S_p(λ)], C_p = Σ_j w_pj cos λb_j
    and S_p likewise, so cos and sin are taken on (λ × panels) and
    (λ × q) arrays instead of (λ × nodes).  g's grid needs equal panels.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    edges, offsets = _panel_frame(g.grid)
    w = (g.grid.node_weights * g.node_values()).reshape(edges.size, -1)
    outer = np.outer(lambdas, edges)
    inner = np.outer(lambdas, offsets)
    return 2.0 * (np.einsum("lp,lp->l", np.cos(outer), np.cos(inner) @ w.T)
                  - np.einsum("lp,lp->l", np.sin(outer), np.sin(inner) @ w.T))


def abel_second_derivative(g):
    """(A f)'' sampled on g's grid, via the stored spectral data if present."""
    if "d2_values" in g.info:
        return g.info["d2_values"]
    return g.grid.spline(g.values).derivative(2)(g.grid.points)


# ---------------------------------------------------------------------------
# collocation inversion and the lift a
# ---------------------------------------------------------------------------

def _picard_solve(design, rhs, ridge, cond_cap=math.inf, fit_target=None):
    """Ridge-filtered SVD solve; returns (coef, condition, relative residual).

    Without a fit_target every singular value counts, nothing is refused and
    the condition is s_max/s_min.  With one, the solve refuses when the data
    needs condition > cond_cap.  The raw condition of a smoothing-kernel
    collocation matrix is always astronomical; what matters is how deep into
    the singular spectrum the right-hand side reaches.  The smallest leading
    block whose truncated solution fits rhs to fit_target determines the
    condition number that the inversion actually uses; that is what the cap
    applies to.
    """
    U, s, Vt = np.linalg.svd(design, full_matrices=False)
    proj = U.T @ rhs
    rhs_norm = max(float(np.linalg.norm(rhs)), 1e-300)
    # component of rhs outside col(U); the norm-difference formula cancels
    out_sq = float(np.sum((rhs - U @ proj) ** 2))
    tail_sq = np.concatenate([np.cumsum((proj ** 2)[::-1])[::-1], [0.0]])
    resid_k = np.sqrt(tail_sq + out_sq) / rhs_norm
    needed = s.size
    if fit_target is not None:
        fits = np.nonzero(resid_k[1:] <= fit_target)[0]
        needed = int(fits[0]) + 1 if fits.size else s.size
    cond_needed = float(s[0] / max(s[needed - 1], 1e-300))
    if cond_needed > cond_cap or (fit_target is not None
                                  and resid_k[needed] > fit_target):
        raise ConditioningError(
            f"fitting the data to {fit_target:g} needs condition "
            f"{cond_needed:.3e} (cap {cond_cap:.3e}, best residual "
            f"{resid_k[needed]:.3e}); the input is not numerically in the "
            "transform's range on this support")
    alpha = ridge * s[0]
    filt = np.where(s >= s[0] / cond_cap, s / (s * s + alpha * alpha), 0.0)
    coef = Vt.T @ (filt * proj)
    return coef, cond_needed, float(resid_k[needed])


def _even_cheb_design(r, S, n_coef):
    """Chebyshev basis in the even variable x = 2(r/S)² - 1, row per radius.

    Polynomials in r² keep the representation even in r and spectrally
    accurate, so representation error stays near machine precision; a
    spline-in-r basis would inject ~1e-7 systematic error, which drowns the
    weak signal the density leaves near r = 0.
    """
    x = 2.0 * (np.asarray(r) / S) ** 2 - 1.0
    return np.polynomial.chebyshev.chebvander(x, n_coef - 1)


def _extend_lambda_for_decay(sample_fn, lam0, tail_tol, cap):
    """Grow λ_max geometrically until sample_fn's tail has decayed."""
    lam = lam0
    while True:
        probe = np.linspace(0.9 * lam, lam, 9)
        peak_probe = np.linspace(0.0, lam, 129)
        peak = float(np.max(np.abs(sample_fn(peak_probe))))
        tail = float(np.max(np.abs(sample_fn(probe))))
        if peak == 0.0 or tail <= tail_tol * peak or lam >= cap:
            return lam
        lam *= 1.6


def abel_inverse(model, g, n_lambda=257, lambda_max=None, ridge=1e-12,
                 cond_cap=1e12, fit_target=1e-8, n_coef=None,
                 decay_decades=12.0, r_spacing=DEFAULT_SPACING):
    """Solve A f = g for a radial f by spectral collocation.

    The cosine data ĝ(λ_j) equals F f(λ_j); f is represented as an even
    Chebyshev series on [0, S] and recovered by SVD-regularized least
    squares.  Columns are scaled by an analytic-decay envelope (reaching
    10^-decay_decades on the last coefficient): near r = 0 the density makes
    the data weight vanish, and a flat coefficient prior would zero out the
    reconstruction there instead of completing it smoothly.  Refuses,
    reporting the condition number, when fitting the data would need
    condition above cond_cap.
    """
    S = g.support
    lam0 = lambda_max if lambda_max is not None else max(40.0 / S, 8.0)
    lam = _extend_lambda_for_decay(lambda i: cosine_transform(g, i),
                                   lam0, 1e-10, 12 * lam0)
    n_lambda = max(n_lambda, int(np.ceil(lam * 2 * (S + 1) / math.pi)) + 1)
    lambdas = np.linspace(0.0, lam, n_lambda)
    ghat = cosine_transform(g, lambdas)

    rgrid = make_grid(S, spacing=r_spacing)
    nodes = rgrid.nodes
    wth = rgrid.node_weights * model.theta(nodes)
    if n_coef is None:
        n_coef = int(min(max(64, np.ceil(0.55 * S * lam)), 400))
    prolong = _even_cheb_design(nodes, S, n_coef)
    B = model.sphere_const * ((phi_basis(model, lambdas, nodes) * wth) @ prolong)
    envelope = 10.0 ** (-decay_decades * np.arange(n_coef) / (n_coef - 1))

    scaled, cond, resid = _picard_solve(B * envelope[None, :], ghat,
                                        ridge, cond_cap, fit_target)
    coef = envelope * scaled
    vals = _even_cheb_design(rgrid.points, S, n_coef) @ coef
    return RadialFunction(model=model, grid=rgrid, values=vals,
                          support_radius=S, exact_node_values=prolong @ coef,
                          info={"condition": float(cond),
                                "collocation_residual": resid,
                                "lambda_max": float(lam),
                                "n_coef": n_coef})


def lift_a(model, u, s_window, r_max, n_lambda=257, lambda_max=None,
           ridge=1e-12, extra_lambdas=(), r_spacing=DEFAULT_SPACING,
           residual_warn=1e-6):
    """The lift a: even functions on the line -> radial functions on X.

    Fits u on [0, s_window] in the dictionary {cos(λ_j s)} and maps each
    cosine to φ_{λ_j} (a cos(λ·) = φ_λ).  Exact on the dictionary span by
    construction; the fit residual is reported in .info and flagged when it
    exceeds residual_warn.
    """
    sgrid = make_grid(s_window, spacing=min(DEFAULT_SPACING, s_window / 64))
    snodes = sgrid.nodes
    sw = np.sqrt(sgrid.node_weights)
    uvals = np.asarray(u(snodes), dtype=float)
    lam_top = lambda_max if lambda_max is not None else max(40.0 / s_window, 10.0)
    lambdas = np.linspace(0.0, lam_top, n_lambda)
    if len(extra_lambdas):
        lambdas = np.unique(np.concatenate([lambdas, np.asarray(extra_lambdas,
                                                               dtype=float)]))
    design = sw[:, None] * np.cos(np.outer(snodes, lambdas))
    coef, cond, _ = _picard_solve(design, sw * uvals, ridge)
    fit = design @ coef - sw * uvals
    fit_sup = float(np.max(np.abs(fit / np.maximum(sw, 1e-300))))

    rgrid = make_grid(r_max, spacing=r_spacing)
    union, inv = np.unique(np.concatenate([rgrid.points, rgrid.nodes]),
                           return_inverse=True)
    samples = (coef @ phi_basis(model, lambdas, union))[inv]
    n_pts = rgrid.points.size
    info = {"fit_residual": fit_sup, "condition": float(cond),
            "coef_norm": float(np.linalg.norm(coef)),
            "residual_ok": fit_sup <= residual_warn}
    return RadialFunction(model=model, grid=rgrid, values=samples[:n_pts],
                          support_radius=math.inf,
                          exact_node_values=samples[n_pts:], info=info)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def line_convolve(g1, g2, s_spacing=DEFAULT_SPACING):
    """(g1 ⋆ g2)(s) = ∫ g1(σ) g2(s - σ) dσ for even g1, g2."""
    S = g1.support + g2.support
    out_grid = make_grid(S, spacing=s_spacing)
    sig = g1.grid.nodes
    w1 = g1.grid.node_weights * g1.node_values()
    return EvenLineFunction(grid=out_grid,
                            values=g2.fold(out_grid.points, sig, w1),
                            support=S,
                            exact_node_values=g2.fold(out_grid.nodes, sig, w1))


def radial_convolve(model, f, g, **inverse_kwargs):
    """Radial convolution on X through the Abel route: A(f*g) = Af ⋆ Ag."""
    f = _as_radial(model, f)
    g = _as_radial(model, g)
    af = abel(model, f)
    ag = abel(model, g)
    h = line_convolve(af, ag)
    return abel_inverse(model, h, **inverse_kwargs)


# ---------------------------------------------------------------------------
# multiplier identity check
# ---------------------------------------------------------------------------

def eigen_multiplier_check(model, f, lam, r_test_max=3.0, s_window=None):
    """Residual of the commuting diagram a((A f) ⋆ cos(λ·)) = F f(λ) φ_λ.

    Convolving A f with the even plane wave multiplies it by F f(λ); lifting
    the product must land on F f(λ) φ_λ.  Returns the sup-norm residual on
    [0, r_test_max] plus diagnostics.
    """
    lam = float(lam)
    f = _as_radial(model, f)
    af = abel(model, f)
    s_window = (r_test_max + 1.0) if s_window is None else float(s_window)
    sig = af.grid.nodes
    wA = af.grid.node_weights * af.node_values()

    def u(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return (np.cos(lam * (s[:, None] - sig[None, :]))
                + np.cos(lam * (s[:, None] + sig[None, :]))) @ wA

    lift = lift_a(model, u, s_window, r_test_max,
                  lambda_max=max(40.0 / s_window, 2 * lam + 5.0),
                  extra_lambdas=(lam,))
    Ff = float(np.real(spherical_fourier(model, f, [lam]).values[0]))
    target = Ff * phi_basis(model, [lam], lift.grid.points)[0]
    resid = float(np.max(np.abs(lift.values - target)))
    return {"residual": resid, "multiplier": Ff,
            "relative": resid / max(abs(Ff), 1e-300),
            "lift_fit_residual": lift.info["fit_residual"]}


# ---------------------------------------------------------------------------
# flat-space oracles (kept here so tests and the CLI suite share them)
# ---------------------------------------------------------------------------

def plane_integral_r3(profile, s_values):
    """Exact Abel transform on R³ = euclidean(2): 2π ∫_{|s|}^R f(r) r dr."""
    R = profile.support
    out = np.zeros_like(np.asarray(s_values, dtype=float))
    for i, s in enumerate(np.atleast_1d(s_values)):
        a = abs(float(s))
        if a >= R:
            continue
        grid = make_grid(R - a, spacing=(R - a) / 64)
        r = grid.nodes + a
        out[i] = 2 * math.pi * grid.integrate(profile.f(r) * r)
    return out
