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

So F = (cosine transform) ∘ A, and both sides of every transform are the
same kind of object: an even function of one variable, stored on [0, X].
One container, grids.EvenFunction, holds them all, radial data on X and
line functions alike, as it holds every other sampled radial function.

The syntheses over λ take cos and sin on (node × panel) and (node × q)
arrays only (_cosine_synthesis, cosine_transform), and abel's cutoff in λ
is a tail rule (_sample_until_decayed).

The way back from λ is the Dirichlet eigen-expansion on a ball
(_dirichlet_expansion), which needs no c-function: abel_inverse expands
the cosine transform of A f, and radial_convolve expands F f · F g, since
F(f * g) = F f · F g.  A intertwines the convolutions, A(f * g) = A f ⋆ A g
with ⋆ the line convolution (line_convolve); the suite checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (DEFAULT_NODES_PER_PANEL, DEFAULT_SPACING, EvenFunction,
                    Grid1D, make_grid)
from .profiles import RadialProfile
from .spherical import (SPPS_BLOCK_BYTES, dirichlet_lambdas, phi_basis,
                        phi_ode_values)

# abel's tail rule, see _sample_until_decayed
TAIL_TOL = 1e-11
LAMBDA_CAP_FACTOR = 10.0
# abel refuses a λ-round of more nodes than this before building it
LAMBDA_NODE_BUDGET = 10**6


class AccuracyError(RuntimeError):
    """A quadrature cannot reach the requested accuracy; see attributes."""

    def __init__(self, msg, required_lambda_max=None):
        super().__init__(msg)
        self.required_lambda_max = required_lambda_max


@dataclass
class SpectralSamples:
    """F f sampled on a real λ-grid."""

    lambdas: np.ndarray
    values: np.ndarray


def gauss_line(width, support):
    """exp(-(s/width)²) on [0, support], with exact slopes and node samples."""
    grid = make_grid(support, spacing=0.01)

    def f(s):
        return np.exp(-((s / width) ** 2))

    return EvenFunction(grid, f(grid.points), support,
                        deriv_values=-2.0 * grid.points / width**2
                        * f(grid.points),
                        exact_node_values=f(grid.nodes))


def _as_radial(f):
    if isinstance(f, EvenFunction):
        return f
    if isinstance(f, RadialProfile):
        return EvenFunction.from_profile(f)
    raise TypeError("expected EvenFunction or RadialProfile")


# ---------------------------------------------------------------------------
# spherical Fourier transform
# ---------------------------------------------------------------------------

def spherical_fourier(model, f, lambdas):
    """F f on a grid of real λ ≥ 0.  f must be compactly supported.

    The quadrature weights times θ f at f's grid nodes are contracted into
    the series (phi_basis), so no λ × r matrix of φ_λ(r) is
    formed; the F f vector is cached for the 2-3 transform calls that reuse
    the datum.
    """
    f = _as_radial(f)
    if not np.isfinite(f.support):
        raise ValueError("spherical_fourier needs compact support")
    lambdas = np.asarray(lambdas, dtype=float)
    nodes = f.grid.nodes
    weighted = f.grid.node_weights * model.theta(nodes) * f.node_values()
    vals = model.sphere_const * phi_basis(model, lambdas, nodes,
                                          weights=weighted)
    return SpectralSamples(lambdas=lambdas, values=vals)


def abel(model, f, s_max=None, lambda_max=None):
    """Abel transform via the spectral route; even output on [0, s_max].

    F f is integrated over λ on Gauss-Legendre panels of fixed width
    π/(2·max(s_max + 0.5, 1)), fine enough for cos(λ s) up to s_max + 0.5,
    laid from 0: λ_max is always a whole number of panels (at least 16).
    Without lambda_max, λ_max starts at the conventional 40/R, rounded up to
    a panel edge, and is extended by _sample_until_decayed's tail rule; an
    extension evaluates F f on the added panels only, so every λ-node is
    summed once (and its F f cached, see phi_basis); the cost per λ-node is
    ∝ the series pieces, not the radial nodes, nor λ_max
    (phi_ode_values).  The synthesis over λ (_cosine_synthesis) forms no
    s × λ table whole, only blocks of rows of about SPPS_BLOCK_BYTES, and
    its output is not cached: only the F f vectors are, which every call on
    the datum looks up.  A given lambda_max is a
    fixed cutoff, rounded up to a panel edge, neither extended nor refused,
    for callers that pin it themselves (identity checks, samples whose
    spectrum flattens into noise).  Either way a λ-round of more than
    LAMBDA_NODE_BUDGET nodes (the first has about 224/R for small R) is
    refused with AccuracyError before it is built.  info["lambda_max"] is
    the rounded cutoff actually used, info["tail_ratio"] the largest |F f|
    on its top tenth relative to the peak, and info["d2_values"] the second
    derivative at the grid points, from the same spectral samples.
    """
    f = _as_radial(f)
    R = f.support
    if not np.isfinite(R):
        raise ValueError("abel needs compact support")
    s_max = (R + 0.6) if s_max is None else float(s_max)
    width = math.pi / (2.0 * max(s_max + 0.5, 1.0))

    def panels(n):
        nodes = n * DEFAULT_NODES_PER_PANEL
        if nodes > LAMBDA_NODE_BUDGET:
            raise AccuracyError(
                f"abel's λ-round for support {R:.4g} reaches λ_max = "
                f"{n * width:.4g} with {nodes} nodes, over the budget of "
                f"{LAMBDA_NODE_BUDGET}; the round grows as 1/support")
        return Grid1D(points=width * np.arange(n + 1))

    def sample(lams):
        return spherical_fourier(model, f, lams).values

    if lambda_max is None:
        n, Ff, tail_ratio = _sample_until_decayed(
            sample, lambda n: panels(n).nodes, width, max(40.0 / R, 8.0))
        lgrid = panels(n)
    else:
        lgrid = panels(max(16, math.ceil(lambda_max / width)))
        Ff = sample(lgrid.nodes)
        tail, peak = _tail_and_peak(lgrid.nodes, Ff, lgrid.x_max)
        tail_ratio = tail / peak

    sgrid = make_grid(s_max, spacing=0.01)
    vals, dvals, d2vals, node_vals = _cosine_synthesis(sgrid, lgrid, Ff)
    info = {"lambda_max": lgrid.x_max, "tail_ratio": tail_ratio,
            "n_lambda_nodes": lgrid.nodes.size, "d2_values": d2vals}
    return EvenFunction(grid=sgrid, values=vals, support=min(R, s_max),
                        deriv_values=dvals, exact_node_values=node_vals,
                        info=info)


def _cosine_synthesis(sgrid, lgrid, Ff):
    """(1/π) ∫ F f(λ) cos(λs) dλ and its first two s-derivatives.

    The λ-integral is lgrid's quadrature; returns the synthesis, its slope
    and its second derivative at sgrid.points, and the synthesis at
    sgrid.nodes.  Both grids have equal panels, so cos and sin are taken on
    (s × panels) and (s × q) arrays only: λ-node = edge e + offset o gives
    cos s(e + o) = cos se cos so - sin se sin so for the rows at the points,
    and node p·q + j = point p + offset b_j gives the node values from those
    rows and the (λ × q) matrices cos λb, sin λb.  The rows are formed for
    one block of points at a time, each row pair about SPPS_BLOCK_BYTES.
    """
    lnodes = lgrid.nodes
    wF = lgrid.node_weights * Ff
    wF1, wF2 = wF * lnodes, wF * lnodes**2
    edges, offsets = lgrid.points[:-1], lgrid.nodes[:lgrid.q]
    inner = np.outer(lnodes, sgrid.nodes[:sgrid.q])
    cos_in, sin_in = np.cos(inner), np.sin(inner)
    s = sgrid.points
    n_nodes = s.size - 1
    vals, dvals, d2vals = np.empty(s.size), np.empty(s.size), np.empty(s.size)
    node_vals = np.empty((n_nodes, inner.shape[1]))
    block = max(1, SPPS_BLOCK_BYTES // (2 * lnodes.itemsize * lnodes.size))
    for lo in range(0, s.size, block):
        rows = slice(lo, min(lo + block, s.size))
        a, b = np.outer(s[rows], edges), np.outer(s[rows], offsets)
        ce, se = np.cos(a)[:, :, None], np.sin(a)[:, :, None]
        co, so = np.cos(b)[:, None], np.sin(b)[:, None]
        cosp = (ce * co - se * so).reshape(ce.shape[0], -1)
        sinp = (se * co + ce * so).reshape(ce.shape[0], -1)
        vals[rows] = (cosp @ wF) / math.pi
        dvals[rows] = -(sinp @ wF1) / math.pi
        d2vals[rows] = -(cosp @ wF2) / math.pi
        # every point but the last is a panel edge of sgrid
        n = min(rows.stop, n_nodes) - lo
        cosp *= wF
        sinp *= wF
        node_vals[lo:lo + n] = cosp[:n] @ cos_in - sinp[:n] @ sin_in
    return vals, dvals, d2vals, node_vals.ravel() / math.pi


def _tail_and_peak(x, vals, lam):
    """Largest |vals| at the x in the top tenth of [0, lam], and overall."""
    return (float(np.max(np.abs(vals[x >= 0.9 * lam]))),
            float(np.max(np.abs(vals))))


def _sample_until_decayed(sample, abscissae, width, lam0):
    """Samples of a decaying transform on [0, n·width], n grown until it decays.

    abscissae(n) lists the sample points of n steps of width, each list
    extending the last, and sample(x) gives the transform at new points only,
    so every point is sampled once.  n starts at the steps covering lam0 (at
    least 16) and grows 1.6-fold until the largest |sample| at λ ≥ 0.9·n·width
    is at most TAIL_TOL of the peak.  If n·width reaches LAMBDA_CAP_FACTOR·lam0
    first, it raises AccuracyError with the λ_max that the decay rate of the
    upper half would need, extrapolated from that tail maximum.  Returns
    (n, samples, tail / peak).
    """
    target = lam0
    vals = np.empty(0)
    while True:
        n = max(16, math.ceil(target / width))
        x = abscissae(n)
        lam = n * width
        vals = np.concatenate([vals, sample(x[vals.size:])])
        tail, peak = _tail_and_peak(x, vals, lam)
        if tail <= TAIL_TOL * peak:
            return n, vals, (tail / peak if peak else 0.0)
        if lam >= LAMBDA_CAP_FACTOR * lam0:
            upper = x >= 0.5 * lam
            slope = np.polyfit(x[upper], np.log(np.abs(vals[upper]) + 1e-300),
                               1)[0]
            need = lam + math.log(TAIL_TOL * peak / tail) / min(slope, -1e-12)
            raise AccuracyError(
                f"|F f| has not decayed below {TAIL_TOL:g} of peak at "
                f"λ_max = {lam:.3g}; decay rate suggests λ_max ≈ {need:.3g}",
                required_lambda_max=float(need))
        target *= 1.6


def cosine_transform(g, lambdas):
    """ĝ(λ) = 2 ∫_0^S g(s) cos(λ s) ds for an even line function.

    The quadrature sum over the nodes factors by panel: with node = a_p + b_j,
    ĝ(λ) = 2 Σ_p [cos λa_p C_p(λ) - sin λa_p S_p(λ)], C_p = Σ_j w_pj cos λb_j
    and S_p likewise, so cos and sin are taken on (λ × panels) and
    (λ × q) arrays instead of (λ × nodes).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    edges, offsets = g.grid.points[:-1], g.grid.nodes[:g.grid.q]
    w = (g.grid.node_weights * g.node_values()).reshape(edges.size, -1)
    outer = np.outer(lambdas, edges)
    inner = np.outer(lambdas, offsets)
    return 2.0 * (np.einsum("lp,lp->l", np.cos(outer), np.cos(inner) @ w.T)
                  - np.einsum("lp,lp->l", np.sin(outer), np.sin(inner) @ w.T))


# ---------------------------------------------------------------------------
# inversion by the Dirichlet eigen-expansion
# ---------------------------------------------------------------------------

def _dirichlet_expansion(model, S, transform):
    """The radial f on [0, S] whose spherical transform is transform(λ).

    f is the Dirichlet eigen-expansion of F f on the ball B_S,

        f = Σ_j F f(λ_j) φ_{λ_j} / (ω_n ∫_0^S θ φ_{λ_j}²),

    over the zeros λ_j > 0 of λ ↦ φ_λ(S).  They are real (the Dirichlet
    eigenvalues λ_j² + H²/4 of B_S exceed H²/4), the φ_{λ_j} are complete
    on [0, S] (Sturm-Liouville), and no c-function enters, so any density
    serves.  The sum runs to the λ_max at which abel's tail rule stops on
    transform (refusing, like abel, when it does not decay).

    The λ_j come from dirichlet_lambdas at spacing π/(4S), and one
    phi_ode_values call gives the exact rows φ_{λ_j} at the output grid's
    points and nodes; the norms come from the grid's Gauss-Legendre rule.
    info holds the λ_j ("lambdas"), the norms ∫_0^S θ φ_{λ_j}² ("norms")
    and the cutoff ("lambda_max").
    """
    step = math.pi / (4.0 * S)
    n, _, _ = _sample_until_decayed(transform,
                                    lambda n: step * np.arange(n + 1),
                                    step, max(40.0 / S, 8.0))
    lambdas = dirichlet_lambdas(model, S, step, n)
    rgrid = make_grid(S, spacing=DEFAULT_SPACING)
    rows, _ = phi_ode_values(model, lambdas, np.concatenate(
        [rgrid.points, rgrid.nodes]), derivs=False)
    at_points, at_nodes = np.split(rows, [rgrid.points.size], axis=1)
    norms = at_nodes ** 2 @ (rgrid.node_weights * model.theta(rgrid.nodes))
    coef = transform(lambdas) / (model.sphere_const * norms)
    return EvenFunction(grid=rgrid, values=coef @ at_points, support=S,
                        exact_node_values=coef @ at_nodes,
                        info={"lambdas": lambdas, "norms": norms,
                              "lambda_max": n * step})


def abel_inverse(model, g):
    """Solve A f = g for the radial f supported in [0, S], S = g.support.

    F f equals ĝ, the cosine transform of g; f is its Dirichlet expansion.
    """
    return _dirichlet_expansion(model, g.support,
                                lambda lams: cosine_transform(g, lams))


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def line_convolve(g1, g2):
    """(g1 ⋆ g2)(s) = ∫ g1(σ) g2(s - σ) dσ for even g1, g2.

    The output grid is g2's lattice grid over [0, supp g1 + supp g2].
    """
    S = g1.support + g2.support
    out_grid = g2.lattice_grid(S)
    values, node_values = g2.fold(out_grid, g1.grid.nodes,
                                  g1.grid.node_weights * g1.node_values())
    return EvenFunction(grid=out_grid, values=values, support=S,
                        exact_node_values=node_values)


def radial_convolve(model, f, g):
    """Radial convolution f * g on X, supported in [0, supp f + supp g].

    F(f * g) = F f · F g, and f * g is that product's Dirichlet expansion.
    """
    f, g = _as_radial(f), _as_radial(g)
    return _dirichlet_expansion(
        model, f.support + g.support,
        lambda lams: (spherical_fourier(model, f, lams).values
                      * spherical_fourier(model, g, lams).values))


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
