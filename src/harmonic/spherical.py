"""Radial eigenfunctions φ_λ of the Laplacian on a harmonic space.

φ_λ is the radial solution of Δφ + (λ² + H²/4) φ = 0 with φ(0) = 1, i.e.

    φ'' + (θ'/θ) φ' = L φ,      L = -(λ² + H²/4),

and one path evaluates it: the spectral-parameter power series (Kravchenko
& Porter, Math. Methods Appl. Sci. 33, 2010) taken piece by piece.  The
radii are cut into pieces of length h ≤ min(3/sqrt(max|L|), 0.5), and a
piece across which r^n grows by more than 2^7 is cut again; on each
piece two fundamental solutions are power series in L from the piece's
start, with coefficient functions that depend on the model and the pieces
but not on λ, and (φ, φ') pass from piece to piece by 2×2 transfer
matrices.  The inner integrals of the recursion are the piece's fluxes, so
Φ = ∫θφ follows from the same levels without dividing by L.  As
sqrt|L|·h ≤ 3, the sums on a piece carry a rounding floor of about
eps·cosh 3 whatever λ is, and a batch of rows costs matrix products, in
proportion to its size and not to λ_max.  It serves every caller:
phi_ode_values for real or complex λ, and with it phi, phi_basis (the
weighted sums that the spherical transform contracts into the levels),
dirichlet_lambdas (the Dirichlet zeros of abel_inverse and lambda0_estimate)
and the geometry checks;
eigen_state_at for the L-plane zero search, at one radius cut into a
power-of-two number of equal pieces, with ∂/∂L through the transfer chain;
eigen_profile for the zeros in r, on the distinct radii of a profile.

Chained from r = 0, the transfer matrices give φ's Taylor series in L,
φ_λ = 1 + Σ_{k≥1} a_k(r) L^k (volterra_coefficients, phi_series), where

    a_0 = 1,
    a_{k+1}(r) = ∫_0^r (1/θ(r₂)) ∫_0^{r₂} θ(r₁) a_k(r₁) dr₁ dr₂,

with 0 ≤ a_k(r) ≤ r^{2k}/(2k)! (equality iff θ is constant), which the suite
checks; summed over the whole radius they carry a cancellation floor of
about eps·cosh(sqrt(|L|)·r).

No ODE is stepped anywhere.  The tests cross-check the series against the
closed forms of the flat and real hyperbolic spaces, against mpmath's
hypergeometric functions and against a DOP853 reference built in the tests.

phi and phi_series return a grids.EvenFunction: φ_λ and φ' at grid.points,
support the grid's end, and info {"lam", "L", "error_bound"}.

Everything is even in λ (functions of L only), entire in L, and equals 1
identically at λ = ±iH/2 (L = 0).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import legvander
# not called here: perfbench/tracer.py wraps this module global by name
# (tests/test_tracer_contract.py::test_every_traced_name_resolves)
from scipy.integrate import solve_ivp  # noqa: F401

from .grids import (EvenFunction, Grid1D, _legendre_partials, _tables,
                    _weighted_running)

SERIES_TOL = 1e-14
SERIES_K_CAP = 160
_EPS = np.finfo(float).eps
# largest log|φ| (or log|Φ|) the piecewise series accepts: log(1e300) leaves
# room for the prefactor of the exponential growth and for φ_r
LOG_RANGE = 690.0


class QuadratureError(RuntimeError):
    """The series' quadrature cannot hold θ or r^(n+1) on its nodes."""


class PhiOverflowError(OverflowError):
    """φ_λ would leave double range inside the requested radii."""


class TruncationError(RuntimeError):
    """Requested accuracy needs more series terms than the cap allows."""

    def __init__(self, msg, required_k=None):
        super().__init__(msg)
        self.required_k = required_k


# ---------------------------------------------------------------------------
# byte-capped LRU cache
# ---------------------------------------------------------------------------

class _LRUCache:
    """LRU map from keys to values with an nbytes size, byte-capped.

    The lock guards lookups, inserts and evictions only; callers compute
    outside it.  Two threads that miss on one key both compute, and the
    second insert returns the first thread's (identical) value.
    """

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            out = self._entries.get(key)
            if out is not None:
                self._entries.move_to_end(key)
            return out

    def put(self, key, value):
        """Insert value (unless it alone exceeds the cap); return the entry."""
        if value.nbytes > self.max_bytes:
            return value
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._entries.move_to_end(key)
                return old
            self._entries[key] = value
            self.nbytes += value.nbytes
            while self.nbytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= evicted.nbytes
            return value


# The one cache holds two kinds of entry:
# - F f vectors (phi_basis), one double per λ-node: 11 KB for the 1,384
#   nodes of abel on a support-1.5 bump in R³.  A datum's vector is looked
#   up again by every later abel of the same profile (before a
#   Klein-Gordon solve or an inversion, say).  radial_convolve asks for
#   none: it samples F f and F g at its own λ, the Dirichlet scan's and
#   the λ_j, and takes both from one phi_ode_values contraction per batch;
# - eigen_state_at's series levels at one radius, (K+1)×3×2 doubles per
#   piece (about 0.8 KB); a level set of the default L-box at r = 10 has 32
#   pieces, 26 KB.
# Rows of φ are not cached: abel_inverse and radial_convolve ask for their
# exact rows at their Dirichlet zeros once per datum.  No entry is a λ × r
# matrix, so the cap is a guard, far above what a run holds.
CACHE_BYTES = 64 * 2**20
_CACHE = _LRUCache(CACHE_BYTES)


# ---------------------------------------------------------------------------
# Volterra coefficients of φ_λ (the terms criterion 2 bounds)
# ---------------------------------------------------------------------------

@dataclass
class SeriesCoefficients:
    """Samples of the Volterra coefficients a_k and their r-derivatives."""

    grid: Grid1D
    k_max: int
    point_values: np.ndarray    # (K, P) a_k at grid.points, k = 1..K
    point_derivs: np.ndarray    # (K, P) a_k'


def volterra_coefficients(model, grid, k_max):
    """Volterra coefficients a_1..a_{k_max} of φ_λ = 1 + Σ a_k(r) L^k at
    grid.points, from the pieces φ is summed from: the grid's panels, cut by
    _cut_growth (whose edges are not reported).

    Each piece's transfer matrix [[y1, y2], [y1', y2']] is a polynomial in L
    (_spps_levels); (φ, φ') = Σ L^k (a_k, a_k') is their product from
    (1, 0), truncated at degree k_max.  As degree k depends on degrees ≤ k
    only, a coefficient is bit-identical whatever k_max is.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    K = int(k_max)
    edges = _cut_growth(grid.points, model.n)
    ends = _spps_levels(model, edges)[0]
    J = ends.shape[0]
    # poly[p, J-1-j, b, a] = entry (a, b) of piece p's degree-j matrix
    poly = np.ascontiguousarray(ends[::-1, :2].transpose(3, 0, 2, 1))
    # state[J-1+k] = (a_k, a_k'); the J-1 rows below degree 0 stay zero, so
    # window k holds the degrees k-J+1..k that degree k is made from
    state = np.zeros((J + K, 2))
    state[J - 1, 0] = 1.0
    window = sliding_window_view(state, J, axis=0)
    out = np.zeros((edges.size, K + 1, 2))
    for p, m in enumerate(poly):
        # einsum sums in an order fixed by J; a BLAS product's order, and so
        # its rounding, can change with the number of degrees
        state[J - 1:] = out[p + 1] = np.einsum("kbj,jba->ka", window, m)
    at = out[np.searchsorted(edges, grid.points), 1:]
    return SeriesCoefficients(grid=grid, k_max=K, point_values=at[..., 0].T,
                              point_derivs=at[..., 1].T)


def truncation_order(abs_L, r_max, tol=SERIES_TOL, k_cap=SERIES_K_CAP):
    """Smallest K with |L|^K r_max^{2K}/(2K)! < tol, past the term peak."""
    if abs_L == 0.0:
        return 0
    x2 = abs_L * r_max * r_max    # bound term ratio is x2/((2k+1)(2k+2))
    log_l = math.log(abs_L)
    log_r2 = 2 * math.log(r_max) if r_max > 0 else -math.inf
    for k in range(1, 2001):
        b = k * log_l + k * log_r2 - math.lgamma(2 * k + 1)
        if b < math.log(tol) and (2 * k + 1) * (2 * k + 2) > x2:
            if k > k_cap:
                raise TruncationError(
                    f"series needs K = {k} terms (cap {k_cap}) for "
                    f"|L| = {abs_L:.3g}, r_max = {r_max:.3g}", required_k=k)
            return k
    raise TruncationError(
        f"series truncation order exceeds 2000 for |L| = {abs_L:.3g}, "
        f"r_max = {r_max:.3g}", required_k=2001)


def _normalize_lambda(lam):
    """Treat complex λ with zero imaginary part as real (keeps dtypes real)."""
    lam_c = complex(lam)
    if lam_c.imag == 0.0:
        return lam_c.real, True
    return lam_c, False


def spectral_shift(model, lam):
    """L = -(λ² + H²/4); the eigenvalue equation reads Δφ = L φ."""
    lam, real_input = _normalize_lambda(lam)
    L = -(lam * lam + model.H * model.H / 4.0)
    return L, real_input


def _series_sum(coeff_arrays, L, real_input):
    """Sum 1 + Σ a_k L^k with per-term log-magnitude scaling.

    coeff_arrays is (K, P) of nonnegative a_k samples, K >= 1, and L != 0
    (phi_series answers L = 0 itself).  Returns (values, max_term) where
    max_term is the largest term magnitude (the cancellation floor is eps
    times that).
    """
    k = np.arange(1, coeff_arrays.shape[0] + 1)
    with np.errstate(divide="ignore"):
        loga = np.log(np.maximum(coeff_arrays, 0.0))
    mag = np.exp(loga + (k * math.log(abs(L)))[:, None])
    max_term = float(np.max(mag, initial=0.0))
    if real_input:
        sign = np.sign(L) ** k
        vals = 1.0 + np.sum(mag * sign[:, None], axis=0)
    else:
        phase = np.exp(1j * k * np.angle(L))
        vals = 1.0 + np.sum(mag * phase[:, None], axis=0)
    return vals, max_term


def phi_series(model, lam, grid):
    """φ_λ on grid.points as 1 + Σ a_k L^k, the volterra_coefficients
    summed up to truncation_order(|L|, grid.x_max).

    info["error_bound"] is K·eps·max(max_k |a_k L^k|, max_k |a_k' L^k|, 1)
    + SERIES_TOL: the K summed terms each round at eps of the largest, and
    the truncation tolerance.  At L = 0 (λ = ±iH/2) no term is summed and
    φ ≡ 1, φ' ≡ 0 with error_bound 0.
    """
    L, real_input = spectral_shift(model, lam)
    K = truncation_order(abs(L), grid.x_max)
    if K == 0:
        P = grid.points.size
        ones = np.ones(P) if real_input else np.ones(P, complex)
        return EvenFunction(grid, ones, grid.x_max, np.zeros_like(ones),
                            info={"lam": lam, "L": L, "error_bound": 0.0})
    coeffs = volterra_coefficients(model, grid, K)
    vals, mx1 = _series_sum(coeffs.point_values, L, real_input)
    derivs, mx2 = _series_sum(coeffs.point_derivs, L, real_input)
    derivs = derivs - 1.0   # derivative series has no constant term
    err = K * _EPS * max(mx1, mx2, 1.0) + SERIES_TOL
    return EvenFunction(grid, vals, grid.x_max, derivs,
                        info={"lam": lam, "L": L, "error_bound": float(err)})


# ---------------------------------------------------------------------------
# piecewise spectral-parameter power series
# ---------------------------------------------------------------------------

# Pieces are at most SPPS_PHASE/sqrt(max|L|) long, so sqrt|L|·h ≤ X =
# SPPS_PHASE on each, and at most SPPS_MAX_PIECE, so θ grows by at most about
# e^(H/2) across one and its SPPS_NODES Legendre nodes resolve it
SPPS_PHASE = 3.0
SPPS_MAX_PIECE = 0.5
SPPS_NODES = 32
# a piece [b, e] from b > 0 across which r^n grows by more than 2^SPPS_OCTAVES
# is cut at equal ratios, so that its nodes resolve 1/θ̂ ~ (b/r)^n, whose pole
# sits at 0; no model with n ≤ SPPS_OCTAVES gains an edge
SPPS_OCTAVES = 7
# the smallest K whose term bound X^(2K)/(2K)! is below 1e-17, plus one
# level of margin
SPPS_ORDER = truncation_order(SPPS_PHASE ** 2, 1.0, tol=1e-17) + 1
# radii are evaluated in blocks whose temporaries stay near this size
SPPS_BLOCK_BYTES = 2 * 2**20


def _spps_piece(top):
    """Longest piece for a batch whose largest |L| is top."""
    return min(SPPS_PHASE / math.sqrt(top) if top > 0 else math.inf,
               SPPS_MAX_PIECE)


def _cut_growth(edges, n):
    """The edges with each piece [b, e], b > 0, across which r^n grows by
    more than 2^SPPS_OCTAVES cut into the fewest pieces of equal ratio that
    each keep below it."""
    b, e = edges[:-1], edges[1:]
    ratio = np.divide(e, b, out=np.ones_like(e), where=b > 0)
    m = np.maximum(1, np.ceil(n * np.log2(ratio) / SPPS_OCTAVES - 1e-9))
    m = m.astype(int)
    piece = np.repeat(np.arange(b.size), m)
    last = np.cumsum(m) - 1
    j = np.arange(last[-1] + 1) - np.repeat(last, m) + m[piece]
    out = b[piece] * ratio[piece] ** (j / m[piece])
    out[last] = e
    return np.concatenate([edges[:1], out])


def _spps_edges(n, top, r_last):
    """Edges of the series' pieces on [0, r_last] for a batch whose largest
    |L| is top: the first [0, h] and then equal pieces of length
    h = min(_spps_piece(top), r_last), so every later piece [b, b + h] keeps
    b ≥ h away from the singular θ'/θ ~ n/r, each cut by _cut_growth."""
    h = min(_spps_piece(top), r_last)
    P = max(1, math.ceil(r_last / h - 1e-9))
    edges = h * np.arange(P + 1.0)
    edges[-1] = r_last
    return _cut_growth(edges, n)


def _spps_levels(model, edges, Phi=False):
    """λ-free data of the pieces [edges[p], edges[p+1]] of the series.

    On a piece from b the fundamental solutions of (θ̂y')' = Lθ̂y, with
    θ̂ = θ/θ(b), are y1 = Σ L^k A_k (y1(b) = 1, y1'(b) = 0) and
    y2 = Σ L^k B_k (y2(b) = 0, y2'(b) = 1), where

        A_0 = 1,  A_k = ∫_b (1/θ̂) ∫_b θ̂ A_{k-1},
        B_0 = ∫_b 1/θ̂,  B_k = ∫_b (1/θ̂) ∫_b θ̂ B_{k-1},

    every one nonnegative.  The inner integrals are the fluxes
    C_{k+1} = ∫_b θ̂ A_k and E_{k+1} = ∫_b θ̂ B_k, so ∫_b θ y1 =
    θ(b) Σ L^k C_{k+1}, with no division by L.  The first piece, from 0,
    holds the Volterra levels a_k of φ itself in the y1 slot (θ̂ = θ/θ(b_1),
    its inner integral that of r^n times the interpolant of θ̂ A_{k-1}/r^n,
    _weighted_running) and no y2.  Each integral is the running integral of
    the degree D-1 interpolant at the piece's D Gauss-Legendre nodes.
    Returns (ends, slopes, log_ref): ends (K+1, 2, 2, P) holds (A_k, B_k)
    and (A_k', B_k') at each piece's end, slopes (1, P, K+1, 2, D) the node
    values of (A_k', B_k'), and log_ref (P,) log θ at the radius θ̂ is
    relative to.  With Phi, ends[:, 2] and slopes[1] hold (C_{k+1}, E_{k+1})
    in the same way.  Raises QuadratureError, naming the dimension, where
    r^(n+1) or θ̂ leaves the normal double range at the first node.
    """
    D, K, n = SPPS_NODES, SPPS_ORDER, model.n
    t, w, coef_mat, partial = _tables(D)
    # running integral at the nodes, then over the whole piece
    run = np.vstack([partial @ coef_mat, w]).T
    a, b = edges[:-1, None], edges[1:, None]
    half = (b - a) / 2
    x = np.hstack([a + half * (1 + t), b])
    log_ref = model.log_theta(np.where(a > 0, a, b))
    th = np.exp(model.log_theta(x) - log_ref)
    if not np.all(np.isfinite(th) & (th > 0)):
        raise QuadratureError("theta not positive/finite on the series nodes")
    if min(x[0, 0] ** (n + 1), th[0, 0]) < np.finfo(float).tiny:
        raise QuadratureError(
            f"dimension n + 1 = {n + 1} is beyond the series: r^{n + 1} "
            f"and θ on its first piece [0, {edges[1]:.3g}] underflow at its "
            f"first node r = {x[0, 0]:.3g}")
    first = _weighted_running(x[0], edges[1], D, n) / x[0, :D] ** n
    P = edges.size - 1
    d = np.zeros((2, P, D + 1))
    d[1, 1:] = 1.0 / th[1:]
    v = half * (d[..., :D] @ run)
    v[0] = 1.0
    ends = np.empty((K + 1, 2 + Phi, 2, P))
    slopes = np.empty((1 + Phi, P, K + 1, 2, D))
    for k in range(K + 1):
        ends[k, :2] = v[..., D], d[..., D]
        slopes[0, :, k] = d[..., :D].transpose(1, 0, 2)
        if k == K and not Phi:
            break
        g = th[:, :D] * v[..., :D]
        flux = half * (g @ run)
        flux[:, 0] = g[:, 0] @ first.T
        if Phi:
            ends[k, 2] = flux[..., D]
            slopes[1, :, k] = flux[..., :D].transpose(1, 0, 2)
        if k < K:
            d = flux / th
            v = half * (d[..., :D] @ run)
    return ends, slopes, log_ref[:, 0]


def _spps_frame(model, L, radii, Phi=False):
    """The pieces of the series for a batch of L, and the radii in them.

    Pieces: _spps_edges' up to the last radius (which must be positive).
    Returns (ends, slopes, log_ref, powers, i0, edges, cut): _spps_levels'
    data, the powers L^k, k = 0..K, the piece edges and the radii:
    radii[:i0] are 0, and piece p holds r = radii[i0:][cut[p]:cut[p+1]]
    (_spps_maps gives their tables).
    """
    K = SPPS_ORDER
    edges = _spps_edges(model.n, float(np.max(np.abs(L), initial=0.0)),
                        float(radii[-1]))
    ends, slopes, log_ref = _spps_levels(model, edges, Phi)
    powers = L[:, None] ** np.arange(K + 1)
    i0 = np.searchsorted(radii, 0.0, side="right")
    cut = np.concatenate([[0], np.searchsorted(radii[i0:], edges[1:-1]),
                          [radii.size - i0]])
    return ends, slopes, log_ref, powers, i0, edges, cut


def _spps_maps(edges, r, cut, p0, p1):
    """Per-radius tables of the radii in pieces p0..p1-1 of _spps_frame.

    For r[cut[p0]:cut[p1]] returns (V, value_map): V is legvander at their
    places tloc on the reference panel [-1, 1], and value_map maps a piece's
    node slopes A_k', B_k' to A_k, B_k at its radii by their running
    integral.  Both are (radii × D+1) and (radii × D) doubles, so callers
    over many radii build them a block of pieces at a time.
    """
    D = SPPS_NODES
    half = np.diff(edges[p0:p1 + 1]) / 2
    piece = np.repeat(np.arange(p1 - p0), np.diff(cut[p0:p1 + 1]))
    tloc = (r[cut[p0]:cut[p1]] - edges[p0:p1][piece]) / half[piece] - 1.0
    V = legvander(tloc, D)
    _, _, coef_mat, _ = _tables(D)
    value_map = (_legendre_partials(tloc, V) @ coef_mat) * half[piece, None]
    return V, value_map


def _spps_rows(model, L, radii, derivs=True, Phi=False):
    """φ[, φ_r][, Φ = ∫θφ] at any radii for a batch of L, by the series.

    The pieces are _spps_frame's.  (φ, φ') pass from piece to piece by the
    2×2 transfer matrices [[y1, y2], [y1', y2']] at the piece ends; a radius
    in piece p gets φ(b_p) y1(r) + φ'(b_p) y2(r), and Φ(b_p) plus θ_p times
    φ(b_p) Σ L^k C_{k+1}(r) + φ'(b_p) Σ L^k E_{k+1}(r), θ_p being θ where
    θ̂ = 1.  Values map the node slopes A_k', B_k' to the radii by their
    running integral; φ_r and Φ interpolate node values, so derivs=False
    maps and sums half the levels of φ and φ_r.  Each piece's sums carry a
    rounding floor of about eps·cosh(SPPS_PHASE).  Returns the rows in that
    order, each (len(L), len(radii)), from one pass over the distinct radii.
    """
    M, K, D = L.size, SPPS_ORDER, SPPS_NODES
    radii, where = np.unique(radii, return_inverse=True)
    rows = [np.ones((M, radii.size), dtype=L.dtype)]
    rows += [np.zeros_like(rows[0]) for _ in range(derivs + Phi)]
    if not (M and radii.size) or radii[-1] == 0.0:
        return [row[:, where] for row in rows]
    ends, slopes, log_ref, powers, i0, edges, cut = _spps_frame(
        model, L, radii, Phi)
    P = cut.size - 1
    V, value_map = _spps_maps(edges, radii[i0:], cut, 0, P)
    if Phi:
        theta_ref = np.exp(log_ref)
    # φ(0) = 1, φ'(0) = 0 and Φ(0) = 0 hold as set.  Maps from a piece's
    # node values to the radii: the running integral (A', B' to y1, y2) and
    # the interpolant (to y1', y2' and the fluxes)
    _, _, coef_mat, _ = _tables(D)
    node_map = V[:, :D] @ coef_mat if derivs or Phi else None
    maps = np.stack([value_map, node_map]) if derivs else value_map[None]
    groups = 1 + derivs + Phi
    block = max(1, SPPS_BLOCK_BYTES // (2 * groups * rows[0].itemsize * M))
    # (φ, φ', Φ) at the start of each piece, passed on by the piece's
    # transfer matrices at its end; the matrices of `block` pieces come from
    # one product
    u, du = np.ones(M, dtype=L.dtype), np.zeros(M, dtype=L.dtype)
    Phi_b = np.zeros(M, dtype=L.dtype)
    for p in range(P):
        if p % block == 0:
            ends_p = ends[..., p:p + block]
            transfer = (powers @ ends_p.reshape(K + 1, -1)).reshape(
                M, 2 + Phi, 2, -1)
        for lo in range(cut[p], cut[p + 1], block):
            s = slice(lo, min(lo + block, cut[p + 1]))
            # y1, y2 [, y1', y2'] [, the flux sums] at the radii
            lev = np.tensordot(slopes[0, p], maps[:, s], axes=(2, 2))
            if Phi:
                flux = np.tensordot(slopes[1, p], node_map[s],
                                    axes=(2, 1))
                lev = np.concatenate([lev, flux[:, :, None]], axis=2)
            lev[0, 0, 0] += 1.0      # A_0 = 1
            y = (powers @ lev.reshape(K + 1, -1)).reshape(M, 2, groups, -1)
            s = slice(i0 + s.start, i0 + s.stop)
            for g, row in enumerate(rows):
                row[:, s] = u[:, None] * y[:, 0, g] + du[:, None] * y[:, 1, g]
            if Phi:
                rows[-1][:, s] *= theta_ref[p]
                rows[-1][:, s] += Phi_b[:, None]
        t = transfer[..., p % block]
        if Phi:
            Phi_b = Phi_b + theta_ref[p] * (t[:, 2, 0] * u + t[:, 2, 1] * du)
        u, du = (t[:, 0, 0] * u + t[:, 0, 1] * du,
                 t[:, 1, 0] * u + t[:, 1, 1] * du)
    return [row[:, where] for row in rows]


def _spps_contract(model, L, radii, weights):
    """Σ_i weights_i φ(radii_i) for a batch of L, without forming the rows.

    The series is linear in its node data, so each piece's weights are
    summed into its levels before any L enters: Σ_{r∈p} w_r A_k(r) and
    Σ_{r∈p} w_r B_k(r) come from the weighted sum of the value map's rows
    (segment sums over the sorted radii) through the node slopes, plus
    Σ_{r∈p} w_r for A_0 = 1.  The value maps are built and summed for one
    block of whole pieces at a time, the block's tables together about
    SPPS_BLOCK_BYTES (a piece holding more radii is a block alone), so the
    per-radius memory does not grow with the radii.  One product with the
    powers of L gives each piece's (Y1, Y2), and the sum gathers
    φ(b_p) Y1 + φ'(b_p) Y2 along the transfer chain of _spps_rows.  The
    work in L is O(len(L)·P·K) for P pieces, against
    O(len(L)·len(radii)·K) for the rows; equal radii add their weights.
    weights is one weight per radius, shape (len(radii),), or a
    (m, len(radii)) array of m such rows, which share the value maps and
    the transfer chain; returns shape (len(L),) or (m, len(L)).
    """
    M, K, D = L.size, SPPS_ORDER, SPPS_NODES
    radii, where = np.unique(radii, return_inverse=True)
    rows = np.atleast_2d(weights)
    rows = np.stack([np.bincount(where, w, radii.size) for w in rows])
    if not (M and radii.size) or radii[-1] == 0.0:
        out = np.repeat(np.sum(rows, axis=1)[:, None], M, axis=1)
        return out.astype(L.dtype).reshape(np.shape(weights)[:-1] + (M,))
    ends, slopes, _, powers, i0, edges, cut = _spps_frame(model, L, radii)
    P, m = cut.size - 1, rows.shape[0]
    r, w = radii[i0:], rows[:, i0:]
    # φ(0) = 1
    out = np.repeat(np.sum(rows[:, :i0], axis=1)[:, None], M,
                    axis=1).astype(L.dtype)
    # Σ_r w_r (value_map row, 1) per piece; about four (radii × D+1)
    # tables are alive at once while a block is summed
    sums = np.zeros((m, P, D + 1))
    per_block = max(1, SPPS_BLOCK_BYTES // (4 * w.itemsize * (D + 1)))
    p0 = 0
    while p0 < P:
        p1 = max(p0 + 1, int(np.searchsorted(cut, cut[p0] + per_block,
                                             side="right")) - 1)
        filled = np.diff(cut[p0:p1 + 1]) > 0
        if filled.any():
            _, value_map = _spps_maps(edges, r, cut, p0, p1)
            seg = slice(cut[p0], cut[p1])
            for i in range(m):
                sums[i, p0:p1][filled] = np.add.reduceat(
                    np.column_stack([w[i, seg, None] * value_map,
                                     w[i, seg]]),
                    cut[p0:p1][filled] - cut[p0], axis=0)
        p0 = p1
    # (m, K+1, 2, P): Σ_r w_r (A_k(r), B_k(r)) per piece, A_0 = 1 included
    lev = np.stack([np.einsum("pkjd,pd->kjp", slopes[0], sums[i, :, :D])
                    for i in range(m)])
    lev[:, 0, 0] += sums[:, :, D]
    block = max(1, SPPS_BLOCK_BYTES // ((4 + 2 * m) * out.itemsize * M))
    u, du = np.ones(M, dtype=L.dtype), np.zeros(M, dtype=L.dtype)
    for lo in range(0, P, block):
        s = slice(lo, min(lo + block, P))
        n = s.stop - s.start
        # the transfer matrices and the (Y1, Y2) of n pieces, one product
        y = powers @ np.concatenate(
            [ends[..., s].reshape(K + 1, -1)]
            + [lev[i, ..., s].reshape(K + 1, -1) for i in range(m)], axis=1)
        transfer = y[:, :4 * n].reshape(M, 2, 2, n)
        Y = y[:, 4 * n:].reshape(M, m, 2, n)
        for j in range(n):
            out += u * Y[:, :, 0, j].T + du * Y[:, :, 1, j].T
            t = transfer[..., j]
            u, du = (t[:, 0, 0] * u + t[:, 0, 1] * du,
                     t[:, 1, 0] * u + t[:, 1, 1] * du)
    return out.reshape(np.shape(weights)[:-1] + (M,))


def _refuse_growth(what, rate, r_last):
    """PhiOverflowError when exp(rate·r_last) leaves double range."""
    if rate > 0 and rate * r_last > LOG_RANGE:
        raise PhiOverflowError(
            f"{what} grows like exp({rate:.6g} r) and leaves double range "
            f"beyond r = {LOG_RANGE / rate:.6g}, the largest usable radius")


def phi_ode_values(model, lams, r_points, *, derivs=True, weights=None):
    """φ_λ and φ_λ' at the radii for a batch of λ, by a piecewise series.

    Returns (values, derivatives) with shape (len(lams), len(r_points));
    with derivs=False the derivatives are not formed and come back as None
    (abel_inverse's rows).  With weights (one per radius, derivs=False) it
    returns only the contraction Σ_i weights_i φ_λ(r_i), shape
    (len(lams),), summed into the series levels before λ enters
    (_spps_contract): its cost in λ is ∝ the number of pieces, not of
    radii, and no row is formed.  weights of shape (m, len(r_points))
    give m contractions, shape (m, len(lams)), from one pass
    (radial_convolve's F f and F g).  No λ gives empty results.  r_points may
    repeat and come in any order; a repeated radius adds its weights.
    No ODE is stepped: the coefficient
    functions of the piecewise spectral-parameter power series depend on
    the model and the pieces only, so rows cost ∝ their count, not λ_max
    (see _spps_rows).  Raises PhiOverflowError, naming the largest usable
    radius, when some φ_λ would overflow before the last one.
    """
    lams = np.atleast_1d(np.asarray(lams))
    real_input = not np.iscomplexobj(lams) or np.all(lams.imag == 0)
    if real_input:
        lams = lams.real.astype(float)
    H = model.H
    L = -(lams * lams + H * H / 4.0)
    r_points = np.asarray(r_points, dtype=float)
    if r_points.ndim != 1:
        raise ValueError("r_points must be a 1-d array")
    if np.any(r_points < 0):
        raise ValueError("radii must be nonnegative")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if derivs or weights.ndim > 2 or weights.shape[-1:] != r_points.shape:
            raise ValueError("weights need derivs=False and one weight per "
                             "radius in each row")
    # φ_λ grows like exp((|Im λ| - H/2) r) at large r; refuse before the
    # sums meet an overflow
    rate = float(np.max(np.abs(np.imag(lams)), initial=0.0)) - H / 2
    _refuse_growth("φ_λ", rate, np.max(r_points, initial=0.0))
    if weights is not None:
        return _spps_contract(model, L, r_points, weights)
    rows = _spps_rows(model, L, r_points, derivs=derivs)
    return rows[0], (rows[1] if derivs else None)


# points of a local interpolation window in λ, as offsets from the left end
# of the scan interval it serves, and their barycentric weights
_WINDOW = 16
_OFFSETS = np.arange(_WINDOW) - (_WINDOW // 2 - 1)
_BARY = np.array([(-1.0) ** k * math.comb(_WINDOW - 1, k)
                  for k in range(_WINDOW)])


def _lagrange_weights(t):
    """Interpolation weights on the window, one row per local position t.

    0 < t < 1 places the point strictly inside its scan interval, so never
    on a window point (_scan_roots' bisection keeps every t there).
    """
    a = _BARY / (np.asarray(t, dtype=float)[:, None] - _OFFSETS)
    return a / a.sum(axis=1, keepdims=True)


def _scan_roots(edge, n):
    """Zeros of the interpolant of an even scan on its first n steps.

    edge[k] samples an even function of λ at λ = k·step.  Zero j lies at
    left_j + t_j steps, 0 < t_j < 1, inside the scan interval of a sign
    change; its window of samples is mirrored through λ = 0.  The zeros are
    bisected to full precision on the interpolant, all at once, and
    returned in steps.
    """
    pos = edge > 0
    left = np.nonzero(pos[:n] != pos[1:n + 1])[0]
    samples = edge[np.abs(left[:, None] + _OFFSETS)]
    lo, hi = np.zeros(left.size), np.ones(left.size)
    for _ in range(52):              # to the spacing of doubles below 1
        mid = 0.5 * (lo + hi)
        same = (np.sum(_lagrange_weights(mid) * samples, axis=1) > 0) \
            == pos[left]
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return left + 0.5 * (lo + hi)


def dirichlet_lambdas(model, R, step, n):
    """The zeros λ in (0, n·step) of λ ↦ φ_λ(R), ascending.

    They are the Dirichlet spectrum λ² + H²/4 of the ball B_R.  One
    phi_ode_values call samples φ_λ(R) at λ = k·step, k = 0 … n +
    _WINDOW/2.  In λ, φ_λ(R) is even and entire of exponential type R, so
    for step ≤ π/(4R) the _WINDOW-point interpolant of the scan (mirrored
    through λ = 0) follows it closely, and each sign change is bisected on
    it (_scan_roots).  R, step and n may also be equal-length sequences:
    then one phi_ode_values call samples every radius at every scan λ, each
    radius keeps the column of its own λ = k·step_i, k = 0 … n_i +
    _WINDOW/2, and the zeros come back as a list, one array per radius.
    """
    if np.ndim(R) == 0:
        return dirichlet_lambdas(model, [R], [step], [n])[0]
    scans = [h * np.arange(k + _WINDOW // 2 + 1) for h, k in zip(step, n)]
    edge, _ = phi_ode_values(model, np.concatenate(scans), R, derivs=False)
    rows = np.split(edge, np.cumsum([lams.size for lams in scans])[:-1])
    return [h * _scan_roots(e[:, i], k)
            for i, (e, h, k) in enumerate(zip(rows, step, n))]


def phi(model, lam, grid):
    """φ_λ on grid.points by the piecewise series (phi_ode_values).

    info["error_bound"] is the series floor: eps·cosh(SPPS_PHASE) per
    piece, summed over the pieces, relative to max(1, max|φ|).  The
    piecewise series is within 1e-12 of the closed forms for λ ≤ 640 on
    r ≤ 3 and λ ≤ 160 on r ≤ 10 (tests).
    """
    L, _ = spectral_shift(model, lam)
    vals, derivs = phi_ode_values(model, [lam], grid.points)
    scale = float(np.max(np.abs(vals)))
    pieces = _spps_edges(model.n, abs(L), grid.x_max).size - 1
    err = _EPS * math.cosh(SPPS_PHASE) * pieces * max(scale, 1.0)
    return EvenFunction(grid, vals[0], grid.x_max, derivs[0],
                        info={"lam": lam, "L": L, "error_bound": err})


# ---------------------------------------------------------------------------
# the L-plane state and the r-profiles (used by the zero search)
# ---------------------------------------------------------------------------

def _refuse_state_growth(model, L, r_last):
    """PhiOverflowError when φ or Φ = ∫θφ leaves double range by r_last.

    φ grows like exp((Re sqrt(L + H²/4) - H/2) r), and Φ like θ ~ e^{Hr}
    times φ or at least e^{Hr/2}.
    """
    H = model.H
    mu = float(np.max(np.sqrt(L + H * H / 4.0).real, initial=0.0))
    _refuse_growth("Φ = ∫θφ", max(mu - H / 2, 0.0) + H, r_last)


def _state_levels(model, r, P):
    """The series' end values for P equal pieces of [0, r], cached.

    The pieces are cut by _cut_growth, so there may be more than P.
    _spps_levels' ends, with the fluxes times θ at the radius θ̂ is
    relative to, so a piece from b adds φ(b) Σ L^k θC_{k+1} +
    φ'(b) Σ L^k θE_{k+1} to Φ.  The cache keeps one (K+1, 3, 2, pieces)
    array per (model, r, P).
    """
    key = ("state", model.key, r, P)
    out = _CACHE.get(key)
    if out is None:
        edges = _cut_growth(r * (np.arange(P + 1) / P), model.n)
        out, _, log_ref = _spps_levels(model, edges, Phi=True)
        out[:, 2] *= np.exp(log_ref)
        out.flags.writeable = False
        out = _CACHE.put(key, out)
    return out


def eigen_state_at(model, L_values, r_stop):
    """φ, φ_r, ∂φ/∂L, Φ, ∂Φ/∂L at radius r_stop for a batch of complex L.

    By the piecewise series: [0, r_stop] is cut into P equal pieces of
    length at most _spps_piece(max|L|), with P rounded up to a power of two
    so that the batches of one search share a few level sets, cached per
    (model, r_stop, P), and then cut by _cut_growth.  Each piece's transfer matrix [[y1, y2], [y1', y2'],
    [G1, G2]] is a polynomial in L (the last row adds Φ's increment, see
    _state_levels); the chain passes (φ, φ') and Φ on, and ∂/∂L follows by
    the product rule through it, the matrices differentiated term-wise.
    These are holomorphic in L, which is what the argument-principle zero
    search differentiates.  Raises PhiOverflowError when φ or Φ would leave
    double range.
    """
    L = np.atleast_1d(np.asarray(L_values, dtype=complex))
    if r_stop <= 0:
        raise ValueError("r_stop must be positive")
    r = float(r_stop)
    _refuse_state_growth(model, L, r)
    M, K = L.size, SPPS_ORDER
    top = float(np.max(np.abs(L), initial=0.0))
    n = max(1, math.ceil(r / _spps_piece(top) - 1e-9))
    ends = _state_levels(model, r, 1 << (n - 1).bit_length())
    P = ends.shape[-1]
    powers = L[:, None] ** np.arange(K + 1)
    dpowers = np.zeros_like(powers)
    dpowers[:, 1:] = powers[:, :-1] * np.arange(1, K + 1)
    T = (np.stack([powers, dpowers]) @ ends.reshape(K + 1, -1)).reshape(
        2, M, 3, 2, P)
    # the chain acts on (φ, φ', ∂φ/∂L, ∂φ'/∂L) by [[T, 0], [∂T/∂L, T]];
    # rows 2 and 5 of the product are the increments of Φ and ∂Φ/∂L
    dual = np.zeros((P, M, 6, 4), dtype=complex)
    dual[..., :3, :2] = T[0].transpose(3, 0, 1, 2)
    dual[..., 3:, :2] = T[1].transpose(3, 0, 1, 2)
    dual[..., 3:, 2:] = dual[..., :3, :2]
    z = np.zeros((M, 4, 1), dtype=complex)
    z[:, 0] = 1.0
    Phi = np.zeros((M, 2), dtype=complex)
    for j in range(P):
        y = dual[j] @ z
        Phi += y[:, [2, 5], 0]
        z = y[:, [0, 1, 3, 4]]
    u, v, p, q = z[..., 0].T
    return {"phi": u, "dphi_dr": v, "dphi_dL": p, "Phi": Phi[:, 0],
            "dPhi_dL": Phi[:, 1]}


def eigen_profile(model, L, r_points):
    """Radial profile of (φ, φ_r, Φ) for one complex L at the given radii.

    Used to hunt zeros in r at fixed λ.  r_points need not be sorted or
    distinct (_spps_rows, Φ from the flux levels, so L = 0 gives the ball
    volume).  Returns a dict of complex arrays keyed "phi", "dphi_dr" and
    "Phi", plus the radii as "r".  Raises PhiOverflowError when φ or Φ would
    leave double range.
    """
    r = np.asarray(r_points, dtype=float)
    if np.any(r < 0):
        raise ValueError("radii must be nonnegative")
    L = np.array([complex(L)])
    _refuse_state_growth(model, L, np.max(r, initial=0.0))
    u, v, Phi = (row[0] for row in _spps_rows(model, L, r, Phi=True))
    return {"r": r, "phi": u, "dphi_dr": v, "Phi": Phi}


# ---------------------------------------------------------------------------
# cached weighted sums for the transform machinery
# ---------------------------------------------------------------------------

def phi_basis(model, lams, r_points, weights):
    """Σ_i weights_i φ_{λ_j}(r_i), shape (len(lams),), cached.

    One weight per radius.  The contraction happens inside the series
    (phi_ode_values with weights), so no λ × r matrix is formed; the
    spherical transform asks for it, and the 2-3 transform calls that reuse
    a datum find its vector cached (one phi_ode_values call in total).  The
    cache is a thread-safe LRU capped at CACHE_BYTES; the values are
    computed outside its lock.  Returned arrays are shared between callers
    and read-only.  Rows of φ are not cached: phi_ode_values gives them.
    """
    lams = np.asarray(lams, dtype=float)
    r_points = np.asarray(r_points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    key = (model.key, lams.tobytes(), r_points.tobytes(), weights.tobytes())
    out = _CACHE.get(key)
    if out is None:
        out = phi_ode_values(model, lams, r_points, derivs=False,
                             weights=weights)
        out.flags.writeable = False
        out = _CACHE.put(key, out)
    return out
