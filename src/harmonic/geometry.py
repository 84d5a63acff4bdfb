"""Explicit 2D spaces for exercising the non-radial operator identities.

Density models only see radial profiles, so identities involving genuinely
non-radial functions (the spherical projector π, sphere translation T_r, the
displacement rule for eigenfunctions) need a space with actual points and a
closed-form distance.  Two suffice: the Euclidean plane and the hyperbolic
plane.  Both are two-dimensional, so every sphere is a parameterized circle
and the trapezoid rule converges spectrally on smooth integrands.

Point conventions: plane points are (x, y) rows; hyperbolic points live on
the upper hyperboloid t² - x² - y² = 1 in Minkowski 3-space as (t, x, y)
rows.  The hyperbolic distance uses the difference-vector form
d = 2 asinh(|x - y|_L / 2), which stays accurate for nearby points where
arcosh of the Lorentz product loses half the digits.  The arithmetic runs
on the component arrays x[..., i]: a numpy reduction or broadcast over an
embedding axis of length 2 or 3 costs several times the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import make_euclidean, make_real_hyperbolic
from .grids import make_grid
from .profiles import smooth_bump
from .spherical import phi_ode_values

__all__ = [
    "ExplicitSpace",
    "make_plane",
    "make_hyperbolic_plane",
    "space_by_tag",
    "project",
    "bump_patch",
    "displacement_identity_check",
    "projector_convolution_check",
    "projector_selfadjoint_check",
    "idempotence_check",
]

MIN_QUAD_ORDER = 64
# points per circle of the projector π and of the checks' circle means
QUAD_ORDER = 256
# each identity's bound, in `geo-check` and the suite, on both spaces
BOUNDS = {"displacement_identity": 1e-8, "projector_commutes": 1e-6,
          "projector_selfadjoint": 1e-6, "projector_idempotent": 1e-10}


def _lorentz(u, v):
    return (u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]
            - u[..., 0] * v[..., 0])


def _frame(x):
    """Lorentz-orthonormal tangent bases at hyperboloid point(s) (..., 3)."""
    def proj(v):
        return v + _lorentz(v, x)[..., None] * x
    a = proj(np.array([0.0, 1.0, 0.0]))
    e1 = a / np.sqrt(_lorentz(a, a))[..., None]
    b = proj(np.array([0.0, 0.0, 1.0]))
    b = b - _lorentz(b, e1)[..., None] * e1
    e2 = b / np.sqrt(_lorentz(b, b))[..., None]
    return e1, e2


@dataclass(frozen=True)
class ExplicitSpace:
    """A 2D model geometry with closed-form distance and circle charts.

    density is the paired radial model (θ = r for the plane, θ = sinh r for
    the hyperbolic plane); circumference(r) must equal ω₁ θ(r), which the
    tests verify rather than assume.
    """

    tag: str
    density: object

    @property
    def origin(self):
        if self.tag == "plane":
            return np.zeros(2)
        return np.array([1.0, 0.0, 0.0])

    def distance(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        d0 = x[..., 0] - y[..., 0]
        d1 = x[..., 1] - y[..., 1]
        if self.tag == "plane":
            return np.sqrt(d0 * d0 + d1 * d1)
        d2 = x[..., 2] - y[..., 2]
        q = d1 * d1 + d2 * d2 - d0 * d0
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))

    def sphere_param(self, x, r, phi):
        """Point(s) on the geodesic circle(s) S_r(x) at angle(s) phi.

        x is a single point or a (..., d) stack of centres; the stack shape,
        r and phi broadcast against each other and the result has their
        common shape plus the embedding axis.
        """
        x = np.asarray(x, float)
        # r and phi are not broadcast up front: each trigonometric function
        # runs on its own argument's shape, once per distinct value
        r = np.asarray(r, float)
        phi = np.asarray(phi, float)
        cos, sin = np.cos(phi), np.sin(phi)
        if self.tag == "plane":
            return np.stack([x[..., 0] + r * cos, x[..., 1] + r * sin],
                            axis=-1)
        e1, e2 = _frame(x)
        cosh, sinh = np.cosh(r), np.sinh(r)
        return np.stack([cosh * x[..., i]
                         + sinh * (cos * e1[..., i] + sin * e2[..., i])
                         for i in range(3)], axis=-1)

    def circumference(self, r):
        r = np.asarray(r, float)
        if self.tag == "plane":
            return 2.0 * np.pi * r
        return 2.0 * np.pi * np.sinh(r)


def make_plane():
    return ExplicitSpace("plane", make_euclidean(1))


def make_hyperbolic_plane():
    return ExplicitSpace("hyperbolic_plane", make_real_hyperbolic(1))


def space_by_tag(tag):
    if tag in ("plane", "euclidean"):
        return make_plane()
    if tag in ("hyperbolic_plane", "h2"):
        return make_hyperbolic_plane()
    raise ValueError(f"unknown explicit space {tag!r}")


def _eval_points(f, pts):
    """Apply a vectorized point function to an (..., d) stack of points."""
    flat = pts.reshape(-1, pts.shape[-1])
    vals = np.asarray(f(flat), float)
    if vals.shape != (flat.shape[0],):
        raise ValueError(
            "f must map an (N, d) stack of points to N values; for "
            f"N = {flat.shape[0]} it returned shape {vals.shape}")
    return vals.reshape(pts.shape[:-1])


def _check_order(quad_order):
    if quad_order < MIN_QUAD_ORDER:
        raise ValueError(f"quad_order must be at least {MIN_QUAD_ORDER}")


def _angles(n):
    return np.arange(n) * (2.0 * np.pi / n)


def _circle_means(space, f, centers, radii, angles):
    """Means of f over the circles S_radii(centers) at the given angles.

    centers is a (..., d) stack of points (or one point) and radii broadcasts
    against its stack shape; the result has the common shape.  f is
    evaluated on whole circles of about 2¹⁴ points at a time, so the point
    stack of many circles is never built whole; each circle's points and
    mean are computed as for that circle alone.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    shape = np.broadcast_shapes(centers.shape[:-1], radii.shape)
    centers = np.broadcast_to(centers, shape + centers.shape[-1:]).reshape(
        -1, centers.shape[-1])
    radii = np.broadcast_to(radii, shape).ravel()
    out = np.empty(radii.size)
    step = max(1, 2**14 // angles.size)
    for lo in range(0, radii.size, step):
        s = slice(lo, lo + step)
        pts = space.sphere_param(centers[s, None, :], radii[s, None], angles)
        out[s] = np.mean(_eval_points(f, pts), axis=-1)
    return out.reshape(shape)


def project(space, f, radii):
    """Radial profile of the projector πf about the origin, at many radii."""
    return _circle_means(space, f, space.origin, radii, _angles(QUAD_ORDER))


def bump_patch(space, center, width):
    """Smooth compactly supported bump around an arbitrary point."""
    prof = smooth_bump(width)
    center = np.asarray(center, float)

    def f(pts):
        return prof.f(space.distance(center, pts))

    return f


def displacement_identity_check(space, lam, x, r_grid, quad_order=QUAD_ORDER):
    """sup_r | π((φ_λ)_x)(r) - φ_λ(d(x₀,x)) φ_λ(r) |.

    Averaging the displaced eigenfunction z ↦ φ_λ(d(x, z)) over circles
    about the origin must reproduce φ_λ(d(x₀,x)) φ_λ(r); one phi_ode_values
    call evaluates φ_λ at every distance this needs.
    """
    _check_order(quad_order)
    x = np.asarray(x, float)
    x0 = space.origin
    r_grid = np.asarray(r_grid, float)
    pts = space.sphere_param(x0, r_grid[:, None], _angles(quad_order)[None, :])
    dists = space.distance(x, pts)

    model = space.density
    d0 = float(space.distance(x0, x))
    block = np.concatenate([dists.ravel(), r_grid, [d0]])
    phis = phi_ode_values(model, [lam], block, derivs=False)[0][0]
    n = dists.size
    lhs = np.mean(phis[:n].reshape(dists.shape), axis=-1)
    rhs = phis[-1] * phis[n:n + r_grid.size]
    return float(np.max(np.abs(lhs - rhs)))


def projector_convolution_check(space, r, f, y_radii=None,
                                quad_order=QUAD_ORDER):
    """Residual of π(T_r * f) = T_r * (π f) along a ray from the origin.

    T_r * f is the unnormalized circle integral circumference(r) times the
    circle mean.  Both sides are radial about the origin (π f is radial,
    and T_r preserves radiality), so comparing at radii along one ray is
    comparing the full functions.
    """
    _check_order(quad_order)
    if y_radii is None:
        y_radii = np.linspace(0.2, 2.0, 10)
    y_radii = np.asarray(y_radii, float)
    x0 = space.origin
    circ = float(space.circumference(r))
    psi = _angles(quad_order)

    # left side: average T_r*f, the circle means of f about each y, over the
    # circle S_s(x0); right side: circle integral of πf over S_r(y) for the
    # one y on the ray (angle 0), where πf(z) is the mean of f over the
    # circle about x0 of radius d(x0, z).  Both sides need Q circle means per
    # radius s: one batch of (2, S, Q) circles of Q points serves both.
    ys = space.sphere_param(x0, y_radii[:, None], psi)
    zs = space.sphere_param(ys[:, :1], r, psi)
    centers = np.stack([ys, np.broadcast_to(x0, ys.shape)])
    radii = np.stack([np.full(ys.shape[:-1], float(r)),
                      space.distance(x0, zs)])
    lhs, rhs = circ * np.mean(_circle_means(space, f, centers, radii, psi),
                              axis=-1)
    return float(np.max(np.abs(lhs - rhs)))


def projector_selfadjoint_check(space, f, g, domain_radius):
    """| ⟨πf, g⟩ - ⟨f, πg⟩ | over the disk of the given radius.

    The area element in geodesic polar coordinates is θ(s) ds dφ, so each
    pairing reduces to a radial integral of (projector of one factor) times
    (circle mean of the other).  The projector deliberately uses a different
    angular rule than the pairing (offset nodes, 1.5 times the order): with
    shared nodes the two sides would be the same floating-point expression
    and the check would be vacuous.  Both f and g must be supported in the
    disk.
    """
    sgrid = make_grid(domain_radius, spacing=0.02)
    s = sgrid.nodes
    x0 = space.origin

    inner_order = QUAD_ORDER + QUAD_ORDER // 2
    outer = _angles(QUAD_ORDER)
    inner = _angles(inner_order) + np.pi / inner_order
    fbar, gbar, pf, pg = (_circle_means(space, h, x0, s, angles)
                          for h, angles in ((f, outer), (g, outer),
                                            (f, inner), (g, inner)))

    theta = space.density.theta(s)
    two_pi = 2.0 * np.pi
    lhs = two_pi * sgrid.integrate(pf * gbar * theta)
    rhs = two_pi * sgrid.integrate(fbar * pg * theta)
    return abs(lhs - rhs)


def idempotence_check(space, f):
    """max_r | π(πf)(r) - (πf)(r) | on r ∈ [0.1, 3]; π fixes the radial πf."""
    radii = np.linspace(0.1, 3.0, 12)

    def pf(pts):
        d = np.asarray(space.distance(space.origin, pts), float)
        # the points of one circle share their distance up to rounding, so
        # πf needs one projector row per distinct distance, not per point
        dist, where = np.unique(d.ravel(), return_inverse=True)
        return project(space, f, dist)[where].reshape(d.shape)

    once = project(space, f, radii)
    twice = project(space, pf, radii)
    return float(np.max(np.abs(twice - once)))
