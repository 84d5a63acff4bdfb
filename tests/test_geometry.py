"""Non-radial identities on the explicit 2D spaces."""

import numpy as np
import pytest

from harmonic import geometry


def _projector_convolution_loop(space, r, f, y_radii, quad_order):
    """Reference: the circle-by-circle form of projector_convolution_check."""
    x0 = space.origin
    circ = float(space.circumference(r))
    psi = geometry._angles(quad_order)

    def circle_mean(center, radius):
        pts = space.sphere_param(center, radius, psi)
        return np.mean(geometry._eval_points(f, pts))

    worst = 0.0
    for s in y_radii:
        ys = space.sphere_param(x0, s, psi)
        lhs = circ * np.mean([circle_mean(y, r) for y in ys])
        zs = space.sphere_param(space.sphere_param(x0, s, 0.0), r, psi)
        inner = [circle_mean(x0, float(space.distance(x0, z))) for z in zs]
        rhs = circ * np.mean(inner)
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("tag", ["plane", "h2"])
def test_projector_convolution_check_matches_circle_loop(tag):
    space = geometry.space_by_tag(tag)
    f = geometry.bump_patch(space, space.sphere_param(space.origin, 0.7, 0.4),
                            1.1)
    y_radii = np.array([0.3, 0.9, 1.6])
    got = geometry.projector_convolution_check(space, 0.8, f, y_radii=y_radii,
                                               quad_order=64)
    ref = _projector_convolution_loop(space, 0.8, f, y_radii, 64)
    # the batch sums the same terms in another order
    assert abs(got - ref) <= 1e-13


@pytest.mark.parametrize("tag", ["plane", "h2"])
def test_circle_means_equal_the_unblocked_mean(tag):
    space = geometry.space_by_tag(tag)
    psi = geometry._angles(256)
    # 2¹⁴ points are 64 circles of 256: three blocks, the last one ragged
    n = 150
    centers = space.sphere_param(space.origin, np.linspace(0.1, 1.0, n),
                                 np.linspace(0.0, 6.0, n))
    radii = np.linspace(0.2, 1.5, n)
    f = geometry.bump_patch(space, space.sphere_param(space.origin, 0.5, 1.0),
                            1.2)
    pts = space.sphere_param(centers[:, None, :], radii[:, None], psi)
    want = np.mean(geometry._eval_points(f, pts), axis=-1)
    got = geometry._circle_means(space, f, centers, radii, psi)
    assert got.shape == (n,)
    assert np.array_equal(got, want)
    # one centre broadcast against a stack of radii, as project uses it
    pts = space.sphere_param(space.origin, radii[:, None], psi)
    assert np.array_equal(
        geometry._circle_means(space, f, space.origin, radii, psi),
        np.mean(geometry._eval_points(f, pts), axis=-1))


@pytest.mark.parametrize("tag", ["plane", "h2"])
def test_circle_means_skip_only_circles_that_miss_the_ball(tag):
    space = geometry.space_by_tag(tag)
    psi = geometry._angles(256)
    c = space.sphere_param(space.origin, 0.7, 0.4)
    f = geometry.bump_patch(space, c, 1.1)
    assert np.array_equal(f.ball[0], c) and f.ball[1] == 1.1
    evaluated = []

    def counted(pts):
        evaluated.append(pts.shape[0])
        return f(pts)

    counted.ball = f.ball

    def hidden(pts):
        return f(pts)

    tangent = np.array([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12])
    cases = [
        # (distance of the centre from c, radii)
        (3.0, [0.5, 1.2]),                  # circles that miss the ball
        (2.0, [1.2, 2.5, 3.05]),            # circles that cross it
        (2.0, 0.9 + tangent),               # tangent from outside
        (0.5, 1.6 + tangent),               # tangent about it, enclosing
        (0.5, [2.5, 3.0, 0.3]),             # enclosing it, and inside it
        (0.0, [0.5, 2.0, 0.0]),             # concentric, and r = 0
        (0.0, 1.1 + tangent),               # concentric on its boundary
        (1.1, [0.0]),                       # r = 0 on the boundary
        (2.0, [0.0]),                       # r = 0 outside
    ]
    centers, radii = [], []
    for d, rs in cases:
        y = space.sphere_param(c, d, 2.1)
        centers += [y] * len(rs)
        radii += list(rs)
    centers, radii = np.array(centers), np.array(radii)
    got = geometry._circle_means(space, counted, centers, radii, psi)
    assert np.array_equal(
        got, geometry._circle_means(space, hidden, centers, radii, psi))
    assert 0 < sum(evaluated) < radii.size * psi.size
    assert np.any(got == 0.0) and np.any(got != 0.0)
    # one centre and a stack of radii
    evaluated.clear()
    radii = np.concatenate([[0.0, 0.3, 0.5, 1.1, 2.0, 3.5], 1.1 + tangent])
    for y in (c, space.origin):
        assert np.array_equal(
            geometry._circle_means(space, counted, y, radii, psi),
            geometry._circle_means(space, hidden, y, radii, psi))
    assert sum(evaluated) < 2 * radii.size * psi.size


def test_sphere_param_takes_a_stack_of_centres():
    space = geometry.make_hyperbolic_plane()
    centers = space.sphere_param(space.origin, np.array([0.5, 1.2]), 0.3)
    pts = space.sphere_param(centers[:, None, :], 0.7,
                             geometry._angles(64))
    for i, c in enumerate(centers):
        assert np.array_equal(pts[i], space.sphere_param(c, 0.7,
                                                         geometry._angles(64)))
    assert np.allclose(space.distance(centers[:, None, :], pts), 0.7,
                       atol=1e-12)


def _lorentz_reduction(u, v):
    return np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]


def _distance_reduction(space, x, y):
    """Reference: the reductions over the embedding axis."""
    if space.tag == "plane":
        return np.linalg.norm(x - y, axis=-1)
    q = _lorentz_reduction(x - y, x - y)
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))


def _sphere_param_reduction(space, x, r, phi):
    """Reference: circle charts by headings broadcast over the embedding
    axis, with the frame built from the reduced Lorentz product."""
    r = np.asarray(r, float)
    phi = np.asarray(phi, float)
    if space.tag == "plane":
        heading = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return x + r[..., None] * heading

    def proj(v):
        return v + _lorentz_reduction(v, x)[..., None] * x
    a = proj(np.array([0.0, 1.0, 0.0]))
    e1 = a / np.sqrt(_lorentz_reduction(a, a))[..., None]
    b = proj(np.array([0.0, 0.0, 1.0]))
    b = b - _lorentz_reduction(b, e1)[..., None] * e1
    e2 = b / np.sqrt(_lorentz_reduction(b, b))[..., None]
    heading = np.cos(phi)[..., None] * e1 + np.sin(phi)[..., None] * e2
    return np.cosh(r)[..., None] * x + np.sinh(r)[..., None] * heading


@pytest.mark.parametrize("tag", ["plane", "h2"])
def test_component_kernels_equal_the_reductions_bit_for_bit(tag):
    space = geometry.space_by_tag(tag)
    x0 = space.origin
    psi = geometry._angles(64)
    ys = space.sphere_param(x0, 1.3, psi)
    zs = space.sphere_param(ys[:1], 0.8, psi)
    # the (2, Q, Q, d) stack of projector_convolution_check: circles of
    # radius r about each y, and circles about x0 through each z
    centers = np.stack([ys, np.broadcast_to(x0, ys.shape)])
    radii = np.stack([np.full(psi.shape, 0.8), space.distance(x0, zs)])
    cases = [
        (centers[..., None, :], radii[..., None], psi),
        (x0, 0.7, 0.4),                                  # scalar r, φ
        (ys[5], np.array([0.2, 1.1, 2.5])[:, None], psi),  # broadcast
        (ys[:, None, :], 0.9, psi[:3]),                    # centre stack
    ]
    for x, r, phi in cases:
        got = space.sphere_param(x, r, phi)
        ref = _sphere_param_reduction(space, x, r, phi)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        for y in (x0, ys[7], x):
            assert np.array_equal(space.distance(y, got),
                                  _distance_reduction(space, y, got))
    assert np.array_equal(space.distance(ys[3], ys[11]),
                          _distance_reduction(space, ys[3], ys[11]))


def test_eval_points_refuses_a_per_point_function():
    space = geometry.make_plane()

    def per_point(p):
        return np.exp(p[0])

    with pytest.raises(ValueError, match=r"\(N, d\) stack"):
        geometry.project(space, per_point, np.array([0.5, 1.0]))


@pytest.mark.parametrize("tag", ["plane", "h2"])
def test_idempotence_check_equals_the_per_point_projection(tag):
    space = geometry.space_by_tag(tag)
    f = geometry.bump_patch(space, space.sphere_param(space.origin, 0.7, 0.4),
                            1.1)
    radii = np.linspace(0.1, 3.0, 12)

    def pf(pts):
        d = space.distance(space.origin, pts)
        return geometry.project(space, f, d.ravel()).reshape(d.shape)

    once = geometry.project(space, f, radii)
    twice = geometry.project(space, pf, radii)
    ref = float(np.max(np.abs(twice - once)))
    assert geometry.idempotence_check(space, f) == ref
