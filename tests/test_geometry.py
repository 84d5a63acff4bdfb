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
