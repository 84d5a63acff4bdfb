"""The outer search box when a zero lies within the boundary band.

boundary_winding refuses a box when a zero of multiplicity m lies within
about m/3 of a sample gap of an edge, on either side.  find_L_zeros then
moves the box outward; one move must clear the zero, even when it lies just
outside the requested box.
"""

import math

import pytest

from harmonic.density import make_euclidean
from harmonic.two_radius import WindingError, boundary_winding, find_L_zeros

E0 = make_euclidean(0)
R = 9.138
# cos(sqrt(-L) r) - 1: double zeros at L = -(2πk/r)²
MVP_ZEROS = [-(2 * math.pi * k / R) ** 2 for k in (1, 2, 3)]


@pytest.mark.parametrize("outside", [0.06, 0.12, 0.17])
def test_double_zero_just_outside_the_left_edge(outside):
    hi = 1 + 3j
    lo = complex(MVP_ZEROS[2] + outside, -3.0)
    with pytest.raises(WindingError, match="boundary") as err:
        boundary_winding(E0, R, "mvp", lo, hi)
    # the zero (distance over multiplicity) lies inside the refusal band
    assert outside / 2 < err.value.gap / 3
    zs = find_L_zeros(E0, R, "mvp", box=(lo, hi))
    assert zs.box[0].real < MVP_ZEROS[2] < lo.real
    assert zs.winding_total == 6
    assert [z.multiplicity for z in zs.zeros] == [2, 2, 2]
    got = sorted(z.L.real for z in zs.zeros)
    assert max(abs(a - b) for a, b in zip(got, MVP_ZEROS[::-1])) < 1e-6
