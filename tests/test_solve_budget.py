"""State-evaluation budgets of the zero searches.

eigen_state_at sums the piecewise series at one radius: its levels are
cached per (model, radius, piece count), so a call costs little more than
its batch rows.  eigen_profile sums the same series over the radii of a
profile.  The number of eigen_state_at / eigen_profile calls counts the
rounds of a search.  A simple zero is polished once from its box's Hankel
pencil, and a multiple zero keeps the pencil value from twice the samples
per edge; a search that needs more calls than these budgets has
regressed."""

import math

import pytest

from harmonic import two_radius
from harmonic.density import make_euclidean
from harmonic.two_radius import find_L_zeros, find_r_zeros

E0 = make_euclidean(0)


@pytest.fixture
def solves(monkeypatch):
    """Calls of the two state entry points the zero search uses."""
    calls = {"eigen_state_at": 0, "eigen_profile": 0}
    for name in calls:
        real = getattr(two_radius, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(two_radius, name, counted)
    return calls


def test_simple_zeros_budget(solves):
    # one winding, two Newton rounds and one residual batch: 4 solves
    zs = find_L_zeros(E0, 0.81, "sphere")
    assert len(zs.zeros) == 2
    assert solves["eigen_state_at"] <= 5
    assert solves["eigen_profile"] == 0


def test_double_zero_budget(solves):
    # one winding, its pencil again at twice the samples per edge (the box
    # holds a multiple zero), the pencil value's residual check and the
    # residual batch: 4 solves, no Newton step; the pencil value is 7.8e-16
    # off
    zs = find_L_zeros(E0, 2 * math.pi, "mvp", box=(-3 - 3j, 1 + 3j))
    assert [z.multiplicity for z in zs.zeros] == [2]
    assert abs(zs.zeros[0].L + 1.0) < 1e-13
    assert solves["eigen_state_at"] <= 4
    assert solves["eigen_profile"] == 0


def test_r_zeros_budget(solves):
    # one scan and one exact acceptance profile; Newton runs on the scan's
    # quintic interpolant
    zeros = find_r_zeros(E0, -(math.pi / 2) ** 2, 10.0)
    assert len(zeros) == 5
    assert solves["eigen_state_at"] == 0
    assert solves["eigen_profile"] <= 2
