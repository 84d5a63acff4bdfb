"""The quick battery's two-radius checks (criterion 8) pass in tier-1.

They exercise the L-plane zero search end to end: bad radii on the line,
a rejected rational pair with its witness, an accepted irrational pair and
the cosine mean-value counterexample.
"""

import pytest

from harmonic import suite

CRITERION_8 = [c for c in suite.registered_checks(quick=True)
               if c.criterion == 8]


def test_quick_criterion_8_roster():
    assert [c.name for c in CRITERION_8] == [
        "bad_radii_odd_odd", "certify_reject_1_3", "certify_accept_1_sqrt2",
        "mvp_cosine_counterexample"]


@pytest.mark.parametrize("check", CRITERION_8, ids=lambda c: c.name)
def test_quick_criterion_8_check_passes(check):
    res = suite._run_one(check, {"seed": suite.DEFAULT_SEED, "quick": True})
    assert res.passed, res.detail
