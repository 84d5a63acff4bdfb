"""The quick battery passes in tier-1.

The criterion-8 checks exercise the L-plane zero search end to end: bad
radii on the line, a rejected rational pair with its witness, an accepted
irrational pair and the cosine mean-value counterexample.  The other quick
checks guard every measured value of the series, transform, PDE, growth and
geometry layers.
"""

import pytest

from harmonic import suite

QUICK = suite.registered_checks(quick=True)
CRITERION_8 = [c for c in QUICK if c.criterion == 8]
OTHER_QUICK = [c for c in QUICK if c.criterion != 8]


def _passes(check):
    res = suite._run_one(check, {"seed": suite.DEFAULT_SEED, "quick": True})
    assert res.passed, res.detail


def test_quick_criterion_8_roster():
    assert [c.name for c in CRITERION_8] == [
        "bad_radii_odd_odd", "certify_reject_1_3", "certify_accept_1_sqrt2",
        "mvp_cosine_counterexample"]


@pytest.mark.parametrize("check", CRITERION_8, ids=lambda c: c.name)
def test_quick_criterion_8_check_passes(check):
    _passes(check)


@pytest.mark.parametrize("check", OTHER_QUICK, ids=lambda c: c.name)
def test_quick_check_passes(check):
    _passes(check)


def test_smooth_bump_roundtrip_h3_passes():
    # a full-suite check: smooth_bump(1.3) on H³ round-trips to 1e-7
    (check,) = [c for c in suite.registered_checks()
                if c.name == "abel_roundtrip_smooth_h3"]
    _passes(check)


def test_dr21_oracle_fails_when_its_double_precision_sums_drift(monkeypatch):
    # the oracle sums in mpmath.fp and is certified against working
    # precision; a drift of 1e-12 at the certified radii fails the check
    import mpmath
    fp_hyp2f1 = mpmath.fp.hyp2f1
    monkeypatch.setattr(mpmath.fp, "hyp2f1",
                        lambda *a: fp_hyp2f1(*a) * (1.0 + 1e-12))
    (check,) = [c for c in QUICK if c.name == "phi_oracle_dr21_lam_0.5"]
    res = suite._run_one(check, {"seed": suite.DEFAULT_SEED, "quick": True})
    assert not res.passed
    assert "working precision" in res.detail
