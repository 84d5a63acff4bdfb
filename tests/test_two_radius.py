"""Zero sets of the averaged eigenfunctions and two-radius certificates.

The line model makes everything explicit: sphere averages are cos(sqrt(-L) r),
so L-zeros and r-zeros sit at odd multiples of pi/2 and the mean value
property fails exactly off the 2*pi lattice.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
import sympy as sp
from scipy.optimize import brentq

from harmonic import two_radius
from harmonic.density import (make_damek_ricci, make_euclidean,
                              make_real_hyperbolic)
from harmonic.spherical import eigen_profile
from harmonic.two_radius import (WindingError, bad_radii, certify_pair,
                                 find_L_zeros, find_r_zeros,
                                 mvp_counterexample_demo)

E0 = make_euclidean(0)
E2 = make_euclidean(2)
H2 = make_real_hyperbolic(2)
DEFAULT_BOX = two_radius.DEFAULT_BOX


def _tan_root(k, c):
    """k-th positive root of tan x = c x, which lies in (kπ, (k + 1/2)π)."""
    return brentq(lambda x: math.sin(x) - c * x * math.cos(x),
                  k * math.pi, (k + 0.5) * math.pi, xtol=1e-15)


def _closed_form_zeros(model, target, r, re_min):
    """L-zeros ≥ re_min of φ_L(r) (sphere) or Φ_L(r) (ball), all simple.

    φ is cos(λr) on the line, sin(λr)/(λr) on R³ and sin(λr)/(λ sinh r) on
    H³; Φ = ∫ θ φ is sin(λr)/λ, vanishes where tan(λr) = λr, and where
    tan(λr) = λ tanh r.  L = -(λ² + H²/4) with H = 0, 0, 2.
    """
    H = 2.0 if model is H2 else 0.0
    out = []
    for j in range(1000):
        if target == "sphere":
            lam = (j + (0.5 if model is E0 else 1.0)) * math.pi / r
        elif model is E0:
            lam = (j + 1) * math.pi / r
        else:
            c = 1.0 if model is E2 else math.tanh(r) / r
            lam = _tan_root(j + 1, c) / r
        L = -(lam * lam + H * H / 4)
        if L < re_min:
            return sorted(out)
        out.append(L)


def test_line_sphere_zeros_closed_form():
    zs = find_L_zeros(E0, 1.0, target="sphere", box=(-30 - 5j, 5 + 5j))
    got = np.sort(zs.values().real)
    expect = -np.array([1.5 * math.pi, 0.5 * math.pi]) ** 2
    assert zs.winding_total == 2
    assert len(zs.zeros) == 2
    assert np.max(np.abs(got - np.sort(expect))) < 1e-10
    for z in zs.zeros:
        assert z.multiplicity == 1
        assert z.residual < 1e-10
        assert abs(z.L.imag) < 1e-10


@pytest.mark.parametrize("r", [0.9, 1.1])
@pytest.mark.parametrize("target", ["sphere", "ball"])
@pytest.mark.parametrize("model", [E0, E2, H2], ids=["E0", "E2", "H2"])
def test_zeros_match_closed_forms(model, target, r):
    zs = find_L_zeros(model, r, target=target, box=DEFAULT_BOX)
    expect = _closed_form_zeros(model, target, r, DEFAULT_BOX[0].real)
    got = np.sort(zs.values().real)
    assert zs.winding_total == len(expect) == len(zs.zeros)
    assert np.max(np.abs(got - expect) / (1 + np.abs(expect))) < 1e-10
    for z in zs.zeros:
        assert z.multiplicity == 1
        assert z.residual < 1e-9
        assert abs(z.L.imag) < 1e-10


def test_many_zeros_in_one_box_are_split_apart():
    # seven distinct zeros are as many as one pencil takes; at the winding's
    # 38 samples per edge their ν read 0.45 off integers, so the box is
    # solved from twice the samples or, failing that, split
    zs = find_L_zeros(E0, 3.0, box=DEFAULT_BOX)
    expect = -(np.arange(1, 15, 2) * math.pi / 6) ** 2
    assert zs.winding_total == 7
    assert np.max(np.abs(np.sort(zs.values().real) - np.sort(expect))) < 1e-9
    assert all(z.multiplicity == 1 for z in zs.zeros)


def test_mean_value_zeros_are_double():
    # cos(sqrt(-L) r) - 1 has double zeros at the 2*pi lattice; the searched
    # target (cos(sqrt(-L) r) - 1)/L has no zero at L = 0.
    zs = find_L_zeros(E0, 1.0, target="mvp", box=(-50 - 5j, 5 + 5j))
    assert zs.winding_total == 2
    assert len(zs.zeros) == 1
    z = zs.zeros[0]
    assert z.multiplicity == 2
    # a double zero keeps its pencil value, 1.4e-14 off
    assert abs(z.L - (-4 * math.pi**2)) < 1.4e-12
    assert all(abs(z.L) > 1.0 for z in zs.zeros)


@pytest.mark.parametrize("box, expect", [
    ((-3 - 3j, 1e-7 + 3j), [-1.0]),
    ((-45 - 3j, -1e-9 + 1j), [-36.0, -25.0, -16.0, -9.0, -4.0, -1.0])],
    ids=["edge_right_of_0", "edge_left_of_0"])
def test_mvp_box_with_an_edge_next_to_the_origin_is_searched_as_requested(
        box, expect):
    # at r = 2π the target (cos(2π sqrt(-L)) - 1)/L has double zeros at
    # L = -k² and equals r²/2 at L = 0, so an edge there is no zero's edge
    zs = find_L_zeros(E0, 2 * math.pi, target="mvp", box=box)
    assert zs.box == box
    assert zs.winding_total == 2 * len(expect)
    assert [z.multiplicity for z in zs.zeros] == [2] * len(expect)
    # pencil values of the double zeros: 2.6e-15 and 5.7e-14 off
    assert np.max(np.abs(np.sort(zs.values().real) - expect)) < 5.7e-12
    t, _ = two_radius._target_values(E0, [1e-9, 1e-9j], 2 * math.pi, "mvp")
    assert np.allclose(t, 2 * math.pi**2, rtol=1e-6)


def _polynomial_pencil(roots, n_side):
    """Winding and pencil of the box (-2, 2) × (-1.5, 1.5)i on exact samples
    of the polynomial with these roots and of its derivative."""
    lo, hi = -2 - 1.5j, 2 + 1.5j
    coef = P.polyfromroots(roots)
    pts, wts = two_radius._box_path(lo, hi, n_side)
    t, dt = P.polyval(pts, coef), P.polyval(pts, P.polyder(coef))
    w = two_radius._winding_of_samples(t)
    return (w, *two_radius._hankel_pencil(pts, wts, t, dt, len(roots),
                                           lo, hi))


def test_pencil_of_a_polynomial_gives_its_zeros_and_multiplicities():
    # (L - a)²(L - b)(L - c): rank 3 and ν = (2, 1, 1), no ODE involved
    a, b, c = 0.3 + 0.2j, -1.1 + 0.5j, 0.9 - 0.7j
    w, zeros, nu = _polynomial_pencil([a, a, b, c], 32)
    assert w == 4 and zeros.size == 3
    order = [int(np.argmin(np.abs(zeros - v))) for v in (a, b, c)]
    assert np.max(np.abs(zeros[order] - [a, b, c])) < 1e-12
    assert np.max(np.abs(nu[order] - [2, 1, 1])) < 1e-9
    assert list(two_radius._multiplicities(nu[order])) == [2, 1, 1]


def test_pencil_with_too_few_samples_for_the_box_is_rejected():
    # b lies 0.15 below the top edge: at 24 samples per edge the winding
    # settles, yet ν is 0.013 off integers; twice the samples resolve it
    a, b, c = 0.3 + 0.2j, -1.1 + 1.35j, 0.9 - 0.7j
    w, zeros, nu = _polynomial_pencil([a, a, b, c], 24)
    assert w == 4
    assert np.max(np.abs(nu - np.rint(nu.real))) > 5 * two_radius.NU_TOL
    assert two_radius._multiplicities(nu) is None
    w, zeros, nu = _polynomial_pencil([a, a, b, c], 48)
    assert sorted(two_radius._multiplicities(nu)) == [1, 1, 2]


def test_simple_zeros_closer_than_the_rank_cut_are_not_a_double_zero(
        monkeypatch):
    # a and a + 1e-4 are simple zeros; in the test box (δ/ρ)² = 1.6e-9 is
    # below RANK_TOL, so the pencil merges them into one zero at their
    # centroid with ν = 2, as it would a double zero
    a, b, c = 0.3 + 0.2j, -1.1 + 0.5j, 0.9 - 0.7j
    roots = [a, a + 1e-4, b, c]
    w, zeros, nu = _polynomial_pencil(roots, 32)
    assert w == 4 and zeros.size == 3
    k = int(np.argmin(np.abs(zeros - a)))
    assert abs(zeros[k] - (a + 0.5e-4)) < 1e-8  # δ², the rank cut's error
    assert abs(nu[k] - 2) < two_radius.NU_TOL
    # |t| there is about 4e-9, above zero_tol: the merged zero is rejected
    # and the search splits the box until the pencil tells the pair apart
    coef = P.polyfromroots(roots)
    dcoef = P.polyder(coef)

    def polynomial(model, L, r, target):
        L = np.asarray(L, dtype=complex)
        return P.polyval(L, coef), P.polyval(L, dcoef)

    monkeypatch.setattr(two_radius, "_target_values", polynomial)
    zs = find_L_zeros(None, 1.0, box=(-2 - 1.5j, 2 + 1.5j))
    assert zs.winding_total == 4
    assert [z.multiplicity for z in zs.zeros] == [1, 1, 1, 1]
    assert np.max(np.abs(zs.values() - [b, a, a + 1e-4, c])) < 1e-12


def test_newton_starts_on_both_sides_of_a_double_zero_do_not_converge():
    # a pencil that split the double zero L = -1 (r = 2π, mvp) would start
    # two simple Newton iterates about it: both head for the one zero and
    # leave their quarter-separation reach, so neither counts as converged
    starts = [-1 - 1e-4, -1 + 1e-4]
    _, _, conv = two_radius._newton_polish(
        E0, 2 * math.pi, "mvp", starts, np.full(2, 0.5e-4))
    assert not conv.any()
    # with no reach, an iterate converges within the zero's noise of -1
    points, _, conv = two_radius._newton_polish(
        E0, 2 * math.pi, "mvp", starts, np.full(2, np.inf))
    assert conv.any() and np.max(np.abs(points[conv] + 1)) < 1e-6


def test_mvp_sample_on_the_origin_nudges_the_box_without_warnings():
    # 35 nodes per edge put the top edge's midpoint on L = 0 exactly, where
    # (φ - 1)/L is 0/0; that sample is refused and the box nudged
    box = (-0.05 - 1j, 0.05 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t, _ = two_radius._target_values(E0, [0j], 20.0, "mvp")
        zs = find_L_zeros(E0, 20.0, target="mvp", box=box)
    assert np.isnan(t[0])
    assert zs.box != box and zs.box[0].real < -0.05 and zs.box[1].real > 0.05
    assert zs.winding_total == 0 and zs.zeros == []


@pytest.mark.parametrize("model, expr", [
    (make_euclidean(1), "r"), (E2, "r**2"),
    (make_real_hyperbolic(1), "sinh(r)"), (H2, "sinh(r)**2"),
    (make_damek_ricci(2, 1), "8*sinh(r/2)**3*cosh(r/2)")],
    ids=["E1", "E2", "H2", "H3", "DR21"])
def test_ball_second_derivative_is_theta_prime_phi_plus_theta_phi_prime(
        model, expr):
    # Φ'' = θ'φ + θφ', with θ' from sympy; at r = 0 it is θ'(0), which is 1
    # for n = 1 (E1, H2) and 0 otherwise
    r = sp.Symbol("r", positive=True)
    theta_prime = sp.lambdify(r, sp.diff(sp.sympify(expr, locals={"r": r}),
                                         r), "numpy")
    radii = np.array([0.0, 1e-3, 0.4, 1.3, 3.7])
    L = -7.5 + 2.0j
    prof = eigen_profile(model, L, radii)
    _, _, ddh = two_radius._profile_target(model, L, radii, "ball")
    a = np.broadcast_to(theta_prime(radii), radii.shape) * prof["phi"]
    b = model.theta(radii) * prof["dphi_dr"]
    assert ddh[0] == (1.0 if model.n == 1 else 0.0)
    assert np.all(np.abs(ddh - (a + b)) <= 1e-14 * (np.abs(a) + np.abs(b)))


def test_find_L_zeros_box_guard():
    with pytest.raises(ValueError, match="componentwise"):
        find_L_zeros(E0, 1.0, box=(5 + 8j, -60 - 8j))
    with pytest.raises(ValueError, match="target"):
        find_L_zeros(E0, 1.0, target="disk")


def test_find_L_zeros_refuses_a_box_with_too_many_zeros(monkeypatch):
    # the default box holds 7 zeros of cos(3 sqrt(-L))
    monkeypatch.setattr(two_radius, "MAX_ZEROS", 1)
    with pytest.raises(WindingError, match="7 zeros .* smaller box"):
        find_L_zeros(E0, 3.0)


def test_find_L_zeros_at_r_10_finds_the_closed_forms():
    # |t| spans e^{±r·sqrt|L|} along the default box, so a boundary sample
    # is judged a zero on its neighbours' scale; on the largest |t| of the
    # whole boundary (2.3e11), 20 samples of the first winding were zeros
    zs = find_L_zeros(E0, 10.0)
    expect = _closed_form_zeros(E0, "sphere", 10.0, DEFAULT_BOX[0].real)
    got = np.sort(zs.values().real)
    assert len(expect) == len(zs.zeros) == 25
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-12
    assert max(abs(z.L.imag) for z in zs.zeros) < 1e-10


def test_find_r_zeros_odd_integers():
    L = -(math.pi / 2) ** 2
    zeros = find_r_zeros(E0, L, 10.0)
    assert np.max(np.abs(np.asarray(zeros) - [1, 3, 5, 7, 9])) < 1e-10


def test_far_ball_zeros_are_judged_on_the_local_scale(monkeypatch):
    # Φ_L on H³ grows like e^r between its zeros: about 1.6e5 near r = 19.8,
    # where a zero located to 1e-15 in r still leaves |Φ| near 1e-8.  Every
    # sign change of a dense scan is returned, each from its own bracket,
    # and the far ones pass through the exact Newton step (a third profile)
    calls = []
    profile = two_radius._profile_target

    def counted(*args):
        calls.append(1)
        return profile(*args)

    monkeypatch.setattr(two_radius, "_profile_target", counted)
    got = np.array(bad_radii(H2, 0.73, "ball", r_max=20.0))
    assert len(calls) == 3
    (L,) = find_L_zeros(H2, 0.73, target="ball").values()
    r = np.linspace(0.0, 20.0, 20012)
    Phi = eigen_profile(H2, L, r)["Phi"].real
    i = np.flatnonzero((Phi[:-1] * Phi[1:] < 0) & (r[1:] > two_radius.R_MIN))
    assert len(got) == i.size == 38
    assert np.all((r[i] < got) & (got < r[i + 1]))


def test_find_r_zeros_radius_guard():
    with pytest.raises(ValueError, match="at most 50"):
        find_r_zeros(E0, -1.0, 60.0)


def test_bad_radii_line_are_odd_rationals():
    got = bad_radii(E0, 1.0)
    # default box reaches L = -60, i.e. denominators 1 and 3
    oracle = sorted({Fraction(2 * a + 1, 2 * b + 1)
                     for b in (0, 1) for a in range(0, 15)
                     if Fraction(2 * a + 1, 2 * b + 1) <= 10})
    assert len(got) == len(oracle)
    assert np.max(np.abs(np.asarray(got) - [float(q) for q in oracle])) < 1e-9


def test_bad_radii_generic_r1_are_complete():
    # at a generic r1 the r-zeros fall between profile samples; none may be
    # dropped
    r1 = 0.8152320701691138
    # L-zeros -((2a+1)π/2r1)² in the box; each is an r-zero at r1(2b+1)/(2a+1)
    odd_a = [2 * a + 1 for a in range(20)
             if ((2 * a + 1) * math.pi / (2 * r1)) ** 2 <= -DEFAULT_BOX[0].real]
    oracle = [r1 * float(f) for f in sorted(
        {Fraction(2 * b + 1, q) for q in odd_a for b in range(100)})
        if r1 * f <= 10.0]
    got = bad_radii(E0, r1, box=DEFAULT_BOX)
    assert len(got) == len(oracle) == 18
    assert np.max(np.abs(np.asarray(got) - oracle)) < 1e-9


def test_bad_radii_merges_radii_closer_than_the_separation(monkeypatch):
    # a double r-zero is located only to about 2e-8, so two L-zeros can
    # return the same radius that far apart; find_r_zeros treats r-zeros
    # closer than SEPARATION as one, and so does bad_radii
    shifts = iter([0.0, 2e-8])

    def r_zeros(model, L, r_max, target, zero_tol):
        return [2 * math.pi + next(shifts)]

    monkeypatch.setattr(two_radius, "find_r_zeros", r_zeros)
    got = bad_radii(E0, 1.0, box=(-30 - 8j, 5 + 8j))
    assert got == [2 * math.pi]


def test_bad_radii_lists_r1_once():
    # r1 is an r-zero of both L-zeros of cos(sqrt(-L)) in the box, and the
    # two profiles place it at 1.0 and 1.0000000000000002
    got = bad_radii(E0, 1.0, box=(-30 - 2j, 2 + 2j), r_max=3.0)
    assert len(got) == 5
    assert np.max(np.abs(np.asarray(got) - [1 / 3, 1, 5 / 3, 7 / 3, 3])) \
        < 1e-12


def test_bad_radii_passes_its_zero_tol_on(monkeypatch):
    seen = []
    r_zeros = two_radius.find_r_zeros

    def spy(*args, zero_tol, **kwargs):
        seen.append(zero_tol)
        return r_zeros(*args, zero_tol=zero_tol, **kwargs)

    monkeypatch.setattr(two_radius, "find_r_zeros", spy)
    assert bad_radii(E0, 1.0, box=(-12 - 2j, 2 + 2j), r_max=3.0,
                     zero_tol=1e-12)
    assert seen and set(seen) == {1e-12}


def test_bad_radii_refuses_r_max_before_it_searches(monkeypatch):
    calls = []
    state_at = two_radius.eigen_state_at

    def counted(*args, **kwargs):
        calls.append(args)
        return state_at(*args, **kwargs)

    monkeypatch.setattr(two_radius, "eigen_state_at", counted)
    with pytest.raises(ValueError, match="--rmax = 60 must be at most 50"):
        bad_radii(E0, 20.0, r_max=60.0)
    assert calls == []


def test_certify_with_one_empty_zero_set():
    # E0's sphere target at r is cos(√-L r): L-zeros -((2a+1)π/2r)², of
    # which r = 0.2 has none above -12; the least joint residual is then
    # |cos(√-L r2)| at r1's single zero -(π/2)², i.e. cos(π/10)
    cert = certify_pair(E0, 1.0, 0.2, box=(-12 - 2j, 2 + 2j))
    assert cert.verdict == "no-common-zero-in-box"
    assert cert.common == [] and cert.witness is None
    assert cert.min_joint_residual == pytest.approx(math.cos(math.pi / 10),
                                                    rel=1e-12)


def test_certify_rejects_odd_ratio():
    cert = certify_pair(E0, 1.0, 3.0, box=(-30 - 8j, 5 + 8j))
    assert cert.verdict == "common-zero-found"
    assert abs(cert.witness - (-(math.pi / 2) ** 2)) < 1e-9
    assert cert.min_joint_residual < 1e-9
    assert any(abs(z - (-(math.pi / 2) ** 2)) < 1e-9 for z in cert.common)
    assert "box" in cert.note


def test_certify_accepts_irrational_ratio():
    cert = certify_pair(E0, 1.0, math.sqrt(2))
    assert cert.verdict == "no-common-zero-in-box"
    assert cert.witness is None
    assert cert.common == []
    # the closest near-coincidence stays far from an actual common zero
    assert cert.min_joint_residual > 0.1


def test_certify_solve_budget(monkeypatch):
    # Newton iterates are polished in lock-step batches, one ODE solve per
    # round for all of them; one solve per iterate needs 174 for this pair
    calls = []
    state_at = two_radius.eigen_state_at

    def counted(*args, **kwargs):
        calls.append(1)
        return state_at(*args, **kwargs)

    monkeypatch.setattr(two_radius, "eigen_state_at", counted)
    cert = certify_pair(E0, 1.0, math.sqrt(2))
    assert cert.verdict == "no-common-zero-in-box"
    assert len(calls) <= 40


def test_mean_value_counterexample_demo():
    demo = mvp_counterexample_demo()
    # the punchline: the mean value property at one radius does not force
    # harmonicity
    assert not demo["cos_is_harmonic"]
    assert demo["mvp_holds_at_2pi"]
    assert demo["mvp_fails_at_pi"]
    assert demo["residual_2pi"] < 1e-13
    assert demo["residual_linear"] < 1e-12
    assert demo["residual_pi"] > 1.0


def test_demo_is_deterministic():
    a = mvp_counterexample_demo(seed=7)
    b = mvp_counterexample_demo(seed=7)
    assert a == b
