"""Two-radius theorems: zero sets in the L-plane and radius certification.

φ_λ(r) depends on λ only through L = -(λ² + H²/4) and is entire in L, so
zero hunting happens in the L-plane: each zero appears once instead of as a
±λ pair.  Three target functions matter:

    sphere   φ_L(r)        (sphere integrals of eigenfunctions)
    mvp      φ_L(r) - 1    (sphere mean value property)
    ball     Φ_L(r)        (ball integrals; Φ = ∫ θ φ)

A pair of radii certifies the corresponding two-radius theorem when the two
zero sets share no point.  Zeros are counted by the argument principle on
box boundaries.  The ODE state carries dφ/dL and dΦ/dL, so the same boundary
samples also give the contour moments s_p = (1/2πi) ∮ L^p t'/t dL, the power
sums of the zeros inside (Delves & Lyness, Math. Comp. 21, 1967).  For a box
holding w ≤ 4 zeros, Newton's identities turn s_1..s_w into a polynomial
whose roots seed Newton, and s_1/w is the zeros' centroid.  The moments are
trapezoid estimates, so seeds only start Newton.  All seeds of a box are
polished together in one lock-step batch (one ODE solve per round) under two
hypotheses: w distinct simple zeros, or one zero of multiplicity w at the
centroid.  A box where neither is verified is split in two and each half is
searched the same way.  Certificates are explicitly box-relative: the
theorems quantify over all of ℂ, a search cannot.

The mvp target vanishes identically at L = 0 (φ ≡ 1 there) for every
radius; that zero is the harmonic case the theorem excludes, so a punctured
disk |L| ≤ 1e-6 is removed from every mvp count.  Its winding is measured on
a circle sampled in the same ODE batch as the enclosing box boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spherical import eigen_profile, eigen_state_at

TARGETS = ("sphere", "mvp", "ball")
MVP_PUNCTURE = 1e-6
DEFAULT_ZERO_TOL = 1e-9
SEPARATION = 1e-6
# relative radius within which found zeros are one (noisy multiple) zero
CLUSTER = 1e-5
# boxes with at most this many zeros are solved from their moment seeds
MAX_SEEDED = 4

# split fractions tried when a subdivision line lands on a zero
_SPLIT_FRACTIONS = (0.5, 0.45, 0.57, 0.37, 0.63, 0.41, 0.55)


class WindingError(RuntimeError):
    """Boundary winding could not be stabilized."""


@dataclass(frozen=True)
class LZero:
    L: complex
    multiplicity: int
    residual: float


@dataclass
class ZeroSet:
    model: object
    target: str
    radius: float
    box: tuple[complex, complex]
    zeros: list[LZero]
    winding_total: int
    info: dict = field(default_factory=dict)

    def values(self):
        return np.array([z.L for z in self.zeros])


@dataclass
class RadiusCertificate:
    model: object
    variant: str
    r1: float
    r2: float
    box: tuple[complex, complex]
    verdict: str
    witness: complex | None
    min_joint_residual: float
    common: list[complex]
    note: str = "certificate is box-relative: only the searched region is covered"


def _check_target(target):
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")


def _target_values(model, L_values, r, target):
    """(t(L), dt/dL) arrays for the chosen target at radius r."""
    st = eigen_state_at(model, np.asarray(L_values, dtype=complex), r)
    if target == "ball":
        return st["Phi"], st["dPhi_dL"]
    vals = st["phi"] - 1.0 if target == "mvp" else st["phi"]
    return vals, st["dphi_dL"]


# ---------------------------------------------------------------------------
# argument-principle counting and contour moments
# ---------------------------------------------------------------------------

def _box_path(lo, hi, n_side):
    """Counterclockwise boundary samples, n_side per edge, closed implicitly."""
    c = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
    edges = []
    for a, b in zip(c, c[1:] + c[:1]):
        edges.append(a + (b - a) * np.arange(n_side) / n_side)
    return np.concatenate(edges)


def _circle_path(center, radius, n):
    ang = 2 * np.pi * np.arange(n) / n
    return center + radius * np.exp(1j * ang)


def _winding_of_samples(t):
    """Winding number of a closed sample loop; None if sampling is too coarse."""
    ratios = np.roll(t, -1) / t
    steps = np.angle(ratios)
    if np.max(np.abs(steps)) > 0.45 * math.pi:
        return None, 0.0
    total = float(np.sum(steps)) / (2 * math.pi)
    w = round(total)
    if abs(total - w) > 0.05:
        return None, total
    return w, total


def _box_contains(lo, hi, z, pad=0.0):
    return (lo.real - pad <= z.real <= hi.real + pad
            and lo.imag - pad <= z.imag <= hi.imag + pad)


@dataclass(frozen=True)
class BoxCount:
    """Zeros inside a box: their number and Newton starts from the moments.

    `seeds` holds one estimate per zero when 1 ≤ winding ≤ MAX_SEEDED (empty
    otherwise); `centroid` is their mean (the box center when there are
    none).  Both carry the O(h²) error of trapezoid moments.
    """
    winding: int
    seeds: np.ndarray
    centroid: complex


def _moment_seeds(pts, t, dt, w, lo, hi, origin_w):
    """Seeds and centroid of the w zeros in [lo, hi] from boundary moments.

    Power sums s_p = (1/2πi) ∮ u^p t'/t dL in the box-scaled variable
    u = (L - c)/ρ, by the trapezoid rule on the closed sample polygon; the
    punctured mvp origin (origin_w zeros at L = 0) is subtracted.  Newton's
    identities give the elementary symmetric functions, whose polynomial
    has the w zeros as roots.
    """
    c = (lo + hi) / 2
    if w <= 0:
        return BoxCount(w, np.zeros(0, dtype=complex), c)
    rho = abs(hi - lo) / 2
    u = (pts - c) / rho
    weight = (np.roll(pts, -1) - np.roll(pts, 1)) / 2
    f = weight * dt / t / (2j * math.pi)
    u0 = -c / rho
    s = [complex(np.sum(f * u ** p)) - origin_w * u0 ** p
         for p in range(1, (w if w <= MAX_SEEDED else 1) + 1)]
    centroid = c + rho * s[0] / w
    if w > MAX_SEEDED:
        return BoxCount(w, np.zeros(0, dtype=complex), centroid)
    e = [1.0]
    for n in range(1, w + 1):
        e.append(sum((-1) ** (i - 1) * e[n - i] * s[i - 1]
                     for i in range(1, n + 1)) / n)
    roots = np.roots([(-1) ** n * e[n] for n in range(w + 1)])
    return BoxCount(w, c + rho * roots, centroid)


def boundary_winding(model, r, target, lo, hi, n_side=None, zero_floor=1e-11):
    """Argument-principle zero count inside the box [lo, hi], with seeds.

    For mvp, when the box encloses L = 0, the winding of the puncture circle
    |L| = MVP_PUNCTURE is measured in the same ODE batch and subtracted.
    Returns a BoxCount.  Raises WindingError when a boundary sample sits on
    (numerically) a zero or the phase refuses to stabilize; callers nudge the
    box and retry.
    """
    _check_target(target)
    if n_side is None:
        scale = max(abs(lo), abs(hi))
        n_side = int(max(32, 0.7 * r * math.sqrt(scale) + 8))
    n_circle = 64 if target == "mvp" and _box_contains(lo, hi, 0j) else 0
    while True:
        pts = _box_path(lo, hi, n_side)
        circle = _circle_path(0.0, MVP_PUNCTURE, n_circle)
        t_all, dt_all = _target_values(model, np.concatenate([pts, circle]),
                                       r, target)
        t, dt = t_all[:pts.size], dt_all[:pts.size]
        if np.min(np.abs(t)) < zero_floor * max(1.0, float(np.max(np.abs(t)))):
            raise WindingError("boundary sample hits a zero")
        w, _ = _winding_of_samples(t)
        w0 = 0
        if n_circle:
            w0, _ = _winding_of_samples(t_all[pts.size:])
        if w is not None and w0 is not None:
            return _moment_seeds(pts, t, dt, w - w0, lo, hi, w0)
        if w is None:
            if n_side >= 2048:
                raise WindingError("phase did not stabilize at 2048 samples/side")
            n_side *= 2
        if w0 is None:
            if n_circle >= 1024:
                raise WindingError("puncture circle winding unstable")
            n_circle *= 2


# ---------------------------------------------------------------------------
# lock-step polishing and subdivision
# ---------------------------------------------------------------------------

def _newton_rounds(model, r, target, starts, mults, max_iter=40, escape=None):
    """Lock-step Schroeder-modified Newton: quadratic even at multiplicity > 1.

    Each round integrates the ODE once for all iterates still running and
    yields (best, resid, done): per iterate, the evaluated point of smallest
    residual so far, that residual, and whether the iterate has stopped.  An
    iterate stops when its step falls below 1e-14 (1 + |L|), when dt/dL
    vanishes, when it leaves an `escape` radius around its start, or when its
    steps grew twice after the third round, so a hopeless start is cheap.
    The yielded arrays are updated in place by later rounds.
    """
    start = np.array(starts, dtype=complex)
    mult = np.asarray(mults, dtype=float)
    z = start.copy()
    best = start.copy()
    resid = np.full(z.size, np.inf)
    prev = np.full(z.size, np.inf)
    grew = np.zeros(z.size, dtype=int)
    done = np.zeros(z.size, dtype=bool)
    for i in range(max_iter):
        act = np.flatnonzero(~done)
        if act.size == 0:
            return
        t, dt = _target_values(model, z[act], r, target)
        a = np.abs(t)
        better = a < resid[act]
        best[act[better]] = z[act[better]]
        resid[act[better]] = a[better]
        flat = dt == 0
        step = np.where(flat, 0.0, mult[act] * t / np.where(flat, 1.0, dt))
        z[act] -= step
        s = np.abs(step)
        stop = flat | (s <= 1e-14 * (1.0 + np.abs(z[act])))
        if escape is not None:
            stop |= np.abs(z[act] - start[act]) > escape
        grow = s >= prev[act]
        grew[act] = np.where(grow, grew[act] + 1, 0)
        stop |= grow & (grew[act] >= 2) & (i >= 3)
        prev[act] = s
        done[act[stop]] = True
        if i == max_iter - 1:
            done[:] = True
        yield best, resid, done


def _newton_polish(model, r, target, starts, mults):
    """Polished points and their residuals for a batch of Newton starts."""
    best = np.array(starts, dtype=complex)
    resid = np.full(best.size, np.inf)
    for best, resid, _ in _newton_rounds(model, r, target, starts, mults):
        pass
    return best, resid


def _same_zero(a, b):
    """Points closer than a multiple zero's noise cluster are one zero."""
    return abs(a - b) <= CLUSTER * (1.0 + abs(b))


def _polish_box(model, r, target, lo, hi, count, zero_tol, at_floor):
    """Zeros of the box from its moment seeds, or None if none is verified.

    One lock-step batch tests two hypotheses: the w seeds converge to w
    distinct zeros inside the box (then all w zeros are simple), or the
    centroid, polished with multiplicity w, is one zero whose tight box
    recounts to w (w separated simple zeros can fake a small residual at
    their centroid).  The batch ends as soon as one is verified.  At the
    subdivision floor the centroid needs no recount but may sit just
    outside the box.
    """
    w = count.winding
    size = abs(hi - lo)
    seeds = list(count.seeds) if w > 1 else []
    k = len(seeds)

    def usable(z, pad=0.0):
        return (_box_contains(lo, hi, z, pad=pad)
                and not (target == "mvp" and abs(z) <= MVP_PUNCTURE))

    def seeds_hold(z, res):
        return (all(res <= zero_tol) and all(usable(v) for v in z)
                and not any(_same_zero(z[i], z[j])
                            for i in range(k) for j in range(i)))

    def centroid_holds(z, res):
        pad = max(2 * size, 1e-5 * (1 + abs(z))) if at_floor else 0.0
        if res > zero_tol or not usable(z, pad):
            return False
        if w == 1 or at_floor:
            return True
        h = 1e-5 * (1 + abs(z))
        try:
            return boundary_winding(model, r, target, z - h - 1j * h,
                                    z + h + 1j * h).winding == w
        except WindingError:
            return False

    open_seeds, open_centroid = k > 0, True
    for best, resid, done in _newton_rounds(
            model, r, target, seeds + [count.centroid], [1] * k + [w],
            escape=max(3.0 * size, 1e-3)):
        if open_seeds and done[:k].all():
            open_seeds = False
            if seeds_hold(best[:k], resid[:k]):
                return [(complex(v), 1) for v in best[:k]]
        if open_centroid and done[k]:
            open_centroid = False
            if centroid_holds(complex(best[k]), resid[k]):
                return [(complex(best[k]), w)]
        if not (open_seeds or open_centroid):
            break
    return None


def _subdivide(model, r, target, lo, hi, count, zero_tol, resolve, depth=0):
    """Isolate the counted zeros in [lo, hi]; returns [(L, mult), ...]."""
    w = count.winding
    if w == 0:
        return []
    if w < 0:
        raise WindingError(f"negative winding {w}: boundary unstable")
    size = abs(hi - lo)
    center = (lo + hi) / 2
    at_floor = size <= resolve * (1.0 + abs(center)) or depth >= 48
    if w <= MAX_SEEDED or at_floor:
        found = _polish_box(model, r, target, lo, hi, count, zero_tol,
                            at_floor)
        if found is not None:
            return found
        if at_floor:
            raise WindingError(
                f"polish from {count.centroid:.6g} failed in box {lo}..{hi}")
    wide = (hi.real - lo.real) >= (hi.imag - lo.imag)
    last_err = None
    for frac in _SPLIT_FRACTIONS:
        if wide:
            mid = lo.real + frac * (hi.real - lo.real)
            boxes = [(lo, complex(mid, hi.imag)), (complex(mid, lo.imag), hi)]
        else:
            mid = lo.imag + frac * (hi.imag - lo.imag)
            boxes = [(lo, complex(hi.real, mid)), (complex(lo.real, mid), hi)]
        try:
            counts = [boundary_winding(model, r, target, a, b)
                      for a, b in boxes]
            if sum(c.winding for c in counts) != w:
                raise WindingError(
                    f"child counts {[c.winding for c in counts]} disagree "
                    f"with parent {w}")
            out = []
            for (a, b), c in zip(boxes, counts):
                out.extend(_subdivide(model, r, target, a, b, c,
                                      zero_tol, resolve, depth + 1))
            return out
        except WindingError as err:
            last_err = err
    raise WindingError(f"no stable split of box {lo}..{hi}: {last_err}")


def _least_residual(model, r, target, groups):
    """Per candidate group, the candidate of least |t|, from one ODE batch.

    Ties go to the later candidate, so a real-axis snap appended last wins
    whenever it does not hurt the residual.
    """
    flat = np.array([c for g in groups for c in g], dtype=complex)
    if flat.size == 0:
        return []
    t, _ = _target_values(model, flat, r, target)
    out, i = [], 0
    for g in groups:
        a = np.abs(t[i:i + len(g)])
        j = len(g) - 1 - int(np.argmin(a[::-1]))
        out.append((complex(flat[i + j]), float(a[j])))
        i += len(g)
    return out


def find_L_zeros(model, r, target="sphere", box=(-60 - 8j, 5 + 8j),
                 max_zeros=64, zero_tol=DEFAULT_ZERO_TOL, resolve=1e-4):
    """All zeros of the target function inside the L-plane box.

    Counts the zeros in the box by the argument principle and seeds Newton
    from the contour moments of the same boundary samples.  A box with at
    most MAX_SEEDED zeros polishes its seeds and their centroid together in
    one lock-step Newton batch, on the analytic dφ/dL carried in the ODE
    state.  It accepts w distinct simple zeros inside it, or one zero of
    multiplicity w whose tight box recounts to w.  A box with more zeros, or
    where neither holds, is split in two, and each half is counted and
    searched the same way.  Results closer than a multiple zero's noise
    cluster are merged and re-polished.  For mvp the
    identically-vanishing point L = 0 is excluded by a punctured disk.
    """
    _check_target(target)
    lo, hi = complex(box[0]), complex(box[1])
    if not (lo.real < hi.real and lo.imag < hi.imag):
        raise ValueError("box corners must satisfy lo < hi componentwise")
    r = float(r)

    total = None
    corner_lo, corner_hi = lo, hi
    for attempt in range(6):
        try:
            total = boundary_winding(model, r, target, corner_lo, corner_hi)
            break
        except WindingError:
            # nudge the outer box outward; the searched region is reported
            bump = (0.0013 * (attempt + 1)) * (abs(hi - lo) + 1.0)
            corner_lo = corner_lo - bump * (1 + 1j)
            corner_hi = corner_hi + bump * (1 + 1j)
    if total is None:
        raise WindingError("outer boundary winding unstable after nudging")
    if total.winding > max_zeros:
        raise WindingError(
            f"{total.winding} zeros counted, above max_zeros={max_zeros}")

    found = _subdivide(model, r, target, corner_lo, corner_hi, total,
                       zero_tol, resolve)
    # A multiple zero perturbed by ODE-level noise splits into a cluster of
    # radius ~sqrt(noise); points inside that radius are one zero.  Merge,
    # re-polish with the summed multiplicity, and snap conjugate-symmetric
    # clusters onto the real axis when that does not hurt the residual.
    found.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    merged: list[list] = []
    for z, mlt in found:
        if merged and _same_zero(merged[-1][0], z):
            tot_m = merged[-1][1] + mlt
            merged[-1][0] = (merged[-1][0] * merged[-1][1] + z * mlt) / tot_m
            merged[-1][1] = tot_m
            merged[-1][2].append(z)
        else:
            merged.append([z, mlt, [z]])

    def candidates(z, members, z_p):
        cand = list(members) + [z]
        if abs(z_p - z) <= 1e-4 * (1.0 + abs(z)):
            cand.append(z_p)
        cand.extend(complex(c.real) for c in list(cand)
                    if abs(c.imag) <= 1e-5 * (1.0 + abs(c)))
        return cand

    # simple zeros share one lock-step batch; a multiple zero is located only
    # to the square root of the ODE noise, which a shared batch changes, so
    # each keeps its own solves
    simple = [i for i, m in enumerate(merged) if m[1] == 1]
    z_s, _ = _newton_polish(model, r, target, [merged[i][0] for i in simple],
                            [1] * len(simple))
    picks = dict(zip(simple, _least_residual(
        model, r, target, [candidates(merged[i][0], merged[i][2], zp)
                           for i, zp in zip(simple, z_s)])))
    for i, (z, mlt, members) in enumerate(merged):
        if mlt > 1:
            (z_p,), _ = _newton_polish(model, r, target, [z], [mlt])
            picks[i], = _least_residual(model, r, target,
                                        [candidates(z, members, z_p)])
    zeros = [LZero(L=picks[i][0], multiplicity=int(m[1]), residual=picks[i][1])
             for i, m in enumerate(merged)]
    return ZeroSet(model=model, target=target, radius=r,
                   box=(corner_lo, corner_hi), zeros=zeros,
                   winding_total=int(total.winding),
                   info={"requested_box": (lo, hi)})


# ---------------------------------------------------------------------------
# zeros in r at fixed L
# ---------------------------------------------------------------------------

def _profile_target(model, L, r_pts, target):
    prof = eigen_profile(model, L, r_pts)
    if target == "ball":
        h = prof["Phi"]
        dh = model.theta(prof["r"]) * prof["phi"]
    else:
        h = prof["phi"] - (1.0 if target == "mvp" else 0.0)
        dh = prof["dphi_dr"]
    return h, dh


def find_r_zeros(model, L, r_max, target="sphere", zero_tol=DEFAULT_ZERO_TOL,
                 r_min=1e-3):
    """All r in (0, r_max] where the target of r vanishes, for fixed L.

    Scans a dense oscillation-resolving profile for minima of |h|² (sign
    changes of Re(h̄ h')), brackets them, then polishes with Newton on
    Re(h̄ h') using exact ODE states; a root is accepted when |h| < zero_tol.
    """
    _check_target(target)
    if r_max > 50:
        raise ValueError("r_max must be at most 50")
    L = complex(L)
    osc = math.sqrt(abs(L)) * r_max
    n = int(max(800, 60 * osc / math.pi))
    grid = np.linspace(0.0, r_max, n + 1)
    h, dh = _profile_target(model, L, grid, target)
    q = np.real(np.conj(h) * dh)

    # minima of |h|^2: q crosses - to +
    idx = np.nonzero((q[:-1] < 0) & (q[1:] >= 0) & (grid[1:] > r_min))[0]
    if idx.size == 0:
        return []
    cand = grid[idx] - q[idx] * (grid[idx + 1] - grid[idx]) / (q[idx + 1] - q[idx])
    # cheap rejection: a zero inside the bracket puts the nearer sample
    # within slope × spacing of it
    reach = np.maximum(np.abs(dh[idx]), np.abs(dh[idx + 1])) \
        * (grid[idx + 1] - grid[idx])
    near = np.minimum(np.abs(h[idx]), np.abs(h[idx + 1])) <= reach
    cand = cand[near]
    if cand.size == 0:
        return []

    for _ in range(4):
        cand = np.sort(cand)
        prof = eigen_profile(model, L, cand)
        if target == "ball":
            h_c = prof["Phi"]
            dh_c = model.theta(cand) * prof["phi"]
            ddh = model.theta_prime(cand) * prof["phi"] \
                + model.theta(cand) * prof["dphi_dr"]
        else:
            h_c = prof["phi"] - (1.0 if target == "mvp" else 0.0)
            dh_c = prof["dphi_dr"]
            ddh = L * prof["phi"] - model.dlog_theta(cand) * prof["dphi_dr"]
        qq = np.real(np.conj(h_c) * dh_c)
        dq = np.abs(dh_c) ** 2 + np.real(np.conj(h_c) * ddh)
        step = np.where(dq != 0, qq / np.where(dq == 0, 1.0, dq), 0.0)
        cand = cand - step
        cand = np.clip(cand, r_min, r_max)
        if np.max(np.abs(step)) < 1e-13 * r_max:
            break
    h_f, _ = _profile_target(model, L, np.sort(cand), target)
    roots = sorted(float(c) for c, hv in zip(np.sort(cand), h_f)
                   if abs(hv) < zero_tol)
    out = []
    for rt in roots:
        if out and rt - out[-1] < SEPARATION:
            raise WindingError(
                f"r-zeros {out[-1]:.9g} and {rt:.9g} closer than {SEPARATION}")
        out.append(rt)
    return out


# ---------------------------------------------------------------------------
# bad radii and certification
# ---------------------------------------------------------------------------

def bad_radii(model, r1, variant="sphere", box=(-60 - 8j, 5 + 8j), r_max=10.0,
              zero_tol=DEFAULT_ZERO_TOL):
    """Radii r2 whose zero set shares a point with that of r1 (in the box).

    Union over the L-zeros of the r1 target of the r-zero sets of the same
    target function; sorted and deduplicated at 1e-8.
    """
    zs = find_L_zeros(model, r1, target=variant, box=box, zero_tol=zero_tol)
    collected = []
    for z in zs.zeros:
        collected.extend(find_r_zeros(model, z.L, r_max, target=variant,
                                      zero_tol=max(zero_tol, 1e-9)))
    collected.sort()
    out = []
    for rr in collected:
        if not out or rr - out[-1] > 1e-8:
            out.append(rr)
    return out


def certify_pair(model, r1, r2, variant="sphere", box=(-60 - 8j, 5 + 8j),
                 zero_tol=DEFAULT_ZERO_TOL):
    """Certify that the r1 and r2 zero sets are disjoint inside the box.

    Verdicts: no-common-zero-in-box (pairwise separation > 1e-6),
    common-zero-found (joint witness with both residuals < zero_tol), or
    inconclusive.  The certificate only covers the searched box.
    """
    _check_target(variant)
    r1, r2 = float(r1), float(r2)
    z1 = find_L_zeros(model, r1, target=variant, box=box, zero_tol=zero_tol)
    z2 = find_L_zeros(model, r2, target=variant, box=box, zero_tol=zero_tol)
    a, b = z1.values(), z2.values()

    def joint_residuals(L):
        """max(|t_r1|, |t_r2|) at each L, one ODE batch per radius."""
        L = np.asarray(L, dtype=complex)
        if L.size == 0:
            return np.zeros(0)
        t1, _ = _target_values(model, L, r1, variant)
        t2, _ = _target_values(model, L, r2, variant)
        return np.maximum(np.abs(t1), np.abs(t2))

    def certificate(verdict, mjr, common=()):
        return RadiusCertificate(model=model, variant=variant, r1=r1, r2=r2,
                                 box=z1.box, verdict=verdict,
                                 witness=common[0] if common else None,
                                 min_joint_residual=mjr, common=list(common))

    mjr = float(np.min(joint_residuals(np.concatenate([a, b])),
                       initial=math.inf))
    if a.size == 0 or b.size == 0:
        return certificate("no-common-zero-in-box", mjr)

    dist = np.abs(a[:, None] - b[None, :])
    # multiple zeros are located only to ~sqrt(noise), so candidate pairing
    # must be looser than the final separation verdict
    attempt = np.maximum(SEPARATION, 1e-4 * (1.0 + np.abs(a)[:, None]))
    i, j = np.nonzero(dist <= attempt)
    common = []
    if i.size:
        z, res1 = _newton_polish(model, r1, variant, (a[i] + b[j]) / 2,
                                 np.ones(i.size))
        t2, _ = _target_values(model, z, r2, variant)
        common = [complex(v) for v, e1, e2 in zip(z, res1, np.abs(t2))
                  if e1 < zero_tol and e2 < zero_tol]
    if common:
        common.sort(key=lambda z: (abs(z), z.real, z.imag))
        return certificate("common-zero-found",
                           float(np.min(joint_residuals(common))), common)
    if float(np.min(dist)) > SEPARATION:
        return certificate("no-common-zero-in-box", mjr)
    return certificate("inconclusive", mjr)


# ---------------------------------------------------------------------------
# the classical cosine counterexample
# ---------------------------------------------------------------------------

def mvp_counterexample_demo(n_samples=100, seed=20260814):
    """cos satisfies the sphere mean value property at radius 2π, yet is not
    harmonic; at radius π the property fails.  Linear functions satisfy it
    at every radius.  Returns a dict of measured residuals.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20.0, 20.0, size=n_samples)

    def mvp_residual(f, r):
        return float(np.max(np.abs((f(x - r) + f(x + r)) / 2 - f(x))))

    res_2pi = mvp_residual(np.cos, 2 * math.pi)
    res_pi = mvp_residual(np.cos, math.pi)
    a, b = 1.7, -0.3
    res_linear = max(mvp_residual(lambda s: a * s + b, r)
                     for r in (1.0, math.sqrt(2), 2 * math.pi))
    return {
        "residual_2pi": res_2pi,
        "residual_pi": res_pi,
        "residual_linear": res_linear,
        "cos_second_derivative_at_0": -1.0,
        "mvp_holds_at_2pi": res_2pi < 1e-14,
        "mvp_fails_at_pi": res_pi > 0.1,
        "cos_is_harmonic": False,
    }
