"""Two-radius theorems: zero sets in the L-plane and radius certification.

φ_λ(r) depends on λ only through L = -(λ² + H²/4) and is entire in L, so
zero hunting happens in the L-plane: each zero appears once instead of as a
±λ pair.  Three target functions matter:

    sphere   φ_L(r)             (sphere integrals of eigenfunctions)
    mvp      (φ_L(r) - 1)/L     (sphere mean value property)
    ball     Φ_L(r)             (ball integrals; Φ = ∫ θ φ)

φ_L(r) - 1 vanishes at L = 0 for every radius (φ ≡ 1 there), the harmonic
case the theorem excludes.  By the Volterra series φ_L(r) = 1 + Σ_k a_k(r) L^k
(k ≥ 1), whose first coefficient a_1(r) = ∫_0^r θ(s)⁻¹ ∫_0^s θ(u) du ds is
positive, (φ_L(r) - 1)/L is entire and equals a_1(r) > 0 at L = 0: it has
exactly the other zeros, so no target needs a point excluded from its count.

A pair of radii certifies the corresponding two-radius theorem when the two
zero sets share no point.  Zeros are counted by the argument principle on
box boundaries sampled at Gauss-Legendre nodes along each edge.  The
state carries dφ/dL and dΦ/dL, so the same boundary samples also give the
contour moments s_p = (1/2πi) ∮ L^p t'/t dL, the power sums of the zeros
inside (Delves & Lyness, Math. Comp. 21, 1967).  The edge rules converge
geometrically unless a zero nears the boundary, and a box with a zero on its
boundary is refused.  For a box holding w ≤ 4 zeros,
Newton's identities turn s_1..s_w into a polynomial whose roots seed Newton.
Roots that coincide relative to the box are one multiple zero, started once
with their summed multiplicity (Kravanja & Van Barel, *Computing the Zeros
of Analytic Functions*, LNM 1727, 2000).  All starts of a box are polished
together in one lock-step batch (one eigen_state_at call per round), and
each zero is polished once: a simple zero stops as soon as quadratic
convergence puts its next step under the floor, a multiple zero at about
1e-7, and the moment centroid of its tight box, which must recount its
multiplicity, locates it.
A box where no hypothesis is verified is split in two and each half is
searched the same way.  One last batch measures every residual.
Certificates are explicitly box-relative: the theorems quantify over all of
ℂ, a search cannot.

Every state comes from spherical.eigen_state_at, batched over L at one
radius: a chain of per-piece transfer matrices of the piecewise series,
polynomials in L whose coefficients are cached per (model, radius, piece
count).

Zeros in r at fixed L come from one dense profile: Newton runs on the
quintic Hermite interpolant of its samples, and one exact profile at the
converged radii accepts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spherical import eigen_profile, eigen_state_at

TARGETS = ("sphere", "mvp", "ball")
DEFAULT_ZERO_TOL = 1e-9
SEPARATION = 1e-6
# relative radius within which found zeros are one (noisy multiple) zero
CLUSTER = 1e-5
# boxes with at most this many zeros are solved from their moment seeds
MAX_SEEDED = 4
# seeds closer than this fraction of the box half-diagonal are one multiple
# zero (quadrature error splits an m-fold zero by about its m-th root)
GROUP = 0.05
# Newton stops a simple zero at this relative step, a multiple zero (located
# only to the square root of the state's noise) at the second
SIMPLE_STEP = 1e-14
MULTIPLE_STEP = 1e-7
# a boundary sample with |t| below this fraction of max(1, max |t|) is a zero
ZERO_FLOOR = 1e-11
# find_L_zeros refuses a box holding more zeros than this
MAX_ZEROS = 64
# subdivision stops at boxes this small relative to 1 + |center|
RESOLVE = 1e-4
# find_r_zeros searches r in [R_MIN, r_max]
R_MIN = 1e-3

# split fractions tried when a subdivision line lands on a zero
_SPLIT_FRACTIONS = (0.5, 0.45, 0.57, 0.37, 0.63, 0.41, 0.55)


class WindingError(RuntimeError):
    """Boundary winding could not be stabilized.

    `gap` is the sample spacing where a zero was seen on the boundary (0.0
    for other failures): moving that edge by two gaps clears a zero of
    multiplicity up to 3 off it, on either side.
    """

    def __init__(self, msg, gap=0.0):
        super().__init__(msg)
        self.gap = gap


@dataclass(frozen=True)
class LZero:
    """A zero of the target; residual is |t| there (|(φ - 1)/L| for mvp)."""
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
    """(t(L), dt/dL) arrays for the chosen target at radius r.

    The mvp target t = (φ - 1)/L has dt/dL = (dφ/dL - t)/L; a sample at
    L = 0 exactly is nan (0/0), which boundary_winding refuses.
    """
    L = np.asarray(L_values, dtype=complex)
    st = eigen_state_at(model, L, r)
    if target == "ball":
        return st["Phi"], st["dPhi_dL"]
    if target == "sphere":
        return st["phi"], st["dphi_dL"]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (st["phi"] - 1.0) / L
        return t, (st["dphi_dL"] - t) / L


# ---------------------------------------------------------------------------
# argument-principle counting and contour moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _edge_rule(n):
    """n-node Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _box_path(lo, hi, n_side):
    """Counterclockwise boundary nodes, n_side per edge, and their dL weights.

    Every edge carries a Gauss-Legendre rule, ordered along the loop, so
    contour integrals of the analytic t'/t converge geometrically in n_side;
    the trapezoid rule on a polygon is only O(h²) because of its corners.
    """
    x, w = _edge_rule(n_side)
    c = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
    pts, wts = [], []
    for a, b in zip(c, c[1:] + c[:1]):
        half = (b - a) / 2
        pts.append(a + half * (1.0 + x))
        wts.append(half * w)
    return np.concatenate(pts), np.concatenate(wts)


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
    none).  Both carry the quadrature error of the boundary moments, which
    falls geometrically with the samples per edge but grows as a zero
    nears the boundary.
    """
    winding: int
    seeds: np.ndarray
    centroid: complex


def _moment_seeds(pts, wts, t, dt, w, lo, hi):
    """Seeds and centroid of the w zeros in [lo, hi] from boundary moments.

    Power sums s_p = (1/2πi) ∮ u^p t'/t dL in the box-scaled variable
    u = (L - c)/ρ, by the boundary rule (nodes pts, weights wts).  Newton's
    identities give the elementary symmetric functions, whose polynomial
    has the w zeros as roots.
    """
    c = (lo + hi) / 2
    if w <= 0:
        return BoxCount(w, np.zeros(0, dtype=complex), c)
    rho = abs(hi - lo) / 2
    u = (pts - c) / rho
    f = wts * dt / t / (2j * math.pi)
    s = [complex(np.sum(f * u ** p))
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


def boundary_winding(model, r, target, lo, hi):
    """Argument-principle zero count inside the box [lo, hi], with seeds.

    Returns a BoxCount.  Raises WindingError when a zero lies on (within a
    fraction of a sample gap of) the boundary, with that gap, when a sample
    is not finite (the mvp target at L = 0 exactly), or when the phase
    refuses to stabilize; callers nudge the box and retry.
    """
    _check_target(target)
    # the phase turns about r·sqrt|L| along an edge; mid-edge, Gauss-Legendre
    # nodes lie π/2 times farther apart than equispaced ones
    n_side = int(max(32, 1.1 * r * math.sqrt(max(abs(lo), abs(hi))) + 13))
    while True:
        pts, wts = _box_path(lo, hi, n_side)
        t, dt = _target_values(model, pts, r, target)
        # |t/t'| is the distance to the nearest zero over its multiplicity m,
        # at most gap/(2m) for a zero on an edge: an even-order zero there
        # leaves the phase unchanged, so the count cannot see it
        gap = np.maximum(np.abs(np.roll(pts, -1) - pts),
                         np.abs(pts - np.roll(pts, 1)))
        a = np.abs(t)
        # written so that a nan sample (mvp at L = 0) is a hit too
        hit = ~(a >= ZERO_FLOOR * max(1.0, float(np.nanmax(a))))
        if hit.any():
            raise WindingError("boundary sample hits a zero",
                               gap=float(np.max(gap[hit])))
        near = 3.0 * a < gap * np.abs(dt)
        if near.any():
            raise WindingError("a zero lies on the boundary",
                               gap=float(np.max(gap[near])))
        w, _ = _winding_of_samples(t)
        if w is not None:
            return _moment_seeds(pts, wts, t, dt, w, lo, hi)
        if n_side >= 2048:
            raise WindingError("phase did not stabilize at 2048 samples/side")
        n_side *= 2


# ---------------------------------------------------------------------------
# lock-step polishing and subdivision
# ---------------------------------------------------------------------------

def _newton_rounds(model, r, target, starts, mults, max_iter=40, escape=None):
    """Lock-step Schroeder-modified Newton: quadratic even at multiplicity > 1.

    Each round evaluates the state once for all iterates still running and
    yields (points, resid, done): per iterate, its answer so far, that
    answer's residual, and whether the iterate has stopped.  A running
    iterate's answer is its evaluated point of least |t|.  An iterate
    converges when its step falls below SIMPLE_STEP (1 + |L|), or
    MULTIPLE_STEP (1 + |L|) at multiplicity > 1, or, for a simple zero, when
    quadratic convergence puts its next step (about s³/s_prev²) below that
    floor; its answer is then the point after that step, and the residual of
    a point not evaluated is predicted by the same law.  A multiple zero's
    iterate also stops, at its least-residual point, on the first step that
    does not shrink: the state's noise drives it from there.  Every iterate
    stops when dt/dL vanishes, when it leaves an `escape` radius around its
    start, or when its steps grew twice after the third round, so a
    hopeless start is cheap.  The yielded arrays are updated in place by
    later rounds.
    """
    start = np.array(starts, dtype=complex)
    mult = np.asarray(mults, dtype=float)
    tol = np.where(mult > 1, MULTIPLE_STEP, SIMPLE_STEP)
    z = start.copy()
    points = start.copy()
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
        points[act[better]] = z[act[better]]
        resid[act[better]] = a[better]
        flat = dt == 0
        step = np.where(flat, 0.0, mult[act] * t / np.where(flat, 1.0, dt))
        z[act] -= step
        s = np.abs(step)
        floor = tol[act] * (1.0 + np.abs(z[act]))
        p = prev[act]
        quad = ((mult[act] == 1) & np.isfinite(p) & (s < p)
                & (s ** 3 <= floor * p * p))
        conv = ~flat & ((s <= floor) | quad)
        points[act[conv]] = z[act[conv]]
        resid[act[conv]] = np.where(quad, a * (s / p) ** 2, a)[conv]
        grow = s >= p
        stop = flat | conv | ((mult[act] > 1) & grow)
        if escape is not None:
            stop |= np.abs(z[act] - start[act]) > escape
        grew[act] = np.where(grow, grew[act] + 1, 0)
        stop |= grow & (grew[act] >= 2) & (i >= 3)
        prev[act] = s
        done[act[stop]] = True
        if i == max_iter - 1:
            done[:] = True
        yield points, resid, done


def _newton_polish(model, r, target, starts, mults):
    """Polished points and their residuals for a batch of Newton starts."""
    points = np.array(starts, dtype=complex)
    resid = np.full(points.size, np.inf)
    for points, resid, _ in _newton_rounds(model, r, target, starts, mults):
        pass
    return points, resid


def _same_zero(a, b):
    """Points closer than a multiple zero's noise cluster are one zero."""
    return abs(a - b) <= CLUSTER * (1.0 + abs(b))


def _group_seeds(seeds, rho):
    """(start, multiplicity) per group of seeds closer than GROUP·rho.

    Each seed joins the first group whose mean lies within reach, so an
    m-fold zero split by quadrature error becomes one start of
    multiplicity m at the mean of its seeds.
    """
    groups: list[list[complex]] = []
    for v in seeds:
        near = next((g for g in groups
                     if abs(v - sum(g) / len(g)) <= GROUP * rho), None)
        if near is None:
            groups.append([complex(v)])
        else:
            near.append(complex(v))
    return [(sum(g) / len(g), len(g)) for g in groups]


def _polish_box(model, r, target, lo, hi, count, zero_tol, at_floor):
    """Zeros of the box from its moment seeds, or None if none is verified.

    A hypothesis is a list of (start, multiplicity) whose multiplicities
    sum to w.  The first groups the seeds: seeds closer than GROUP times the
    box half-diagonal are one zero of multiplicity their number, started at
    their mean, so an m-fold zero gets one quadratic Schroeder iterate
    instead of m linear Newton ones.  When that merged seeds, every seed as
    a simple zero is the second (close simple zeros also give close seeds).
    At the subdivision floor the centroid as one zero of multiplicity w is
    the last.  One lock-step Newton batch runs them all and ends as soon as
    one is verified: every point has its residual below zero_tol and lies in
    the box, no two points are one zero, and the
    tight box around every multiple zero recounts to its multiplicity
    (w separated simple zeros can fake a small residual at their centroid).
    A multiple zero is returned at that recount's moment centroid, which is
    far closer than the Newton iterate, stalled at the m-th root of the
    state's noise.  At the floor the centroid needs no recount but may sit
    just outside the box.
    """
    w = count.winding
    size = abs(hi - lo)
    hyps = []
    if count.seeds.size:
        groups = _group_seeds(count.seeds, size / 2)
        hyps.append(groups)
        if len(groups) < w:
            hyps.append([(complex(v), 1) for v in count.seeds])
    # a single group of all the seeds already is the centroid hypothesis
    if at_floor and not (hyps and len(hyps[0]) == 1):
        hyps.append([(count.centroid, w)])
    members = [m for h in hyps for m in h]
    bounds = np.cumsum([0] + [len(h) for h in hyps])

    def verified(z, res, mults):
        centroid = at_floor and len(z) == 1
        pad = max(2 * size, 1e-5 * (1 + abs(z[0]))) if centroid else 0.0
        if any(res > zero_tol) \
                or not all(_box_contains(lo, hi, v, pad) for v in z) \
                or any(_same_zero(z[i], z[j])
                       for i in range(len(z)) for j in range(i)):
            return None
        out = []
        for v, m in zip(z, mults):
            if m > 1 and not centroid:
                h = 1e-5 * (1 + abs(v))
                try:
                    tight = boundary_winding(model, r, target, v - h - 1j * h,
                                             v + h + 1j * h)
                except WindingError:
                    return None
                if tight.winding != m:
                    return None
                v = tight.centroid
            out.append((complex(v), m))
        return out

    pending = list(range(len(hyps)))
    for z, res, done in _newton_rounds(
            model, r, target, [v for v, _ in members],
            [m for _, m in members], escape=max(3.0 * size, 1e-3)):
        for k in [k for k in pending if done[bounds[k]:bounds[k + 1]].all()]:
            pending.remove(k)
            a, b = bounds[k], bounds[k + 1]
            found = verified(z[a:b], res[a:b], [m for _, m in hyps[k]])
            if found is not None:
                return found
        if not pending:
            break
    return None


def _subdivide(model, r, target, lo, hi, count, zero_tol, depth=0):
    """Isolate the counted zeros in [lo, hi]; returns [(L, mult), ...]."""
    w = count.winding
    if w == 0:
        return []
    if w < 0:
        raise WindingError(f"negative winding {w}: boundary unstable")
    size = abs(hi - lo)
    center = (lo + hi) / 2
    at_floor = size <= RESOLVE * (1.0 + abs(center)) or depth >= 48
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
                                      zero_tol, depth + 1))
            return out
        except WindingError as err:
            last_err = err
    raise WindingError(f"no stable split of box {lo}..{hi}: {last_err}")


def _least_residual(model, r, target, groups):
    """Per candidate group, the candidate of least |t|, from one batch.

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
                 zero_tol=DEFAULT_ZERO_TOL):
    """All zeros of the target function inside the L-plane box.

    Counts the zeros in the box by the argument principle and seeds Newton
    from the contour moments of the same boundary samples.  A box with at
    most MAX_SEEDED zeros groups coinciding seeds into multiple zeros and
    polishes the groups, and if a group merged seeds also the plain seeds,
    together in one lock-step Newton batch, on the analytic dφ/dL carried in
    the state.  It accepts distinct zeros inside it whose multiple
    members' tight boxes recount to their multiplicities.  A box with more
    zeros, or where no hypothesis holds, is split in two, and each half is
    counted and searched the same way.  Each zero is polished once; one
    final batch measures every residual and snaps near-real zeros onto
    the real axis when that does not hurt it.  Results closer than a
    multiple zero's noise cluster are merged and re-polished.  The residual
    of a zero is its |t|; for mvp that is |(φ - 1)/L|.
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
        except WindingError as err:
            # nudge the outer box outward, by two sample gaps when a zero
            # lies on the boundary so one nudge clears it; the searched
            # region is reported
            bump = max((0.0013 * (attempt + 1)) * (abs(hi - lo) + 1.0),
                       2.0 * err.gap)
            corner_lo = corner_lo - bump * (1 + 1j)
            corner_hi = corner_hi + bump * (1 + 1j)
    if total is None:
        raise WindingError("outer boundary winding unstable after nudging")
    if total.winding > MAX_ZEROS:
        raise WindingError(
            f"{total.winding} zeros counted in the box, above the limit of "
            f"{MAX_ZEROS}; search a smaller box")

    found = _subdivide(model, r, target, corner_lo, corner_hi, total,
                       zero_tol)
    # Points closer than a multiple zero's noise cluster are one zero (two
    # boxes at the subdivision floor may both report it): they are merged,
    # and only such a merged cluster is polished again, with its summed
    # multiplicity.
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

    def candidates(z, mlt, members):
        cand = list(members)
        if len(members) > 1:
            (z_p,), _ = _newton_polish(model, r, target, [z], [mlt])
            cand.append(z)
            if abs(z_p - z) <= 1e-4 * (1.0 + abs(z)):
                cand.append(z_p)
        # snap conjugate-symmetric results onto the real axis when that does
        # not hurt the residual
        cand.extend(complex(c.real) for c in list(cand)
                    if abs(c.imag) <= 1e-5 * (1.0 + abs(c)))
        return cand

    picks = _least_residual(model, r, target,
                            [candidates(*m) for m in merged])
    zeros = [LZero(L=L, multiplicity=int(m[1]), residual=res)
             for (L, res), m in zip(picks, merged)]
    return ZeroSet(model=model, target=target, radius=r,
                   box=(corner_lo, corner_hi), zeros=zeros,
                   winding_total=int(total.winding),
                   info={"requested_box": (lo, hi)})


# ---------------------------------------------------------------------------
# zeros in r at fixed L
# ---------------------------------------------------------------------------

def _profile_target(model, L, r_pts, target):
    """(h, h', h'') of the target along r, from one eigen_profile call.

    The ODE gives the second derivative: φ'' = Lφ - (θ'/θ)φ', whose limit at
    r = 0 is L/(n + 1), and Φ'' = (θφ)' = θ((θ'/θ)φ + φ'), whose limit is
    θ'(0): 1 for n = 1 and 0 otherwise (θ ~ rⁿ with no r^(n+1) term).
    """
    prof = eigen_profile(model, L, r_pts)
    r, u, v = prof["r"], prof["phi"], prof["dphi_dr"]
    inner = r > 0
    dlog = model.dlog_theta(r[inner])
    if target == "ball":
        th = model.theta(r)
        ddh = np.full(r.shape, float(model.n == 1), dtype=complex)
        ddh[inner] = th[inner] * (dlog * u[inner] + v[inner])
        return prof["Phi"], th * u, ddh
    h = u - 1.0 if target == "mvp" else u
    ddh = np.full(r.shape, L / (model.n + 1), dtype=complex)
    ddh[inner] = L * u[inner] - dlog * v[inner]
    return h, v, ddh


def _quintic_newton(h, dh, ddh, x, idx, t0):
    """Newton on Re(h̄ h') over the quintic Hermite interpolant of a scan.

    On each bracket [x_i, x_{i+1}] (i in idx) the quintic matches h, h' and
    h'' at both ends; its error is O(dx⁶).  t0 holds the starting local
    coordinates in [0, 1]; returns the radii where Re(h̄ h') vanishes.
    """
    dx = x[idx + 1] - x[idx]
    a0, a1, a2 = h[idx], dh[idx] * dx, ddh[idx] * dx * dx / 2
    A = h[idx + 1] - a0 - a1 - a2
    B = dh[idx + 1] * dx - a1 - 2 * a2
    C = ddh[idx + 1] * dx * dx - 2 * a2
    a3, a4, a5 = 10 * A - 4 * B + C / 2, -15 * A + 7 * B - C, 6 * A - 3 * B + C / 2
    t = np.asarray(t0, dtype=float)
    # rounds cost no profile, so a double zero of h (a triple root of
    # Re(h̄ h'), where Newton contracts only by 2/3) gets enough of them
    for _ in range(60):
        p = a0 + t * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5))))
        dp = a1 + t * (2 * a2 + t * (3 * a3 + t * (4 * a4 + t * 5 * a5)))
        ddp = 2 * a2 + t * (6 * a3 + t * (12 * a4 + t * 20 * a5))
        q = np.real(np.conj(p) * dp)
        dq = np.abs(dp) ** 2 + np.real(np.conj(p) * ddp)
        step = np.where(dq != 0, q / np.where(dq == 0, 1.0, dq), 0.0)
        t = np.clip(t - step, 0.0, 1.0)
        if np.max(np.abs(step), initial=0.0) < 1e-15:
            break
    return x[idx] + t * dx


def find_r_zeros(model, L, r_max, target="sphere", zero_tol=DEFAULT_ZERO_TOL):
    """All r in [R_MIN, r_max] where the target of r vanishes, for fixed L.

    Scans a dense oscillation-resolving profile for minima of |h|² (sign
    changes of Re(h̄ h')) and brackets them.  Newton on Re(h̄ h') then runs
    on the quintic Hermite interpolant of the scan's h, h' and h'', so no
    further profile is needed to converge; one exact profile at the
    converged radii accepts a root when |h| < zero_tol.  Where |h| is large
    enough that the interpolation error exceeds zero_tol, one exact Newton
    step and a second exact profile finish the candidates it left near a
    zero.
    """
    _check_target(target)
    if r_max > 50:
        raise ValueError("r_max must be at most 50")
    L = complex(L)
    osc = math.sqrt(abs(L)) * r_max
    n = int(max(800, 60 * osc / math.pi))
    grid = np.linspace(0.0, r_max, n + 1)
    h, dh, ddh = _profile_target(model, L, grid, target)
    q = np.real(np.conj(h) * dh)

    # minima of |h|^2: q crosses - to +
    idx = np.nonzero((q[:-1] < 0) & (q[1:] >= 0) & (grid[1:] > R_MIN))[0]
    # cheap rejection: a zero inside the bracket puts the nearer sample
    # within slope × spacing of it
    reach = np.maximum(np.abs(dh[idx]), np.abs(dh[idx + 1])) \
        * (grid[idx + 1] - grid[idx])
    idx = idx[np.minimum(np.abs(h[idx]), np.abs(h[idx + 1])) <= reach]
    if idx.size == 0:
        return []
    cand = _quintic_newton(h, dh, ddh, grid, idx,
                           q[idx] / (q[idx] - q[idx + 1]))
    cand = np.clip(cand, R_MIN, r_max)
    h_f, dh_f, ddh_f = _profile_target(model, L, cand, target)
    # the interpolation error grows with |h| (Φ grows like e^{Hr/2}): a
    # candidate left within it of a zero gets one exact Newton step on
    # Re(h̄ h') and one more exact check
    near = (np.abs(h_f) >= zero_tol) \
        & (np.abs(h_f) <= 1e-8 * (np.abs(h[idx]) + np.abs(h[idx + 1])))
    if np.any(near):
        q = np.real(np.conj(h_f) * dh_f)[near]
        dq = (np.abs(dh_f) ** 2 + np.real(np.conj(h_f) * ddh_f))[near]
        cand[near] = np.clip(cand[near] - q / np.where(dq == 0, 1.0, dq),
                             R_MIN, r_max)
        h_f[near] = _profile_target(model, L, cand[near], target)[0]
    roots = sorted(float(c) for c, hv in zip(cand, h_f) if abs(hv) < zero_tol)
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
    target function, sorted.  Radii closer than SEPARATION are one radius,
    as in find_r_zeros: a double r-zero (the mvp target touching 0) is
    located only to about 2e-8, so two L-zeros can return it apart.
    """
    zs = find_L_zeros(model, r1, target=variant, box=box, zero_tol=zero_tol)
    collected = []
    for z in zs.zeros:
        collected.extend(find_r_zeros(model, z.L, r_max, target=variant,
                                      zero_tol=max(zero_tol, 1e-9)))
    collected.sort()
    out = []
    for rr in collected:
        if not out or rr - out[-1] >= SEPARATION:
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

    def certificate(verdict, mjr, common=()):
        return RadiusCertificate(model=model, variant=variant, r1=r1, r2=r2,
                                 box=z1.box, verdict=verdict,
                                 witness=common[0] if common else None,
                                 min_joint_residual=mjr, common=list(common))

    # max(|t_r1|, |t_r2|) at every zero of either set, one batch per
    # radius; both sets are polished, so a shared zero needs no further solve
    pts = np.concatenate([a, b])
    joint = np.zeros(0)
    if pts.size:
        t1, _ = _target_values(model, pts, r1, variant)
        t2, _ = _target_values(model, pts, r2, variant)
        joint = np.maximum(np.abs(t1), np.abs(t2))
    mjr = float(np.min(joint, initial=math.inf))
    if a.size == 0 or b.size == 0:
        return certificate("no-common-zero-in-box", mjr)

    dist = np.abs(a[:, None] - b[None, :])
    # multiple zeros are located only to ~sqrt(noise), so candidate pairing
    # must be looser than the final separation verdict
    attempt = np.maximum(SEPARATION, 1e-4 * (1.0 + np.abs(a)[:, None]))
    i, j = np.nonzero(dist <= attempt)
    # of each close pair, the member of smaller joint residual is a common
    # zero when both targets vanish there
    k = np.unique(np.where(joint[i] <= joint[a.size + j], i, a.size + j))
    common = [complex(pts[q]) for q in k if joint[q] < zero_tol]
    if common:
        common.sort(key=lambda z: (abs(z), z.real, z.imag))
        return certificate("common-zero-found",
                           float(np.min(joint[k][joint[k] < zero_tol])),
                           common)
    if float(np.min(dist)) > SEPARATION:
        return certificate("no-common-zero-in-box", mjr)
    return certificate("inconclusive", mjr)


# ---------------------------------------------------------------------------
# the classical cosine counterexample
# ---------------------------------------------------------------------------

def mvp_counterexample_demo(seed=20260814):
    """cos satisfies the sphere mean value property at radius 2π, yet is not
    harmonic; at radius π the property fails.  Linear functions satisfy it
    at every radius.  Returns a dict of residuals measured at 100 random
    points.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20.0, 20.0, size=100)

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
