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
inside, each counted with its multiplicity (Delves & Lyness, Math. Comp.
21, 1967).  The edge rules converge geometrically unless a zero nears the
boundary, and a box with a zero on its boundary is refused.  For a box
holding w ≤ MAX_PENCIL zeros, the moments s_0 … s_{2w-1} form one Hankel
pencil: the rank of [s_{i+j}] is the number of distinct zeros, the pencil's
eigenvalues are those zeros, and a Vandermonde solve gives their
multiplicities ν (Kravanja & Van Barel, *Computing the Zeros of Analytic
Functions*, LNM 1727, 2000; ZEAL, Comput. Phys. Commun. 124, 2000).  A box
is solved when every ν is within NU_TOL of an integer and every simple zero
polishes, in one lock-step Newton batch (one eigen_state_at call per
round), inside the box next to its pencil value.  A multiple zero, where
Newton would stall at the m-th root of the state's noise, keeps its pencil
value, whose residual the batch's first round checks: simple zeros closer
than the rank cut resolves merge into one pencil zero at their centroid,
where the residual is not small.  A box that fails, or that holds a
multiple zero, is solved once more from twice the samples per edge; a box
that fails again is split in two and each half is searched the same way.
One last batch measures every residual.
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
DEFAULT_BOX = (-60 - 8j, 5 + 8j)
DEFAULT_ZERO_TOL = 1e-10
SEPARATION = 1e-6
# boxes with at most this many zeros are solved from one Hankel pencil: the
# least singular value of w distinct zeros' [s_{i+j}] falls 10-50x per zero,
# to 1e-7..1e-8 of the largest at w = 7-8 and 3e-9 at w = 9, below RANK_TOL
MAX_PENCIL = 7
# singular values of [s_{i+j}] above this fraction of the largest count the
# distinct zeros; a double zero's second one is quadrature noise, at most
# 4e-10 at the winding's samples per edge and 1e-15 at twice as many
RANK_TOL = 1e-8
# a pencil is accepted when every ν is this close to an integer: solved
# boxes read at most 1e-4, and failing ones 2e-3..0.45 at the winding's
# samples per edge
NU_TOL = 1e-3
# Newton stops a simple zero at this relative step
SIMPLE_STEP = 1e-14
# a boundary sample below this fraction of its neighbours' |t| is a zero
ZERO_FLOOR = 1e-11
# find_L_zeros refuses a box holding more zeros than this
MAX_ZEROS = 64
# boundary samples per edge stop doubling here
MAX_SIDE = 2048
# subdivision stops at boxes this small relative to 1 + |center|
RESOLVE = 1e-4
# find_r_zeros searches r in [R_MIN, r_max], with r_max at most R_MAX
R_MIN = 1e-3
R_MAX = 50.0

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
    target: str
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


def _check_r_max(r_max):
    if r_max > R_MAX:
        raise ValueError(f"--rmax = {r_max:g} must be at most {R_MAX:g}")


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
    steps = np.angle(np.roll(t, -1) / t)
    if np.max(np.abs(steps)) > 0.45 * math.pi:
        return None
    total = float(np.sum(steps)) / (2 * math.pi)
    w = round(total)
    return w if abs(total - w) <= 0.05 else None


def _box_contains(lo, hi, z):
    return lo.real <= z.real <= hi.real and lo.imag <= z.imag <= hi.imag


@dataclass(frozen=True)
class BoxCount:
    """Zeros inside a box: their number and the box's Hankel pencil.

    `zeros` holds the distinct zeros the pencil finds and `nu` their
    multiplicities as computed (complex, near integers when the moments
    are accurate) when 1 ≤ winding ≤ MAX_PENCIL; both are empty otherwise.
    They carry the quadrature error of the boundary moments, which falls
    geometrically with the `n_side` samples per edge but grows as a zero
    nears the boundary.
    """
    winding: int
    zeros: np.ndarray
    nu: np.ndarray
    n_side: int


def _hankel_pencil(pts, wts, t, dt, w, lo, hi):
    """(distinct zeros, multiplicities ν) of the w zeros in [lo, hi].

    Power sums s_p = (1/2πi) ∮ u^p t'/t dL = Σ_k ν_k u_k^p, p < 2w, in the
    box-scaled variable u = (L - c)/ρ, by the boundary rule (nodes pts,
    weights wts).  H0 = [s_{i+j}] (w × w) has the rank n of the distinct
    zeros, counted as its singular values above RANK_TOL σ₁.  With H0 cut
    to U Σ V* of rank n, the eigenvalues of U* H1 V Σ⁻¹, H1 = [s_{i+j+1}],
    are the u_k, and the Vandermonde system Σ_k ν_k u_k^p = s_p (p < n)
    gives ν.
    """
    c, rho = (lo + hi) / 2, abs(hi - lo) / 2
    f = wts * dt / t / (2j * math.pi)
    s = f @ np.vander((pts - c) / rho, 2 * w, increasing=True)
    ij = np.add.outer(np.arange(w), np.arange(w))
    U, sig, Vh = np.linalg.svd(s[ij])
    n = int(np.sum(sig > RANK_TOL * sig[0]))
    u = np.linalg.eigvals(U[:, :n].conj().T @ s[ij + 1] @ Vh[:n].conj().T
                          / sig[:n])
    nu = np.linalg.solve(np.vander(u, n, increasing=True).T, s[:n])
    return c + rho * u, nu


def _count_box(model, r, target, lo, hi, n_side):
    """BoxCount of [lo, hi] from n_side samples per edge, or None when the
    winding has not settled; raises WindingError as boundary_winding."""
    pts, wts = _box_path(lo, hi, n_side)
    t, dt = _target_values(model, pts, r, target)
    # |t/t'| is the distance to the nearest zero over its multiplicity m,
    # at most gap/(2m) for a zero on an edge: an even-order zero there
    # leaves the phase unchanged, so the count cannot see it
    gap = np.maximum(np.abs(np.roll(pts, -1) - pts),
                     np.abs(pts - np.roll(pts, 1)))
    a = np.abs(t)
    # judged on the local scale, since |t| spans e^{±r·sqrt|L|} along the
    # box; written so that a nan sample (mvp at L = 0) is a hit too
    hit = ~(a > ZERO_FLOOR * np.fmax(np.roll(a, 1), np.roll(a, -1)))
    if hit.any():
        raise WindingError("boundary sample hits a zero",
                           gap=float(np.max(gap[hit])))
    near = 3.0 * a < gap * np.abs(dt)
    if near.any():
        raise WindingError("a zero lies on the boundary",
                           gap=float(np.max(gap[near])))
    w = _winding_of_samples(t)
    if w is None:
        return None
    none = np.zeros(0, dtype=complex)
    zeros, nu = (_hankel_pencil(pts, wts, t, dt, w, lo, hi)
                 if 1 <= w <= MAX_PENCIL else (none, none))
    return BoxCount(w, zeros, nu, n_side)


def boundary_winding(model, r, target, lo, hi):
    """Argument-principle zero count inside the box [lo, hi], with its pencil.

    Returns a BoxCount, from enough samples per edge for the phase turn
    along an edge, doubled until the winding settles.  Raises WindingError
    when a zero lies on (within a fraction of a sample gap of) the boundary,
    with that gap, when a sample is not finite (the mvp target at L = 0
    exactly), or when the phase refuses to stabilize; callers nudge the box
    and retry.
    """
    _check_target(target)
    # the phase turns about r·sqrt|L| along an edge; mid-edge, Gauss-Legendre
    # nodes lie π/2 times farther apart than equispaced ones
    n_side = int(max(32, 1.1 * r * math.sqrt(max(abs(lo), abs(hi))) + 13))
    while True:
        count = _count_box(model, r, target, lo, hi, n_side)
        if count is not None:
            return count
        if n_side >= MAX_SIDE:
            raise WindingError(
                f"phase did not stabilize at {MAX_SIDE} samples/side")
        n_side *= 2


# ---------------------------------------------------------------------------
# lock-step polishing and subdivision
# ---------------------------------------------------------------------------

def _newton_polish(model, r, target, starts, escape, max_iter=40):
    """Lock-step Newton on simple zeros: (points, residuals, converged).

    Each round evaluates the state once for all iterates still running.  An
    iterate converges when its step falls below SIMPLE_STEP (1 + |L|), or
    when quadratic convergence puts its next step (about s³/s_prev²) below
    that floor; its point is then the one after that step, and the residual
    of a point not evaluated is predicted by the same law.  An iterate stops
    unconverged, at its evaluated point of least |t|, when dt/dL vanishes,
    when it moves farther than its `escape` from its start, when its steps
    grew twice after the third round, or after max_iter rounds.  An
    iterate whose escape is 0 is only evaluated: it stays at its start,
    converged, with its |t| there as its residual.
    """
    start = np.array(starts, dtype=complex)
    z = start.copy()
    points = start.copy()
    resid = np.full(z.size, np.inf)
    prev = np.full(z.size, np.inf)
    grew = np.zeros(z.size, dtype=int)
    done = np.zeros(z.size, dtype=bool)
    converged = np.zeros(z.size, dtype=bool)
    for i in range(max_iter):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        t, dt = _target_values(model, z[act], r, target)
        a = np.abs(t)
        better = a < resid[act]
        points[act[better]] = z[act[better]]
        resid[act[better]] = a[better]
        flat = dt == 0
        hold = escape[act] == 0
        step = np.where(flat | hold, 0.0, t / np.where(flat, 1.0, dt))
        z[act] -= step
        s = np.abs(step)
        floor = SIMPLE_STEP * (1.0 + np.abs(z[act]))
        p = prev[act]
        quad = np.isfinite(p) & (s < p) & (s ** 3 <= floor * p * p)
        conv = hold | (~flat & ((s <= floor) | quad))
        points[act[conv]] = z[act[conv]]
        resid[act[conv]] = np.where(quad, a * (s / p) ** 2, a)[conv]
        converged[act[conv]] = True
        grow = s >= p
        grew[act] = np.where(grow, grew[act] + 1, 0)
        stop = flat | conv | (np.abs(z[act] - start[act]) > escape[act])
        stop |= grow & (grew[act] >= 2) & (i >= 3)
        prev[act] = s
        done[act[stop]] = True
    return points, resid, converged


def _multiplicities(nu):
    """ν rounded to integers ≥ 1, or None if some ν is not within NU_TOL."""
    m = np.rint(nu.real).astype(int)
    if nu.size == 0 or np.any(m < 1) or np.max(np.abs(nu - m)) > NU_TOL:
        return None
    return m


def _solve_box(model, r, target, lo, hi, count, zero_tol):
    """[(L, multiplicity), ...] of the box from its pencil, or None.

    A pencil is accepted when its ν are integers within NU_TOL and every
    zero has its residual below zero_tol inside the box.  Its simple zeros
    polish first, and each Newton iterate must converge within a quarter of
    the distance from its start to the nearest other pencil zero, so two
    starts cannot land on one zero.  A multiple zero keeps its pencil value
    from twice the winding's samples per edge: with the rank cut at the
    distinct zeros it carries the moments' quadrature error linearly, not
    as its m-th root.  Its residual, taken in the Newton batch's first
    round, rejects simple zeros closer than the rank cut resolves, which
    the pencil merges at their centroid with |t| about |t''|δ²/8 there.
    A pencil that fails, or that holds a multiple zero, is replaced once by
    the pencil at twice the samples.
    """
    for retry in (False, True):
        if retry:
            if count.n_side >= MAX_SIDE:
                return None
            try:
                again = _count_box(model, r, target, lo, hi, 2 * count.n_side)
            except WindingError:
                return None
            if again is None or again.winding != count.winding:
                return None
            count = again
        mult = _multiplicities(count.nu)
        if mult is None or (not retry and np.any(mult > 1)):
            continue
        dist = np.abs(count.zeros[:, None] - count.zeros[None, :])
        np.fill_diagonal(dist, np.inf)
        escape = np.where(mult == 1,
                          np.minimum(dist.min(axis=1) / 4, abs(hi - lo)), 0.0)
        z, resid, conv = _newton_polish(model, r, target, count.zeros, escape)
        if conv.all() and np.all(resid <= zero_tol) \
                and all(_box_contains(lo, hi, v) for v in z):
            return [(complex(v), int(m)) for v, m in zip(z, mult)]
    return None


def _subdivide(model, r, target, lo, hi, count, zero_tol, depth=0):
    """Isolate the counted zeros in [lo, hi]; returns [(L, mult), ...]."""
    w = count.winding
    if w == 0:
        return []
    if w < 0:
        raise WindingError(f"negative winding {w}: boundary unstable")
    if w <= MAX_PENCIL:
        found = _solve_box(model, r, target, lo, hi, count, zero_tol)
        if found is not None:
            return found
    if abs(hi - lo) <= RESOLVE * (1.0 + abs((lo + hi) / 2)) or depth >= 48:
        raise WindingError(
            f"{w} zeros in box {lo}..{hi} unresolved at the subdivision floor")
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


def find_L_zeros(model, r, target="sphere", box=DEFAULT_BOX,
                 zero_tol=DEFAULT_ZERO_TOL):
    """All zeros of the target function inside the L-plane box.

    Counts the zeros in the box by the argument principle and reads the
    distinct zeros and their multiplicities from the Hankel pencil of the
    contour moments of the same boundary samples.  A box with at most
    MAX_PENCIL zeros whose multiplicities come out as integers polishes its
    simple zeros in one lock-step Newton batch, on the analytic dφ/dL
    carried in the state, and keeps the pencil value of its multiple zeros,
    taken from twice the samples per edge.  A box with more zeros, or whose
    pencil fails at both sample counts, is split in two, and each half is
    counted and searched the same way.  One final batch measures every
    residual and snaps near-real zeros onto the real axis when that does
    not hurt it.  The residual of a zero is its |t|; for mvp that is
    |(φ - 1)/L|.
    """
    _check_target(target)
    lo, hi = complex(box[0]), complex(box[1])
    if not (lo.real < hi.real and lo.imag < hi.imag):
        raise ValueError("box corners must satisfy lo < hi componentwise")
    r = float(r)

    corner_lo, corner_hi = lo, hi
    for attempt in range(6):
        try:
            total = boundary_winding(model, r, target, corner_lo, corner_hi)
            break
        except WindingError as err:
            last = err
            # nudge the outer box outward, by two sample gaps when a zero
            # lies on the boundary so one nudge clears it; the searched
            # region is reported
            bump = max((0.0013 * (attempt + 1)) * (abs(hi - lo) + 1.0),
                       2.0 * err.gap)
            corner_lo = corner_lo - bump * (1 + 1j)
            corner_hi = corner_hi + bump * (1 + 1j)
    else:
        raise WindingError(
            f"outer boundary winding unstable after nudging: {last}")
    if total.winding > MAX_ZEROS:
        raise WindingError(
            f"{total.winding} zeros counted in the box, above the limit of "
            f"{MAX_ZEROS}; search a smaller box")

    found = sorted(_subdivide(model, r, target, corner_lo, corner_hi, total,
                              zero_tol),
                   key=lambda zm: (zm[0].real, zm[0].imag))
    # snap conjugate-symmetric results onto the real axis when that does not
    # hurt the residual
    picks = _least_residual(model, r, target, [
        [z] + ([complex(z.real)] if abs(z.imag) <= 1e-5 * (1.0 + abs(z))
               else []) for z, _ in found])
    zeros = [LZero(L=L, multiplicity=m, residual=res)
             for (L, res), (_, m) in zip(picks, found)]
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
    converged radii accepts a root when |h| < zero_tol times the profile's
    local scale, the larger of 1 and |h| summed over the bracket's ends.
    Where |h| is large enough that the interpolation error exceeds
    zero_tol, one exact Newton step and a second exact profile finish the
    candidates it left near a zero.
    """
    _check_target(target)
    _check_r_max(r_max)
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
    scale = np.abs(h[idx]) + np.abs(h[idx + 1])
    near = (np.abs(h_f) >= zero_tol) & (np.abs(h_f) <= 1e-8 * scale)
    if np.any(near):
        q = np.real(np.conj(h_f) * dh_f)[near]
        dq = (np.abs(dh_f) ** 2 + np.real(np.conj(h_f) * ddh_f))[near]
        cand[near] = np.clip(cand[near] - q / np.where(dq == 0, 1.0, dq),
                             R_MIN, r_max)
        h_f[near] = _profile_target(model, L, cand[near], target)[0]
    # so does the roundoff of h: at r = 19.8 on H³'s ball target, |h| is
    # 1e-8 at a zero located to 1e-15, so a root is judged on the local scale
    tol = zero_tol * np.maximum(1.0, scale)
    roots = sorted(float(c) for c, hv, tv in zip(cand, h_f, tol)
                   if abs(hv) < tv)
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

def bad_radii(model, r1, target="sphere", box=DEFAULT_BOX, r_max=10.0,
              zero_tol=DEFAULT_ZERO_TOL):
    """Radii r2 whose zero set shares a point with that of r1 (in the box).

    Union over the L-zeros of the r1 target of the r-zero sets of the same
    target function, sorted.  Radii closer than SEPARATION are one radius,
    as in find_r_zeros: r-zero sets share radii (r1 is one of every L-zero
    at r1), each located on its own profile, 0 to 5.7e-14 apart for the
    sphere at r1 = 1 and the mvp target at r1 = 2π on the built-in models,
    and a double r-zero (mvp touching 0) only to about 2e-8.
    """
    _check_r_max(r_max)
    zs = find_L_zeros(model, r1, target=target, box=box, zero_tol=zero_tol)
    collected = []
    for z in zs.zeros:
        collected.extend(find_r_zeros(model, z.L, r_max, target=target,
                                      zero_tol=zero_tol))
    collected.sort()
    out = []
    for rr in collected:
        if not out or rr - out[-1] >= SEPARATION:
            out.append(rr)
    return out


def certify_pair(model, r1, r2, target="sphere", box=DEFAULT_BOX,
                 zero_tol=DEFAULT_ZERO_TOL):
    """Certify that the r1 and r2 zero sets are disjoint inside the box.

    Verdicts: no-common-zero-in-box (pairwise separation > 1e-6),
    common-zero-found (joint witness with both residuals < zero_tol), or
    inconclusive.  The certificate only covers the searched box.
    """
    r1, r2 = float(r1), float(r2)
    z1 = find_L_zeros(model, r1, target=target, box=box, zero_tol=zero_tol)
    z2 = find_L_zeros(model, r2, target=target, box=box, zero_tol=zero_tol)
    a, b = z1.values(), z2.values()

    def certificate(verdict, mjr, common=()):
        return RadiusCertificate(model=model, target=target, r1=r1, r2=r2,
                                 box=z1.box, verdict=verdict,
                                 witness=common[0] if common else None,
                                 min_joint_residual=mjr, common=list(common))

    # max(|t_r1|, |t_r2|) at every zero of either set, one batch per
    # radius; both sets are polished, so a shared zero needs no further solve
    pts = np.concatenate([a, b])
    joint = np.zeros(0)
    if pts.size:
        t1, _ = _target_values(model, pts, r1, target)
        t2, _ = _target_values(model, pts, r2, target)
        joint = np.maximum(np.abs(t1), np.abs(t2))
    mjr = float(np.min(joint, initial=math.inf))
    if a.size == 0 or b.size == 0:
        return certificate("no-common-zero-in-box", mjr)

    dist = np.abs(a[:, None] - b[None, :])
    # the two radii's searches locate a shared zero from different boxes and
    # samples, so candidate pairing is looser than the final separation
    # verdict
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
