"""The two seeded workloads: request lists, execution and answer checks.

A workload's request list is a number of rounds; every round has the same
mix of request kinds, with parameters drawn from the seed out of continuous
ranges, so inputs vary with the seed while the work per round stays nearly
constant.  A spectral round ends with the CLI request mix: the CLI layers
share a workload rather than have their own, so that within a fixed total
time for all runs each run lasts long enough to average over the slow and
fast phases of a shared host.
`execute` is the timed call into the program; `check` compares its output
with the closed forms in `oracles` and is never timed.  Checks call no layer
of `harmonic` (only the formulas of the input profiles), so they neither
warm its caches nor show up in a trace.

Outcomes: "ok"; "wrong" (an answer outside its bound, which makes the run
incorrect); "refused" (the program raised or reported failure) and
"incomplete" (every value returned is right but some are missing): both
count in `failed` and the error rate, and are never steered around.
"""

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

import oracles

# nominal seconds per round (2 Xeon cores, at the commit that added this
# benchmark); --seconds / this gives the round count, so both sides of a
# comparison run identical inputs
ROUND_SECONDS = {"zero_search": 9.0, "spectral": 13.5}

DEFAULT_BOX = (-60 - 8j, 5 + 8j)


def n_rounds(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _draw(rng, lo, hi):
    return lo + rng.random() * (hi - lo)


# ---------------------------------------------------------------------------
# request lists
# ---------------------------------------------------------------------------

# Radius ranges in which the zero count is fixed, every zero stays well
# away from the box edge Re L = -60 (a zero next to the edge costs many
# extra samples).  The cost of a request moves with r (certify_pair's by up
# to a third over 0.04), so the ranges are 0.01 wide: the seed changes the
# inputs but hardly the amount of work.
_ZERO_RANGES = [
    ("euclidean(0)", "sphere", 0.805, 0.815),
    ("euclidean(0)", "ball", 0.92, 0.93),
    ("euclidean(2)", "sphere", 0.91, 0.92),
    ("euclidean(2)", "ball", 0.745, 0.755),
    ("real_hyperbolic(2)", "sphere", 0.525, 0.535),
    ("real_hyperbolic(2)", "ball", 0.72, 0.73),
]


def _zero_search_round(rng, index):
    reqs = [{"kind": "find_L_zeros", "model": model, "target": target,
             "r": _draw(rng, lo, hi)} for model, target, lo, hi in _ZERO_RANGES]
    for ratio, value, lo, hi, verdict in (
            ("3", 3.0, 0.525, 0.535, "common-zero-found"),
            ("sqrt2", math.sqrt(2.0), 0.855, 0.865, "no-common-zero-in-box")):
        r1 = _draw(rng, lo, hi)
        reqs.append({"kind": "certify_pair", "model": "euclidean(0)",
                     "r1": r1, "r2": r1 * value, "ratio": ratio,
                     "expect": verdict})
    # r1 < 0.98 keeps the third zero -(5π/2r1)² clear of the box edge
    reqs.append({"kind": "bad_radii", "model": "euclidean(0)",
                 "r1": _draw(rng, 0.81, 0.82), "r_max": 10.0})
    reqs.append({"kind": "mvp", "model": "euclidean(0)", "r": 2 * math.pi,
                 "box": [-3.0, -3.0, 1.0, 3.0]})
    return reqs


def _spectral_round(rng, index):
    # each datum feeds 2-3 requests, so later lookups of its φ-basis hit;
    # smooth bumps are not round-tripped: abel_inverse resolves analytic
    # data only (a smooth bump of support 1.3 comes back 4.6e-5 off)
    # narrow ranges: the work (λ_max rounds, grid sizes, fold sizes) and
    # the memory of a request stay nearly constant across seeds
    smooth = {"profile": "smooth", "R": _draw(rng, 1.45, 1.55)}
    gauss = {"profile": "gauss", "width": _draw(rng, 0.40, 0.44)}
    annulus = {"profile": "annulus", "center": _draw(rng, 0.85, 0.95),
               "width": _draw(rng, 0.18, 0.21)}
    partner = {"profile": "gauss", "width": _draw(rng, 0.38, 0.42)}
    return [
        {"kind": "abel", "model": "euclidean(2)", "datum": smooth},
        {"kind": "kg_drift", "model": "euclidean(2)", "datum": smooth,
         "t": _draw(rng, 5.0, 5.5)},
        {"kind": "fourier", "model": "euclidean(2)", "datum": partner,
         "lambda_max": _draw(rng, 6.0, 8.0)},
        {"kind": "convolve", "model": "euclidean(2)", "datum": smooth,
         "partner": partner},
        {"kind": "abel", "model": "real_hyperbolic(2)", "datum": gauss},
        {"kind": "roundtrip", "model": "real_hyperbolic(2)", "datum": gauss},
        {"kind": "wave_to_kg", "model": "real_hyperbolic(2)", "datum": gauss,
         "T": _draw(rng, 1.2, 1.3)},
        {"kind": "abel", "model": "damek_ricci(2,1)", "datum": annulus},
        {"kind": "roundtrip", "model": "damek_ricci(2,1)", "datum": annulus},
        {"kind": "kg_drift", "model": "damek_ricci(2,1)", "datum": annulus,
         "t": _draw(rng, 5.0, 5.5)},
    ]


# The refusals below were reproduced at the commit that introduced this
# benchmark; they stay in every round so a fix shows as a lower error rate.
KNOWN_REFUSALS = [
    ["cheeger", "--model", "damek-ricci", "--m", "4", "--k", "3",
     "--rmax", "30"],
    ["cheeger", "--model", "damek-ricci", "--m", "4", "--k", "3",
     "--rmax", "40"],
    ["cheeger", "--model", "hyperbolic", "--n", "5", "--rmax", "30"],
    ["phi", "--model", "damek-ricci", "--rmax", "2"],
]

_DR_PAIRS = [(2, 1), (1, 1), (4, 3), (2, 0), (6, 1)]

# five models of each family; command j of a family in round i runs model
# (i + j) mod 5, so every run covers the same models in the same places and
# the seed draws only the continuous flags
_MODELS = {
    "euclidean": [["--n", str(n)] for n in range(5)],
    "hyperbolic": [["--n", str(n)] for n in range(1, 6)],
    "damek-ricci": [["--m", str(m), "--k", str(k)] for m, k in _DR_PAIRS],
}


def _model_flags(fam, index, j):
    options = _MODELS[fam]
    return ["--model", fam] + options[(index + j) % len(options)]


def _num(x):
    return f"{x:.6g}"


_FAMILIES = ("euclidean", "hyperbolic", "damek-ricci")


def _cli_round(rng, index):
    # every round runs each command on every family it takes, so rounds are
    # alike
    cmds = [list(a) for a in KNOWN_REFUSALS]
    for family in _FAMILIES:
        # phi: a low λ·rmax draw (series path) and a high one (ODE path),
        # complex λ on euclidean
        for j, regime in enumerate(("series", "ode")):
            lam = rng.uniform(0.2, 1.5) if regime == "series" \
                else rng.uniform(3.0, 6.0)
            rmax = rng.uniform(4.0, 10.0)
            lam_arg = _num(lam)
            if regime == "series" and family == "euclidean":
                lam_arg += "," + _num(rng.uniform(0.1, 0.6))
            cmds.append(["phi"] + _model_flags(family, index, j)
                        + ["--lambda", lam_arg, "--rmax", _num(rmax)])
        cmds.append(["wave"] + _model_flags(family, index, 2)
                    + ["--profile", ("smooth", "gauss", "annulus")[index % 3],
                       "--width", _num(rng.uniform(0.5, 1.2)),
                       "--t", _num(rng.uniform(1.0, 3.0))])
        cmds.append(["heat"] + _model_flags(family, index, 3)
                    + ["--t", _num(rng.uniform(0.2, 1.0)),
                       "--width", _num(rng.uniform(0.2, 0.5))])
        cmds.append(["heat-check"] + _model_flags(family, index, 4)
                    + ["--t", _num(rng.uniform(0.2, 0.8))])
        if family != "euclidean":
            cmds.append(["cheeger"] + _model_flags(family, index, 5)
                        + ["--rmax", _num(rng.uniform(35.0, 40.0))])
    for space in ("plane", "h2"):
        cmds.append(["geo-check", "--space", space,
                     "--seed", str(rng.randint(0, 10**6))])
    return [{"kind": "cli", "argv": a} for a in cmds]


def _spectral_and_cli_round(rng, index):
    return _spectral_round(rng, index) + _cli_round(rng, index)


_ROUNDS = {"zero_search": _zero_search_round,
           "spectral": _spectral_and_cli_round}


def make_requests(workload, seed, rounds):
    """The seeded request list: a pure function of (workload, seed, rounds)."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i in range(rounds):
        for req in _ROUNDS[workload](rng, i):
            req["round"] = i
            out.append(req)
    return out


# ---------------------------------------------------------------------------
# set-up: models and data built before the first timed request
# ---------------------------------------------------------------------------

class Plan:
    """Everything a workload needs at request time."""

    def __init__(self, seed, requests):
        import harmonic
        self.requests = requests
        self.harmonic = harmonic
        self.models = {}
        self.profiles = {}
        self.tmp = None
        self.validator = None
        self.bytes_out = 0
        if any(req["kind"] == "cli" for req in requests):
            import jsonschema
            schema_path = (Path(harmonic.__file__).parent / "schemas"
                           / "report.schema.json")
            schema = json.loads(schema_path.read_text(encoding="utf-8"))
            self.validator = jsonschema.Draft7Validator(schema)
            # a relative, seed-named path: it is embedded in every report, and
            # traced and untraced runs must write identical bytes
            self.tmp = Path("perfbench", "out", f"cli-{seed}")
            self.tmp.mkdir(parents=True, exist_ok=True)
        constructors = {"euclidean(0)": lambda: harmonic.make_euclidean(0),
                    "euclidean(2)": lambda: harmonic.make_euclidean(2),
                    "real_hyperbolic(2)":
                        lambda: harmonic.make_real_hyperbolic(2),
                    "damek_ricci(2,1)": lambda: harmonic.make_damek_ricci(2, 1)}
        for req in requests:
            if req["kind"] == "cli":
                continue
            if req["model"] not in self.models:
                self.models[req["model"]] = constructors[req["model"]]()
            for key in ("datum", "partner"):
                if key in req:
                    self.profile(req[key])

    def profile(self, spec):
        key = json.dumps(spec, sort_keys=True)
        if key not in self.profiles:
            p = self.harmonic.profiles
            if spec["profile"] == "smooth":
                prof = p.smooth_bump(spec["R"])
            elif spec["profile"] == "gauss":
                prof = p.gauss_bump(spec["width"])
            else:
                prof = p.annulus_bump(spec["center"], spec["width"])
            self.profiles[key] = prof
        return self.profiles[key]

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# timed execution
# ---------------------------------------------------------------------------

def execute(plan, req, index):
    """The timed call into the program for one request."""
    h = plan.harmonic
    kind = req["kind"]
    if kind == "cli":
        out = plan.tmp / f"r{index}.{_suffix(req['argv'][0])}"
        return h.cli.main(list(req["argv"]) + ["--out", str(out)]), out
    model = plan.models[req["model"]]
    if kind == "find_L_zeros":
        return h.two_radius.find_L_zeros(model, req["r"], target=req["target"],
                                         box=DEFAULT_BOX)
    if kind == "certify_pair":
        return h.two_radius.certify_pair(model, req["r1"], req["r2"],
                                         box=DEFAULT_BOX)
    if kind == "bad_radii":
        return h.two_radius.bad_radii(model, req["r1"], "sphere",
                                      box=DEFAULT_BOX, r_max=req["r_max"])
    if kind == "mvp":
        a, b, c, d = req["box"]
        return h.two_radius.find_L_zeros(model, req["r"], target="mvp",
                                         box=(complex(a, b), complex(c, d)))
    f = plan.profile(req["datum"])
    tr, pde = h.transforms, h.pde
    if kind == "abel":
        return tr.abel(model, f)
    if kind == "roundtrip":
        return tr.abel_inverse(model, tr.abel(model, f))
    if kind == "kg_drift":
        g = tr.abel(model, f)
        e1 = pde.kg_solve(model.H, g, 1.0).info["energy"]
        return e1, pde.kg_solve(model.H, g, req["t"]).info["energy"]
    if kind == "fourier":
        return tr.spherical_fourier(model, f, _fourier_lambdas(req))
    if kind == "convolve":
        return tr.radial_convolve(model, f, plan.profile(req["partner"]))
    if kind == "wave_to_kg":
        return pde.wave_to_kg_check(model, f, req["T"], dt=0.002)
    raise ValueError(f"unknown request kind {kind!r}")


def _fourier_lambdas(req):
    return np.linspace(0.0, req["lambda_max"], 33)


def _suffix(command):
    return "csv" if command in ("phi", "wave", "heat") else "json"


# ---------------------------------------------------------------------------
# untimed checks
# ---------------------------------------------------------------------------

class Wrong(Exception):
    """An answer outside its bound."""


def _close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(b))


def _L_list(zs):
    return [[z.L.real, z.L.imag, z.multiplicity] for z in zs.zeros]


def _check_zero_set(req, zs):
    lo, hi = zs.box
    edge = 1e-6
    want = [L for L in oracles.L_zeros(req["model"], req["target"], req["r"],
                                       lo.real - 1.0)
            if L <= hi.real]
    # a zero within `edge` of the searched box edge may fall either way
    sure = [L for L in want if L >= lo.real + edge * (1 + abs(L))]
    got = sorted(z.L.real for z in zs.zeros)
    if not (len(sure) <= len(got) <= len(want)):
        raise Wrong(f"{len(got)} zeros, expected {len(sure)}..{len(want)}")
    worst = 0.0
    for z in zs.zeros:
        ref = min(want, key=lambda L: abs(L - z.L))
        worst = max(worst, abs(z.L - ref) / (1 + abs(ref)))
        if z.multiplicity != 1:
            raise Wrong(f"multiplicity {z.multiplicity} at {z.L}")
    if worst > 1e-8:
        raise Wrong(f"zero off its closed form by {worst:.2e} (relative)")
    return f"{len(got)} zeros, worst relative error {worst:.1e}"


def _check_cli(plan, req, rc, path):
    argv = req["argv"]
    cmd = argv[0]
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    plan.bytes_out += len(text.encode("utf-8"))
    sidecar = path.with_suffix(".csv")
    if cmd == "cheeger" and sidecar.exists():
        plan.bytes_out += sidecar.stat().st_size
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if rc not in (0, 1):
        raise Wrong(f"exit code {rc}")
    if text.startswith("{"):
        doc = json.loads(text)
        errors = sorted(plan.validator.iter_errors(doc), key=str)
        if errors:
            raise Wrong(f"report fails the schema: {errors[0].message}")
        if doc["kind"] == "error":
            if rc != 1:
                raise Wrong("error document with exit code 0")
            err = doc["error"]
            return "refused", f"{err['type']}: {err['message']}", digest
    else:
        lines = text.splitlines()
        if rc != 0 or len(lines) < 3 or not lines[0].startswith("# manifest: "):
            raise Wrong("CSV output without manifest or rows")
        mani = json.loads(lines[0][len("# manifest: "):])
        errors = list(plan.validator.iter_errors(
            {"kind": cmd, "manifest": mani, "result": {}}))
        if errors:
            raise Wrong(f"CSV manifest fails the schema: {errors[0].message}")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        if not np.all(np.isfinite(rows)):
            raise Wrong("non-finite CSV values")
        return "ok", _check_csv(cmd, argv, mani, rows), digest
    return _check_report(cmd, argv, rc, doc) + (digest,)


def _family(argv):
    flags = dict(zip(argv[1::2], argv[2::2]))
    fam = flags.get("--model", "euclidean")
    if fam in ("euclidean", "hyperbolic"):
        return fam, {"n": int(flags.get("--n", 2))}
    return fam, {"m": int(flags.get("--m", 2)), "k": int(flags.get("--k", 1))}


def _check_csv(cmd, argv, mani, rows):
    fam, par = _family(argv)
    if cmd == "phi":
        lam = complex(mani["parameters"]["lambda"]["re"],
                      mani["parameters"]["lambda"]["im"])
        pick = rows[:: max(1, len(rows) // 24)]
        ref = oracles.phi(fam, lam, pick[:, 0], **par)
        got = pick[:, 1] + 1j * pick[:, 2]
        err = float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))))
        if err > 1e-8:
            raise Wrong(f"φ off the closed form by {err:.2e}")
        return f"φ within {err:.1e} of the closed form"
    if cmd == "heat":
        r, k = rows[:, 0], rows[:, 1]
        n = par.get("n", par.get("m", 0) + par.get("k", 0))
        dr = float(r[1] - r[0])
        mass = oracles.sphere_volume(n) * float(
            np.sum(oracles.theta(fam, r, **par) * k)) * dr
        if abs(mass - 1.0) > 1e-8:
            raise Wrong(f"heat mass {mass!r}, expected 1")
        return f"mass 1 {mass - 1.0:+.1e}"
    # wave: nothing moves faster than unit speed (plus the stencil's reach)
    flags = dict(zip(argv[1::2], argv[2::2]))
    t, width = float(flags["--t"]), float(flags["--width"])
    profile = flags["--profile"]
    support = width if profile == "smooth" else (
        7.5 * width if profile == "gauss" else 1.0 + 7.5 * width)
    r, u = rows[:, 0], rows[:, 1]
    far = r > support + t + 0.5
    leak = float(np.max(np.abs(u[far]), initial=0.0)) / float(np.max(np.abs(u)))
    if leak > 1e-6:
        raise Wrong(f"wave front ahead of the light cone: {leak:.2e}")
    return f"beyond the cone {leak:.1e}"


def _check_report(cmd, argv, rc, doc):
    res = doc["result"]
    if cmd == "cheeger":
        fam, par = _family(argv)
        H = oracles.mean_curvature(fam, **par)
        if not _close(res["H"], H, 1e-6):
            raise Wrong(f"H = {res['H']}, expected {H}")
        if not res["ok"]:
            bad = [v["name"] for v in res["verdicts"] if v["status"] == "fail"]
            return "refused", f"verdicts failed: {bad}"
        if abs(res["lambda0_extrapolated"] - H * H / 4) > 0.02 * H * H / 4:
            raise Wrong(f"λ₀ = {res['lambda0_extrapolated']}, H²/4 = {H*H/4}")
        return "ok", f"H = {H:g}, λ₀ within 2% of H²/4"
    ok = res["passed"] if cmd == "heat-check" else res["ok"]
    if bool(ok) != (rc == 0):
        raise Wrong(f"exit code {rc} disagrees with verdict {ok}")
    if cmd == "heat-check" and ok and res["max_rel_err"] > res["rel_tol"]:
        raise Wrong("passed with max_rel_err above rel_tol")
    if not ok:
        return "refused", "verdict failed"
    return "ok", "verdict passed"


def check(plan, req, out):
    """(status, detail, digest values) for one executed request."""
    kind = req["kind"]
    if kind == "cli":
        rc, path = out
        status, detail, digest = _check_cli(plan, req, rc, path)
        return status, detail, [rc, digest]
    if kind == "find_L_zeros":
        return "ok", _check_zero_set(req, out), _L_list(out)
    if kind == "mvp":
        # double zeros are located only to the square root of the residual
        want = oracles.mvp_zeros_e0(req["r"], out.box[0].real)
        got = out.zeros
        if len(got) != len(want) or any(z.multiplicity != 2 for z in got):
            raise Wrong(f"expected double zeros {want}, got {_L_list(out)}")
        err = max((abs(z.L - w) for z, w in zip(got, want)), default=0.0)
        if err > 1e-6:
            raise Wrong(f"double zeros off {want} by {err:.2e}")
        return "ok", f"{len(want)} double zeros within {err:.1e}", \
            _L_list(out)
    if kind == "certify_pair":
        cert = out
        witness = cert.witness
        values = [cert.verdict, witness and [witness.real, witness.imag]]
        if cert.verdict != req["expect"]:
            raise Wrong(f"verdict {cert.verdict}, expected {req['expect']}")
        if witness is None:
            return "ok", cert.verdict, values
        lo = cert.box[0].real
        common = oracles.common_zeros(
            oracles.L_zeros("euclidean(0)", "sphere", req["r1"], lo),
            oracles.L_zeros("euclidean(0)", "sphere", req["r2"], lo))
        if not common or not _close(witness, common[0], 1e-8):
            raise Wrong(f"witness {witness}, expected {common[:1]}")
        return "ok", f"witness {witness.real:.12g}", values
    if kind == "bad_radii":
        want = oracles.odd_odd_bad_radii(req["r1"], DEFAULT_BOX[0].real,
                                         req["r_max"])
        err = max((min(abs(r - w) for w in want) for r in out), default=0.0)
        if err > 1e-9 or len(out) > len(want):
            raise Wrong(f"radii off the odd/odd set by {err:.2e}")
        detail = f"{len(out)} of {len(want)} radii, within {err:.1e}"
        return ("ok" if len(out) == len(want) else "incomplete"), detail, \
            list(out)
    return _check_spectral(plan, req, out)


def _check_spectral(plan, req, out):
    kind, key = req["kind"], req["model"]
    f = plan.profile(req["datum"])
    if kind == "abel":
        g = out
        s = g.grid.points
        peak = float(np.max(np.abs(g.values)))
        beyond = s > f.support + 1e-9
        leak = float(np.max(np.abs(g.values[beyond]), initial=0.0)) / peak
        if leak > 1e-8:
            raise Wrong(f"Paley-Wiener leak {leak:.2e}")
        detail = f"leak {leak:.1e}"
        if key in ("euclidean(2)", "real_hyperbolic(2)"):
            ref = oracles.abel_closed_form(key, f.f, f.support, s)
            err = float(np.max(np.abs(g.values - ref))) / peak
            if err > 1e-8:
                raise Wrong(f"Abel image off the closed form by {err:.2e}")
            detail += f", closed form within {err:.1e}"
        return "ok", detail, [peak, float(g.values[len(s) // 3])]
    if kind == "roundtrip":
        truth = f.f(out.grid.points)
        rel = float(np.max(np.abs(out.values - truth)) / np.max(np.abs(truth)))
        if rel > 1e-6:
            raise Wrong(f"round trip error {rel:.2e}")
        return "ok", f"round trip {rel:.1e}", [rel]
    if kind == "kg_drift":
        e1, e2 = out
        drift = abs(e2 / e1 - 1.0)
        if drift > 1e-6:
            raise Wrong(f"energy drift {drift:.2e}")
        return "ok", f"drift {drift:.1e}", [e1, e2]
    if kind == "wave_to_kg":
        if not out <= 1e-4:
            raise Wrong(f"wave/KG gap {out:.2e}")
        return "ok", f"gap {out:.1e}", [out]
    def transform(prof, lams):
        nodes, w = oracles.gauss_legendre_panels(
            0.0, prof.support, max(16, math.ceil(prof.support / 0.05)))
        return oracles.spherical_fourier_nodes(key, nodes, w, prof.f(nodes),
                                               lams)

    if kind == "fourier":
        ref = transform(f, _fourier_lambdas(req))
        rel = float(np.max(np.abs(out.values - ref)) / np.max(np.abs(ref)))
        if rel > 1e-8:
            raise Wrong(f"F f off its quadrature by {rel:.2e}")
        return "ok", f"transform within {rel:.1e}", \
            [float(v) for v in out.values[::8]]
    # convolve: F(f*g) = Ff·Fg on λ ∈ [0, 6]
    g = plan.profile(req["partner"])
    lams = np.linspace(0.0, 6.0, 25)

    grid = out.grid
    Fc = oracles.spherical_fourier_nodes(key, grid.nodes, grid.node_weights,
                                         out.exact_node_values, lams)
    prod = transform(f, lams) * transform(g, lams)
    rel = float(np.max(np.abs(Fc - prod)) / np.max(np.abs(prod)))
    if rel > 1e-6:
        raise Wrong(f"F(f*g) off Ff·Fg by {rel:.2e}")
    return "ok", f"factorization {rel:.1e}", [float(v) for v in Fc[::6]]
