"""Command-line front end: reproducible experiments, machine-readable reports.

Curve-valued commands write CSV, verdict-valued commands write JSON; both
embed the run manifest, print floats with 17 significant digits, and contain
nothing time- or host-dependent, so re-running an invocation reproduces the
output bytes exactly.  JSON reports validate against the shipped schema
(schemas/report.schema.json).
`main` frames every run: it parses the flags, refuses a bad number by its
flag's name, resolves the model, builds the manifest (its parameters are the
parsed flags) and writes the error document of any refusal, carrying that
manifest.  Each command only computes and writes its result.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, geometry, pde, profiles, suite
from . import transforms, two_radius
from .density import (make_custom, make_damek_ricci, make_euclidean,
                      make_real_hyperbolic)
from .grids import make_grid
from .spherical import phi as phi_eval


class CLIError(ValueError):
    """User-facing invocation problem (bad flag combination, bad value)."""


# ---------------------------------------------------------------------------
# canonical serialization: deterministic bytes, 17 significant digits
# ---------------------------------------------------------------------------

def _float_str(x):
    """17 significant digits; nan, inf and -inf print as those words."""
    return f"{float(x):.17g}"


def _canon(obj, indent=None, level=0):
    """Canonical JSON text: sorted keys, fixed float format.

    The stdlib encoder hardcodes repr() for floats, so this tiny serializer
    exists to pin the number format; indent=None gives the compact one-line
    form used inside CSV headers.
    """
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return json.dumps(_float_str(x))
        return _float_str(x)
    if isinstance(obj, (complex, np.complexfloating)):
        return _canon({"re": float(obj.real), "im": float(obj.imag)},
                      indent, level)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items())
        if indent is None:
            return "{" + ",".join(f"{json.dumps(k)}:{_canon(v)}"
                                  for k, v in items) + "}"
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        body = ",\n".join(
            f"{pad_in}{json.dumps(k)}: {_canon(v, indent, level + 1)}"
            for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if indent is None:
            return "[" + ",".join(_canon(v) for v in obj) + "]"
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        body = ",\n".join(pad_in + _canon(v, indent, level + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(doc, out):
    _emit(_canon(doc, indent=2) + "\n", out)


def _write_csv(manifest, columns, rows, out):
    """CSV with a manifest line; each value printed as _float_str prints it."""
    fmt = ",".join(["%.17g"] * len(columns))
    lines = ["# manifest: " + _canon(manifest),
             "# columns: " + ",".join(columns)]
    lines += [fmt % tuple(row)
              for row in np.asarray(list(rows), dtype=float).tolist()]
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_complex(text):
    """argparse type of --lambda: 're' or 're,im'."""
    try:
        return complex(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected RE[,IM], got {text!r}")


def _parse_box(text):
    """argparse type of --box: the corners re_lo,im_lo,re_hi,im_hi."""
    try:
        a, b, c, d = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected re_lo,im_lo,re_hi,im_hi, got {text!r}")
    return complex(a, b), complex(c, d)


def _add_model_flags(sp):
    sp.add_argument("--model", default="euclidean",
                    help="euclidean | hyperbolic | damek-ricci "
                         "(with --theta: ignored, custom density)")
    sp.add_argument("--n", type=int, default=None,
                    help="sphere dimension for euclidean/hyperbolic/custom")
    sp.add_argument("--m", type=int, default=None,
                    help="Damek-Ricci horosphere parameter m")
    sp.add_argument("--k", type=int, default=None,
                    help="Damek-Ricci horosphere parameter k")
    sp.add_argument("--theta", default=None, metavar="EXPR",
                    help="density as a sympy expression in r, e.g. "
                         "'sinh(r)**2'; sympy is imported only for this flag")


def _add_seed_flag(sp):
    sp.add_argument("--seed", type=int, default=suite.DEFAULT_SEED,
                    help="seed for randomized checks")


def _add_tol_flag(sp, default, what):
    sp.add_argument("--tol", type=float, default=default,
                    help=f"{what} (default {default:g})")


def _add_zero_flags(sp):
    """The flags of the L-plane zero commands, defaulted as two_radius is."""
    _add_tol_flag(sp, two_radius.DEFAULT_ZERO_TOL, "zero residual tolerance")
    sp.add_argument("--target", default="sphere", choices=two_radius.TARGETS)
    sp.add_argument("--box", metavar="a,b,c,d", default=",".join(
        f"{v:g}" for z in two_radius.DEFAULT_BOX for v in (z.real, z.imag)),
        type=_parse_box, help="search box corners re_lo,im_lo,re_hi,im_hi")


def _resolve_model(args):
    if args.theta is not None:
        if args.n is None:
            raise CLIError("--theta needs --n (theta ~ r^n near 0)")
        return make_custom(args.theta, args.n)
    name = (args.model or "euclidean").lower().replace("_", "-")
    if name in ("euclidean", "flat"):
        return make_euclidean(2 if args.n is None else args.n)
    if name in ("hyperbolic", "real-hyperbolic"):
        return make_real_hyperbolic(2 if args.n is None else args.n)
    if name in ("damek-ricci", "dr"):
        m = 2 if args.m is None else args.m
        k = 1 if args.k is None else args.k
        return make_damek_ricci(m, k)
    raise CLIError(f"unknown model {args.model!r}; use euclidean, "
                   "hyperbolic, damek-ricci, or --theta")


def _model_desc(model):
    if model is None:
        return None
    return {"key": model.key, "name": model.name,
            "n": int(model.n), "H": float(model.H)}


_PROFILES = {"smooth": profiles.smooth_bump, "gauss": profiles.gauss_bump,
             "annulus": profiles.annulus_bump}


def _add_profile_flags(sp, suffix="", default="smooth", width=1.0):
    sp.add_argument(f"--profile{suffix}", default=default,
                    choices=sorted(_PROFILES),
                    help=f"radial datum shape{' for the second factor' if suffix else ''}")
    sp.add_argument(f"--width{suffix}", type=float, default=width)
    sp.add_argument(f"--center{suffix}", type=float, default=1.0,
                    help="annulus profile center (annulus only)")


def _resolve_profile(args, suffix=""):
    name = getattr(args, f"profile{suffix}")
    width = getattr(args, f"width{suffix}")
    center = getattr(args, f"center{suffix}")
    if name == "annulus":
        return profiles.annulus_bump(center=center, width=width)
    return _PROFILES[name](width)


# parsed names that the manifest records in fields of its own, or leaves out
_NOT_PARAMETERS = frozenset({"command", "fn", "model", "n", "m", "k", "theta",
                             "out", "seed", "tol"})

# the name each verdict command records its --tol under
_TOL_NAMES = {"zeros": "zero_tol", "bad-radii": "zero_tol",
              "certify": "zero_tol", "heat-check": "rel_tol"}

# number flags that must be positive too, and those that must not be
# negative; every other one need only be finite
_POSITIVE = frozenset({"width", "width2", "smax", "smax0", "dt", "dr", "rmax",
                       "r", "r1", "r2", "count", "tol"})
_NONNEGATIVE = frozenset({"seed"})


def _check_numbers(args):
    """Refuse a non-finite number flag, a non-positive _POSITIVE one or a
    negative _NONNEGATIVE one."""
    for dest, x in vars(args).items():
        if type(x) in (int, float, complex):
            need = ("positive" if dest in _POSITIVE else
                    "non-negative" if dest in _NONNEGATIVE else "")
            if (not cmath.isfinite(x) or need == "positive" and x <= 0
                    or need == "non-negative" and x < 0):
                raise CLIError(f"--{dest.replace('_', '-')} must be finite"
                               f"{' and ' * bool(need)}{need}, got {x:g}")


def _manifest(args, model):
    """The run manifest; its parameters are the parsed flags."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    tol = _TOL_NAMES.get(args.command)
    return {"command": args.command, "version": __version__,
            "seed": int(getattr(args, "seed", suite.DEFAULT_SEED)),
            "model": _model_desc(model), "parameters": params,
            "tolerances": {tol: args.tol} if tol else {},
            "outputs": [args.out] if args.out else []}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_phi(args, model, mani):
    grid = make_grid(args.rmax, spacing=args.spacing)
    f = phi_eval(model, getattr(args, "lambda"), grid)
    vals = np.asarray(f.values, dtype=complex)
    ders = np.asarray(f.deriv_values, dtype=complex)
    rows = zip(grid.points, vals.real, vals.imag, ders.real, ders.imag)
    _write_csv(mani, ["r", "phi_re", "phi_im", "dphi_re", "dphi_im"],
               rows, args.out)
    return 0


def _cmd_zeros(args, model, mani):
    zs = two_radius.find_L_zeros(model, args.r, target=args.target,
                                 box=args.box, zero_tol=args.tol)
    result = {"count": len(zs.zeros), "winding_total": int(zs.winding_total),
              "zeros": [{"L": z.L, "multiplicity": int(z.multiplicity),
                         "residual": float(z.residual)} for z in zs.zeros]}
    _write_json({"kind": "zero-set", "manifest": mani, "result": result},
                args.out)
    return 0


def _cmd_bad_radii(args, model, mani):
    radii = two_radius.bad_radii(model, args.r1, args.target, box=args.box,
                                 r_max=args.rmax, zero_tol=args.tol)
    result = {"count": len(radii), "radii": [float(r) for r in radii]}
    _write_json({"kind": "bad-radii", "manifest": mani, "result": result},
                args.out)
    return 0


_CONCLUSION = {"common-zero-found": "rejected",
               "no-common-zero-in-box": "accepted",
               "inconclusive": "inconclusive"}


def _cmd_certify(args, model, mani):
    cert = two_radius.certify_pair(model, args.r1, args.r2,
                                   target=args.target, box=args.box,
                                   zero_tol=args.tol)
    result = {"verdict": _CONCLUSION[cert.verdict],
              "zero_search": cert.verdict,
              "witness": cert.witness,
              "min_joint_residual": float(cert.min_joint_residual),
              "common": list(cert.common), "note": cert.note}
    _write_json({"kind": "certificate", "manifest": mani, "result": result},
                args.out)
    return 0


def _cmd_abel(args, model, mani):
    prof = _resolve_profile(args)
    g = transforms.abel(model, prof, s_max=args.smax)
    _write_csv(mani, ["s", "Af"], zip(g.grid.points, g.values), args.out)
    return 0


def _lambda_grid(args):
    """--count equally spaced λ on [0, --lambda-max]."""
    return np.linspace(0.0, args.lambda_max, args.count)


def _cmd_fourier(args, model, mani):
    prof = _resolve_profile(args)
    lams = _lambda_grid(args)
    F = transforms.spherical_fourier(model, prof, lams)
    _write_csv(mani, ["lambda", "F"], zip(lams, F.values), args.out)
    return 0


def _cmd_convolve(args, model, mani):
    f = _resolve_profile(args)
    g = _resolve_profile(args, suffix="2")
    conv = transforms.radial_convolve(model, f, g)
    _write_csv(mani, ["r", "f_star_g"], zip(conv.grid.points, conv.values),
               args.out)
    return 0


def _cmd_wave(args, model, mani):
    prof = _resolve_profile(args)
    states = pde.radial_wave_solve(model, prof, args.t, args.dt, dr=args.dr)
    st = states[-1]
    _write_csv(mani, ["r", "u", "u_t"],
               zip(st.grid.points, st.values, st.info["ut_values"]), args.out)
    return 0


def _cmd_kg(args, model, mani):
    g = transforms.gauss_line(args.width, args.smax0)
    v = pde.kg_solve(model.H, g, args.t)
    vt = v.info["vt_values"]
    _write_csv(mani, ["s", "v", "v_s", "v_t"],
               zip(v.grid.points, v.values, v.deriv_values, vt), args.out)
    return 0


def _cmd_heat(args, model, mani):
    states = pde.radial_heat_solve(model, args.t, args.width, dr=args.dr)
    st = states[-1]
    _write_csv(mani, ["r", "k"], zip(st.r, st.k), args.out)
    return 0


def _cmd_heat_check(args, model, mani):
    lams = _lambda_grid(args)
    measured = pde.heat_identity_check(model, args.t, lams)
    passed = bool(measured <= args.tol)
    result = {"max_rel_err": float(measured), "rel_tol": args.tol,
              "passed": passed,
              "detail": "spectral ratio of evolved vs initial heat data "
                        "against exp(-(lambda^2+H^2/4)t)"}
    _write_json({"kind": "heat-check", "manifest": mani, "result": result},
                args.out)
    return 0 if passed else 1


def _cmd_cheeger(args, model, mani):
    if args.out and Path(args.out).suffix == ".csv":
        raise CLIError(f"--out {args.out!r} is where the CSV goes; give the "
                       "JSON report another suffix")
    csv_path = str(Path(args.out).with_suffix(".csv")) if args.out else None
    if csv_path:
        mani["outputs"] = [args.out, csv_path]
    rep = asymptotics.cheeger_chain_report(model, r_max=args.rmax)
    result = {
        "H": float(rep.H),
        "mu_final": float(rep.mu_final),
        "lambda0_extrapolated": float(rep.lambda0_extrapolated),
        "mu_estimates": [[float(r), float(v)] for r, v in rep.mu_estimates],
        "sphere_ratio": [[float(r), float(v)] for r, v in rep.sphere_ratio],
        "lambda0_estimates": [[float(r), float(v)]
                              for r, v in rep.lambda0_estimates],
        "verdicts": [asdict(v) for v in rep.verdicts],
        "ok": bool(rep.ok),
    }
    _write_json({"kind": "cheeger-report", "manifest": mani,
                 "result": result}, args.out)
    if csv_path:
        rows = [(r, mu, ratio) for (r, mu), (_, ratio)
                in zip(rep.mu_estimates, rep.sphere_ratio)]
        _write_csv(mani, ["r", "log_vol_over_r", "area_over_vol"],
                   rows, csv_path)
    return 0 if rep.ok else 1


def _cmd_geo_check(args, model, mani):
    space = geometry.space_by_tag(args.space)
    rng = np.random.default_rng(args.seed)
    lam = 1.0
    x = space.sphere_param(space.origin, 1.0, rng.uniform(0.0, 2 * math.pi))
    f = geometry.bump_patch(
        space, space.sphere_param(space.origin, 0.7,
                                  rng.uniform(0.0, 2 * math.pi)), 1.1)
    g = geometry.bump_patch(
        space, space.sphere_param(space.origin, 1.3,
                                  rng.uniform(0.0, 2 * math.pi)), 1.0)
    checks = {
        "displacement_identity": geometry.displacement_identity_check(
            space, lam, x, np.linspace(0.3, 2.0, 5)),
        "projector_commutes":
            geometry.projector_convolution_check(space, 1.0, f),
        "projector_selfadjoint":
            geometry.projector_selfadjoint_check(space, f, g, 3.4),
        "projector_idempotent": geometry.idempotence_check(space, f),
    }
    rows = [{"name": n, "measured": float(m), "bound": geometry.BOUNDS[n],
             "passed": bool(m <= geometry.BOUNDS[n])}
            for n, m in checks.items()]
    result = {"checks": rows, "ok": all(row["passed"] for row in rows)}
    _write_json({"kind": "geo-check", "manifest": mani, "result": result},
                args.out)
    return 0 if result["ok"] else 1


def _cmd_suite(args, model, mani):
    # progress goes to stderr so a bare `harmonic suite` still leaves
    # parseable JSON on stdout
    def progress(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} [{res.criterion:2d}] {res.name:40s} "
              f"{_float_str(res.measured)} {res.comparison} "
              f"{_float_str(res.bound)}  ({res.seconds:.2f}s)",
              file=sys.stderr, flush=True)

    rep = suite.run_suite(quick=args.quick, seed=args.seed,
                          progress=progress)
    # wall-clock seconds stay out of the file so reruns are byte-identical
    result = {
        "total": len(rep.checks),
        "passed_count": sum(c.passed for c in rep.checks),
        "all_passed": bool(rep.all_passed),
        "quick": bool(rep.quick),
        "checks": [{"name": c.name, "criterion": int(c.criterion),
                    "passed": bool(c.passed), "measured": float(c.measured),
                    "bound": float(c.bound), "comparison": c.comparison,
                    "detail": c.detail} for c in rep.checks],
    }
    _write_json({"kind": "suite-report", "manifest": mani, "result": result},
                args.out)
    print(f"{result['passed_count']}/{result['total']} checks passed "
          f"({rep.seconds:.1f}s cpu)", file=sys.stderr)
    return 0 if rep.all_passed else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _command(sub, name, help, fn, model=True):
    """A subcommand with --out, the model flags unless model is False, and
    fn, which main calls as fn(args, model, manifest)."""
    sp = sub.add_parser(name, help=help)
    if model:
        _add_model_flags(sp)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=fn)
    return sp


@functools.cache
def _build_parser():
    """The argparse tree, built at the first main call and then reused."""
    p = argparse.ArgumentParser(
        prog="harmonic",
        description="Numerical workbench for noncompact harmonic spaces "
                    "defined by a radial volume density.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = _command(sub, "phi", "radial eigenfunction samples (CSV)", _cmd_phi)
    sp.add_argument("--lambda", type=_parse_complex, default="1,0",
                    metavar="RE[,IM]")
    sp.add_argument("--rmax", type=float, default=10.0)
    sp.set_defaults(spacing=0.05)

    sp = _command(sub, "zeros", "eigenvalue-plane zeros of a radius "
                                "functional (JSON)", _cmd_zeros)
    _add_zero_flags(sp)
    sp.add_argument("--r", type=float, default=1.0)

    sp = _command(sub, "bad-radii", "second radii sharing a zero with r1 "
                                    "(JSON)", _cmd_bad_radii)
    _add_zero_flags(sp)
    sp.add_argument("--r1", type=float, default=1.0)
    sp.add_argument("--rmax", type=float, default=10.0)

    sp = _command(sub, "certify", "two-radius disjointness certificate "
                                  "(JSON)", _cmd_certify)
    _add_zero_flags(sp)
    sp.add_argument("--r1", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)

    sp = _command(sub, "abel", "Abel transform of a radial bump (CSV)",
                  _cmd_abel)
    _add_profile_flags(sp)
    sp.add_argument("--smax", type=float, default=None)

    sp = _command(sub, "fourier", "spherical Fourier transform (CSV)",
                  _cmd_fourier)
    _add_profile_flags(sp)
    sp.add_argument("--lambda-max", type=float, default=8.0)
    sp.add_argument("--count", type=int, default=161)

    sp = _command(sub, "convolve", "radial convolution of two bumps (CSV)",
                  _cmd_convolve)
    _add_profile_flags(sp, width=0.35, default="gauss")
    _add_profile_flags(sp, suffix="2", width=0.45, default="gauss")

    sp = _command(sub, "wave", "radial wave slice at time t (CSV)", _cmd_wave)
    _add_profile_flags(sp)
    sp.add_argument("--t", type=float, default=3.0)
    sp.add_argument("--dt", type=float, default=0.004)
    sp.add_argument("--dr", type=float, default=0.01)

    sp = _command(sub, "kg", "Klein-Gordon line evolution from a Gaussian "
                             "(CSV)", _cmd_kg)
    sp.add_argument("--width", type=float, default=0.5)
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--smax0", type=float, default=4.0,
                    help="initial datum domain half-length")

    sp = _command(sub, "heat", "radial heat profile at time t (CSV)",
                  _cmd_heat)
    sp.add_argument("--t", type=float, default=0.5)
    sp.add_argument("--width", type=float, default=0.3)
    sp.add_argument("--dr", type=float, default=0.01)

    sp = _command(sub, "heat-check", "heat multiplier identity verdict "
                                     "(JSON; exit 1 on failure)",
                  _cmd_heat_check)
    _add_tol_flag(sp, pde.HEAT_REL_TOL, "relative tolerance")
    sp.add_argument("--t", type=float, default=pde.HEAT_T)
    sp.add_argument("--lambda-max", type=float, default=pde.HEAT_LAMBDAS[-1])
    sp.add_argument("--count", type=int, default=len(pde.HEAT_LAMBDAS))

    sp = _command(sub, "cheeger", "growth chain and spectral bottom report "
                                  "(JSON + CSV)", _cmd_cheeger)
    sp.add_argument("--rmax", type=float, default=asymptotics.CHEEGER_R_MAX)

    sp = _command(sub, "geo-check", "non-radial identities on an explicit 2D "
                                    "space (JSON)", _cmd_geo_check, model=False)
    _add_seed_flag(sp)
    sp.add_argument("--space", default="plane",
                    choices=["plane", "euclidean", "hyperbolic_plane", "h2"])

    sp = _command(sub, "suite", "full verification battery (JSON; exit 0 iff "
                                "all checks pass)", _cmd_suite, model=False)
    _add_seed_flag(sp)
    sp.add_argument("--quick", action="store_true",
                    help="skip the slowest checks (still >= 40 checks)")

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    model = mani = None
    try:
        _check_numbers(args)
        if "model" in args:
            model = _resolve_model(args)
        mani = _manifest(args, model)
        return args.fn(args, model, mani)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        doc = {"kind": "error", "manifest": mani or _manifest(args, model),
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        _write_json(doc, args.out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
