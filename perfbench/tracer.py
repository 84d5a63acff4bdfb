"""Outside-in tracing: wrap the program's public layer functions from here.

Modules import each other by name (`from .spherical import phi_basis`), so a
function is wrapped at every `harmonic.*` binding that refers to it, plus the
class attribute for `Grid1D` methods.  Nothing under `src/` is edited, and
`uninstall()` puts every original back.

Each call records a span (name, start, end, parent) in memory; a span's
self time is its duration minus the durations of its child spans.  Counters
are taken at the same boundaries.  Wrappers only observe arguments and
results, so traced and untraced runs compute the same values.
"""

import collections
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS_FILE = Path(__file__).with_name("layers.json")

# (metric prefix, module, attribute); one prefix may group several functions
TARGETS = [
    ("spherical.eigen_state_at", "harmonic.spherical", "eigen_state_at"),
    ("spherical.solve_ivp", "harmonic.spherical", "solve_ivp"),
    ("spherical.eigen_profile", "harmonic.spherical", "eigen_profile"),
    ("spherical.phi_ode_values", "harmonic.spherical", "phi_ode_values"),
    ("spherical.phi_basis", "harmonic.spherical", "phi_basis"),
    ("spherical.volterra_coefficients", "harmonic.spherical",
     "volterra_coefficients"),
    ("spherical.phi_series", "harmonic.spherical", "phi_series"),
    ("two_radius.find_L_zeros", "harmonic.two_radius", "find_L_zeros"),
    ("two_radius.boundary_winding", "harmonic.two_radius", "boundary_winding"),
    ("two_radius.find_r_zeros", "harmonic.two_radius", "find_r_zeros"),
    ("two_radius.certify_pair", "harmonic.two_radius", "certify_pair"),
    ("transforms.abel", "harmonic.transforms", "abel"),
    ("transforms.abel_inverse", "harmonic.transforms", "abel_inverse"),
    ("transforms.spherical_fourier", "harmonic.transforms",
     "spherical_fourier"),
    ("transforms.line_convolve", "harmonic.transforms", "line_convolve"),
    ("pde.kg_solve", "harmonic.pde", "kg_solve"),
    ("pde.radial_wave_solve", "harmonic.pde", "radial_wave_solve"),
    ("pde.radial_heat_solve", "harmonic.pde", "radial_heat_solve"),
    ("pde.heat_identity_check", "harmonic.pde", "heat_identity_check"),
    ("density.build", "harmonic.density", "make_euclidean"),
    ("density.build", "harmonic.density", "make_real_hyperbolic"),
    ("density.build", "harmonic.density", "make_damek_ricci"),
    ("density.build", "harmonic.density", "make_custom"),
    ("asymptotics.volume_growth", "harmonic.asymptotics", "volume_growth"),
    ("asymptotics.lambda0_estimate", "harmonic.asymptotics",
     "lambda0_estimate"),
    ("geometry.checks", "harmonic.geometry", "displacement_identity_check"),
    ("geometry.checks", "harmonic.geometry", "projector_convolution_check"),
    ("geometry.checks", "harmonic.geometry", "projector_selfadjoint_check"),
    ("geometry.checks", "harmonic.geometry", "idempotence_check"),
    ("cli.main", "harmonic.cli", "main"),
]
METHOD_TARGETS = [
    ("grids.spline", "harmonic.grids", "Grid1D", "spline"),
    ("grids.interp_matrix", "harmonic.grids", "Grid1D", "interp_matrix"),
]


def layer_units():
    """{per-layer metric name: unit}, in the order layers.json lists them."""
    return {m["name"]: m["unit"]
            for m in json.loads(LAYERS_FILE.read_text())["metrics"]}


class Tracer:
    """Spans and counters for one run; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []              # [name, start, end, parent index]
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self._stack = []             # (span index, child seconds so far)
        self._patched = []           # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        before, after, failed = _HOOKS.get(name, (None, None, None))

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            mark = before(self, args, kwargs) if before else None
            self._stack.append([idx, 0.0])
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if failed:
                    failed(self, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                _, child = self._stack.pop()
                dur = span[2] - span[1]
                self.calls[name] += 1
                self.self_s[name] += dur - child
                if self._stack:
                    self._stack[-1][1] += dur
            if after:
                after(self, args, kwargs, out, mark)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "harmonic"
                                         or n.startswith("harmonic."))]
        for name, modname, attr in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, modname, cls_name, attr in METHOD_TARGETS:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self):
        """Every per-layer metric this tracer owns (0 where never called)."""
        c, s, k = self.calls, self.self_s, self.counts
        basis = c["spherical.phi_basis"]
        zeros = k["two_radius.zeros_found"]
        out = {}
        for name in layer_units():
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = c[prefix]
            elif field == "self_s":
                out[name] = s[prefix]
            else:
                out[name] = k[name]
        out["spherical.phi_basis.hit_ratio"] = (
            k["spherical.phi_basis.hits"] / basis if basis else 0.0)
        out["two_radius.L_points_per_zero"] = (
            k["spherical.eigen_state_at.L_points"] / zeros if zeros else 0.0)
        return out

    def span_records(self):
        return [{"name": n, "start": a, "end": b, "parent": p}
                for n, a, b, p in self.spans]


# -- counters taken at layer boundaries ------------------------------------

def _eigen_state_before(tr, args, kwargs):
    L = kwargs.get("L_values", args[1] if len(args) > 1 else None)
    size = int(np.size(L))
    tr.counts["spherical.eigen_state_at.L_points"] += size
    if size == 1:
        tr.counts["spherical.eigen_state_at.single_L_calls"] += 1


def _solve_ivp_after(tr, args, kwargs, out, mark):
    tr.counts["spherical.solve_ivp.nfev"] += int(out.nfev)


def _winding_raised(tr, exc):
    if type(exc).__name__ == "WindingError":
        tr.counts["two_radius.boundary_winding.raised"] += 1


def _zeros_after(tr, args, kwargs, out, mark):
    tr.counts["two_radius.zeros_found"] += len(out.zeros)


def _phi_ode_before(tr, args, kwargs):
    lams = kwargs.get("lams", args[1] if len(args) > 1 else None)
    r = kwargs.get("r_points", args[2] if len(args) > 2 else None)
    tr.counts["spherical.phi_ode_values.samples"] += (
        int(np.size(lams)) * int(np.size(r)))


def _ode_calls(tr, args, kwargs):
    return tr.calls["spherical.phi_ode_values"]


def _basis_after(tr, args, kwargs, out, mark):
    # a lookup that integrated nothing was served from the cache
    if tr.calls["spherical.phi_ode_values"] == mark:
        tr.counts["spherical.phi_basis.hits"] += 1


def _basis_calls(tr, args, kwargs):
    return tr.calls["spherical.phi_basis"]


def _abel_after(tr, args, kwargs, out, mark):
    # one φ-basis lookup per λ_max round
    tr.counts["transforms.abel.rounds"] += tr.calls["spherical.phi_basis"] - mark


_HOOKS = {
    "spherical.eigen_state_at": (_eigen_state_before, None, None),
    "spherical.solve_ivp": (None, _solve_ivp_after, None),
    "two_radius.boundary_winding": (None, None, _winding_raised),
    "two_radius.find_L_zeros": (None, _zeros_after, None),
    "spherical.phi_ode_values": (_phi_ode_before, None, None),
    "spherical.phi_basis": (_ode_calls, _basis_after, None),
    "transforms.abel": (_basis_calls, _abel_after, None),
}
