"""The benchmark tracer (perfbench/tracer.py) wraps program functions by name.

Every function, module global and method it names must keep resolving: it
looks each one up with getattr when it installs, so a missing name breaks
`perfbench/run.py --trace 1`.  Four names stay for it until the tracer
skips a name its module no longer defines.  `spherical.solve_ivp`, where
the tracer counts ODE solves (phi_ode_values, eigen_state_at and
eigen_profile, which sum the piecewise series, make none), and
`Grid1D.interp_matrix`, which no program code calls, would otherwise go.
`spherical.volterra_coefficients` and `spherical.phi_series`, which only
the suite's criterion-2 and phi_paths_agree_dr21 checks call, keep their
names.  The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from harmonic import spherical
from harmonic.density import make_euclidean

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
E2 = make_euclidean(2)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_FILE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(tracer):
    """(owner, attribute) -> object for every traced name."""
    out = {}
    for _, modname, attr in tracer.TARGETS:
        mod = importlib.import_module(modname)
        out[(mod, attr)] = getattr(mod, attr)
    for _, modname, cls_name, attr in tracer.METHOD_TARGETS:
        cls = getattr(importlib.import_module(modname), cls_name)
        out[(cls, attr)] = cls.__dict__[attr]
    return out


def _module_globals():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None
            and (name == "harmonic" or name.startswith("harmonic."))}


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS and tracer.METHOD_TARGETS
    assert all(callable(obj) for obj in _bindings(tracer).values())


def test_tracer_counts_each_integrator_solve_and_uninstalls():
    tracer = _load_tracer()
    before, globals_before = _bindings(tracer), _module_globals()
    tr = tracer.Tracer().install()
    try:
        assert spherical.solve_ivp is not before[(spherical, "solve_ivp")]
        r = np.linspace(0.0, 2.0, 9)
        # the piecewise series steps no ODE, at any |L|
        spherical.phi_ode_values(E2, [1.0, 2.0], r)
        spherical.eigen_state_at(E2, [-1.0 + 0.5j, -400.0], 1.5)
        spherical.eigen_profile(E2, -1.0 + 0.5j, r)
    finally:
        tr.uninstall()
    assert tr.calls["spherical.solve_ivp"] == 0
    for name in ("phi_ode_values", "eigen_state_at", "eigen_profile"):
        assert tr.calls[f"spherical.{name}"] == 1
    after = _bindings(tracer)
    assert all(after[key] is obj for key, obj in before.items())
    globals_after = _module_globals()
    for name, names in globals_before.items():
        assert all(globals_after[name][k] is v for k, v in names.items())
