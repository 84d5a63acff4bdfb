"""The built-in models never load sympy; only a custom density does.
mpmath, which only the suite's DR ₂F₁ oracle uses, stays unloaded at the same
stages.

Each check runs in a fresh interpreter with PYTHONPATH=src, because the
test session itself imports sympy as an oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
loaded, mp_loaded = {}, {}

def mark(stage):
    loaded[stage] = "sympy" in sys.modules
    mp_loaded[stage] = "mpmath" in sys.modules

import harmonic.cli as cli
mark("import harmonic.cli")
from harmonic.density import (builtin_models, make_custom, make_damek_ricci,
                              make_real_hyperbolic)
builtin_models()
mark("builtin_models()")
make_real_hyperbolic(5)
make_damek_ricci(4, 3)
mark("H6 and DR(4,3)")
rc = cli.main(["phi", "--model", "damek-ricci", "--lambda", "1.3,0.2",
               "--rmax", "3", "--out", sys.argv[1]])
mark("cli phi")
custom = make_custom("sinh(r)**2", 2)
print(json.dumps({"loaded": loaded, "mpmath_loaded": mp_loaded, "rc": rc,
                  "custom_H": custom.H,
                  "custom_loaded": "sympy" in sys.modules}))
"""
STAGES = ["import harmonic.cli", "builtin_models()", "H6 and DR(4,3)",
          "cli phi"]


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold") / "phi.dat"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out)], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", STAGES)
def test_builtin_path_leaves_sympy_unloaded(cold_run, stage):
    assert cold_run["loaded"][stage] is False


@pytest.mark.parametrize("stage", STAGES)
def test_builtin_path_leaves_mpmath_unloaded(cold_run, stage):
    assert cold_run["mpmath_loaded"][stage] is False


def test_builtin_cli_command_succeeds_without_sympy(cold_run):
    assert cold_run["rc"] == 0


def test_custom_density_imports_sympy_and_works(cold_run):
    assert cold_run["custom_loaded"] is True
    assert cold_run["custom_H"] == pytest.approx(2.0, abs=1e-6)
