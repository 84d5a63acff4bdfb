"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that request lists are a pure function of the seed, that the
oracles reproduce answers the program's own suite knows, that tracing does
not change answers, and that each workload bypasses the layers it should.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_SECONDS))
def test_same_seed_same_requests(workload):
    a = json.dumps(workloads.make_requests(workload, 7, 2))
    assert a == json.dumps(workloads.make_requests(workload, 7, 2))
    assert a != json.dumps(workloads.make_requests(workload, 8, 2))


def test_witness_of_radii_1_and_3():
    common = oracles.common_zeros(
        oracles.L_zeros("euclidean(0)", "sphere", 1.0, -60.0),
        oracles.L_zeros("euclidean(0)", "sphere", 3.0, -60.0))
    assert common[0] == pytest.approx(-(math.pi / 2) ** 2, abs=1e-14)


def test_odd_odd_bad_radii_up_to_10():
    # the suite's box reaches -(9π/2)², so denominators run through 1..9
    want = sorted({(2 * a + 1) / (2 * b + 1) for b in range(5)
                   for a in range(80) if (2 * a + 1) / (2 * b + 1) <= 10.0})
    got = oracles.odd_odd_bad_radii(1.0, -210.0, 10.0)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-14


def test_ball_zeros_solve_their_equations():
    for key, weight in (("euclidean(2)", lambda r: r),
                        ("real_hyperbolic(2)", math.tanh)):
        H = oracles.ZERO_MODELS[key]
        for L in oracles.L_zeros(key, "ball", 0.8, -200.0):
            lam = math.sqrt(-L - H * H / 4)
            assert math.tan(lam * 0.8) == pytest.approx(lam * weight(0.8),
                                                        rel=1e-9)


def test_phi_closed_forms_agree_with_jacobi_form():
    r = np.linspace(0.0, 6.0, 13)
    for lam in (0.5, 2.0, 1 + 0.5j):
        h3 = oracles.phi_hyperbolic(2, lam, r)
        jac = [1.0] + [oracles._jacobi((1 + 1j * lam) / 2, (1 - 1j * lam) / 2,
                                       1.5, -math.sinh(x) ** 2) for x in r[1:]]
        assert np.max(np.abs(h3 - jac)) <= 1e-12
        sinc = np.ones(r.shape, complex)
        sinc[1:] = np.sin(lam * r[1:]) / (lam * r[1:])
        assert np.max(np.abs(oracles.phi_euclidean(2, lam, r) - sinc)) <= 1e-13


def test_layer_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == tracer.layer_units()
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.layer_units())


def traced(workload, pick):
    """Per-layer metrics of the picked requests of a seed-1 round."""
    reqs = [r for r in workloads.make_requests(workload, 1, 1) if pick(r)]
    plan = workloads.Plan(1, reqs)
    tr = tracer.Tracer().install()
    try:
        for i, req in enumerate(reqs):
            out = workloads.execute(plan, req, i)
            status, _, _ = workloads.check(plan, req, out)
            assert status in ("ok", "incomplete"), req
    finally:
        tr.uninstall()
        plan.close()
    return tr.metrics()


def test_zero_search_bypasses_the_phi_basis():
    m = traced("zero_search", lambda r: r["kind"] in ("bad_radii", "mvp"))
    assert m["spherical.phi_basis.calls"] == 0
    assert m["spherical.eigen_state_at.calls"] > 0
    assert m["spherical.solve_ivp.nfev"] > 0


def test_spectral_bypasses_the_state_integrator():
    m = traced("spectral", lambda r: r.get("model") == "real_hyperbolic(2)"
               and r["kind"] in ("abel", "roundtrip"))
    assert m["spherical.eigen_state_at.calls"] == 0
    assert m["spherical.phi_basis.calls"] > 0
    assert 0 < m["spherical.phi_basis.hit_ratio"] < 1
    assert m["transforms.abel.rounds"] >= m["transforms.abel.calls"] == 2


def test_tracer_restores_every_binding():
    import harmonic.cli
    import harmonic.two_radius
    before = harmonic.two_radius.eigen_state_at
    tr = tracer.Tracer().install()
    assert harmonic.two_radius.eigen_state_at is not before
    tr.uninstall()
    assert harmonic.two_radius.eigen_state_at is before
    assert not hasattr(harmonic.cli.main, "__wrapped__")


def test_traced_run_matches_untraced_and_bypasses_state_integrator():
    res = run_bench("--workload", "spectral", "--seed", "3", "--seconds",
                    "3.5", "--trace", "1")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    # the traced run is correct only if its answers equal the untraced ones
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(tracer.layer_units())
    assert metrics["spherical.eigen_state_at.calls"]["value"] == 0
    assert metrics["cli.main.self_s"]["value"] > 0
    assert result["failed"] >= len(workloads.KNOWN_REFUSALS)


def test_fails_without_program_source():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        res = run_bench("--workload", "spectral", "--seed", "1", "--seconds",
                        "3.5", "--trace", "0", cwd=bare)
        assert res.returncode != 0
        assert '"correct"' not in res.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
