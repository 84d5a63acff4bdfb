"""CLI documents: schema-valid JSON, also when a command is refused."""

import argparse
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import harmonic
from harmonic import asymptotics, cli, profiles, suite
from harmonic.density import make_euclidean, make_real_hyperbolic
from harmonic.spherical import PhiOverflowError, phi_ode_values

SCHEMA = json.loads((Path(harmonic.__file__).parent / "schemas"
                     / "report.schema.json").read_text(encoding="utf-8"))


def _run(tmp_path, argv):
    out = tmp_path / "doc.json"
    rc = cli.main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(doc, SCHEMA)
    return rc, doc


def test_convolve_of_a_narrow_datum_is_its_mass(tmp_path):
    # f * g at o is ⟨f, g⟩ ≈ g(0) ∫ f = ω_3 · 2w⁴ for a Gaussian of width
    # w = 1e-6 (θ ≈ r³ there); the spectral product takes no Abel λ-round
    out = tmp_path / "conv.csv"
    argv = ["convolve", "--model", "damek-ricci", "--width", "1e-6"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    at_origin = np.loadtxt(out, delimiter=",", comments="#")[0, 1]
    mass = 2 * np.pi**2 * 2e-24
    assert abs(at_origin - mass) < 1e-9 * mass


def test_abel_of_a_too_narrow_datum_is_refused_by_its_lambda_budget(
        tmp_path):
    rc, doc = _run(tmp_path, ["abel", "--model", "damek-ricci", "--profile",
                              "gauss", "--width", "1e-6"])
    assert rc == 1
    assert doc["error"]["type"] == "AccuracyError"
    assert "over the budget" in doc["error"]["message"]


def test_overflowing_phi_is_refused_with_its_model(tmp_path):
    # λ = 5i on H³: φ grows like e^{4r}, so r = 300 leaves double range
    rc, doc = _run(tmp_path, ["phi", "--model", "hyperbolic",
                              "--lambda", "0,5", "--rmax", "300"])
    assert rc == 1
    assert doc["kind"] == "error"
    assert doc["error"]["type"] == "PhiOverflowError"
    assert "172.5" in doc["error"]["message"]
    mani = doc["manifest"]
    assert mani["model"]["key"] == "real_hyperbolic(2)"
    assert mani["parameters"]["rmax"] == 300
    assert mani["parameters"]["lambda"] == {"im": 5, "re": 0}


def test_theta_numpy_cannot_evaluate_is_a_density_error(tmp_path):
    rc, doc = _run(tmp_path, ["phi", "--theta", "r**2*(1 + besselj(1, r)**2)",
                              "--n", "2"])
    assert rc == 1
    assert doc["error"]["type"] == "DensityError"
    assert "besselj" in doc["error"]["message"]


def test_unresolved_model_leaves_the_manifest_empty(tmp_path):
    rc, doc = _run(tmp_path, ["phi", "--model", "sphere"])
    assert rc == 1
    assert doc["error"]["type"] == "CLIError"
    assert doc["manifest"]["model"] is None
    # the parameters are the parsed flags even so
    assert doc["manifest"]["parameters"] == {"lambda": {"re": 1, "im": 0},
                                             "rmax": 10, "spacing": 0.05}


def test_theta_without_n_is_refused_with_the_parsed_flags(tmp_path):
    rc, doc = _run(tmp_path, ["abel", "--theta", "sinh(r)**2",
                              "--width", "0.5"])
    assert rc == 1
    assert doc["error"]["type"] == "CLIError"
    assert "--theta needs --n" in doc["error"]["message"]
    assert doc["manifest"]["model"] is None
    assert doc["manifest"]["parameters"] == {
        "center": 1, "profile": "smooth", "smax": None, "width": 0.5}


def test_a_refusal_before_the_command_keeps_its_tolerance(tmp_path):
    # --n -1 fails while the model is resolved, before `zeros` runs
    rc, doc = _run(tmp_path, ["zeros", "--n", "-1"])
    assert rc == 1
    assert doc["manifest"]["model"] is None
    assert doc["manifest"]["tolerances"] == {"zero_tol": 1e-10}


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("command", ["fourier", "heat-check"])
def test_lambda_count_below_one_is_refused(tmp_path, command, count):
    rc, doc = _run(tmp_path, [command, "--count", count])
    assert rc == 1
    assert doc["error"]["type"] == "CLIError"
    assert "--count" in doc["error"]["message"]


@pytest.mark.parametrize("flag, value", [
    ("--width", "0"), ("--width", "-0.5"), ("--width", "nan"),
    ("--width", "inf"), ("--smax0", "0"), ("--smax0", "nan"),
    ("--t", "nan"), ("--t", "inf")])
def test_kg_refuses_a_bad_flag_by_name(tmp_path, flag, value):
    rc, doc = _run(tmp_path, ["kg", f"{flag}={value}"])
    assert rc == 1
    assert doc["error"]["type"] == "CLIError"
    assert doc["error"]["message"].startswith(f"{flag} must be finite")


@pytest.mark.parametrize("argv", [
    ["heat", "--dr", "0"], ["heat", "--dr=-0.01"],
    ["convolve", "--width", "inf"], ["abel", "--width", "nan"],
    ["convolve", "--width2", "0"], ["cheeger", "--rmax", "0"],
    ["phi", "--lambda", "nan,0"], ["geo-check", "--seed=-1"],
    ["suite", "--seed=-1", "--quick"]], ids=" ".join)
def test_a_bad_number_is_refused_by_its_flag(tmp_path, argv):
    rc, doc = _run(tmp_path, argv)
    assert rc == 1
    assert doc["error"]["type"] == "CLIError"
    flag = argv[1].split("=")[0]
    assert doc["error"]["message"].startswith(f"{flag} must be finite")
    assert doc["manifest"]["command"] == argv[0]


@pytest.mark.parametrize("argv, words", [
    (["bad-radii", "--rmax", "60"], ["--rmax = 60", "at most 50"]),
    (["cheeger", "--model", "hyperbolic", "--rmax", "70"],
     ["--rmax = 70", "at most 60"]),
    (["heat", "--t", "6"], ["--t = 6", "(0, 5]"]),
    (["heat", "--width", "0.01", "--dr", "0.01"],
     ["--width = 0.01", "3 dr = 0.03", "--dr = 0.01"])],
    ids=["bad-radii", "cheeger", "heat-t", "heat-width"])
def test_an_out_of_range_number_is_refused_by_its_flag(tmp_path, argv, words):
    # the message states the value, the flag and the limit
    rc, doc = _run(tmp_path, argv)
    assert rc == 1
    assert doc["error"]["type"] == "ValueError"
    for word in words:
        assert word in doc["error"]["message"]


FORMS = {"--lambda": "RE[,IM]", "--box": "re_lo,im_lo,re_hi,im_hi"}


@pytest.mark.parametrize("argv", [
    ["phi", "--lambda", "1,2,3"], ["phi", "--lambda", "abc"],
    ["zeros", "--box", "1,2"], ["zeros", "--box", "1,2,3,x"]], ids=" ".join)
def test_a_malformed_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{argv[1]}: expected {FORMS[argv[1]]}, got {argv[2]!r}" in err


def test_wave_wall_follows_dr(tmp_path):
    # dr = 0.25 puts the wall 5 dr past the light cone, not 1
    out = tmp_path / "wave.csv"
    assert cli.main(["wave", "--dr", "0.25", "--dt", "0.1", "--t", "1",
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", comments="#")
    assert np.all(np.isfinite(rows))


def test_kg_runs_past_h_times_t_of_40(tmp_path):
    # H⁶ has H = 5, so t = 9 puts H*t at 45
    out = tmp_path / "kg.csv"
    assert cli.main(["kg", "--model", "hyperbolic", "--n", "5", "--t", "9",
                     "--out", str(out)]) == 0
    doc = _validate(out)
    assert doc["manifest"]["parameters"]["t"] == 9
    rows = np.loadtxt(out, delimiter=",", comments="#")
    assert rows.shape[1] == 4 and np.all(np.isfinite(rows))


CHEEGER_H2 = ["cheeger", "--model", "hyperbolic", "--n", "2", "--rmax", "20"]


@pytest.mark.parametrize("spelling", ["rep.csv", "./rep.csv"])
def test_cheeger_refuses_an_out_that_is_its_own_csv(tmp_path, spelling):
    # the CSV would overwrite the JSON report, however the path is spelled
    out = tmp_path / "rep.csv"
    rc = cli.main(CHEEGER_H2 + ["--out", f"{tmp_path}/{spelling}"])
    assert rc == 1
    assert list(tmp_path.iterdir()) == [out]
    doc = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(doc, SCHEMA)
    assert doc["error"]["type"] == "CLIError"
    assert "--out" in doc["error"]["message"]


def test_cheeger_without_out_prints_its_report(capsys):
    assert cli.main(CHEEGER_H2) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kind"] == "cheeger-report"


@pytest.mark.parametrize("n", [0, 2], ids=["E0", "E2"])
def test_cheeger_on_flat_space_judges_the_polynomial_scales(tmp_path, n):
    # H = 0: θ'/θ and log vol B_r / r fall like 1/r and log r / r, and λ₀ = 0
    rc, doc = _run(tmp_path, ["cheeger", "--model", "euclidean",
                              "--n", str(n)])
    assert rc == 0
    r_max = cli._build_parser().parse_args(["cheeger"]).rmax
    verdicts = {v["name"]: v for v in doc["result"]["verdicts"]}
    bounds = {"growth_rate_matches_H": (n + 1) / r_max + asymptotics.MU_TOL,
              "log_volume_ratio_near_H":
                  (n + 1) * (np.log(r_max) + 1) / r_max,
              "spectral_bottom_matches_quarter_H_squared":
                  asymptotics.FLAT_LAMBDA0_TOL}
    for name, bound in bounds.items():
        v = verdicts[name]
        assert v["status"] == "pass"
        assert v["bound"] == pytest.approx(bound, rel=1e-15)
        assert 0.0 <= v["measured"] <= v["bound"]
        assert "H = 0" in v["detail"]
    assert verdicts["cheeger_constant_equals_H"]["measured"] is None


@pytest.mark.parametrize("flag", ["--tol", "--seed"])
def test_phi_refuses_flags_it_does_not_read(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["phi", flag, "1"])
    assert exc.value.code == 2


def test_overflow_guard_names_the_largest_usable_radius():
    model = make_real_hyperbolic(2)
    with pytest.raises(PhiOverflowError, match="172.5"):
        phi_ode_values(model, [5j], np.linspace(0.0, 300.0, 7))
    # just inside the limit φ is finite and still grows like e^{4r}
    vals, _ = phi_ode_values(model, [5j], np.array([160.0, 170.0]))
    assert np.all(np.isfinite(vals))
    assert np.log(abs(vals[0, 1] / vals[0, 0])) == pytest.approx(40.0,
                                                                 rel=1e-3)
    # real λ decays, so any radius is usable
    vals, _ = phi_ode_values(model, [5.0], np.array([300.0]))
    assert np.all(np.isfinite(vals))


# one small invocation per subcommand except `suite`, and the annulus
# profile once
RERUNS = {
    "phi": ["phi", "--model", "damek-ricci", "--lambda", "1.3,0.2",
            "--rmax", "3"],
    "zeros": ["zeros", "--r", "1", "--box=-12,-2,2,2"],
    "bad-radii": ["bad-radii", "--n", "0", "--r1", "1", "--rmax", "3",
                  "--box=-12,-2,2,2"],
    "certify": ["certify", "--n", "0", "--r1", "1", "--r2", "3",
                "--box=-12,-2,2,2"],
    "abel": ["abel", "--model", "hyperbolic", "--profile", "gauss",
             "--width", "0.5"],
    "abel-annulus": ["abel", "--model", "damek-ricci", "--profile",
                     "annulus", "--center", "0.9", "--width", "0.2"],
    "fourier": ["fourier", "--model", "damek-ricci", "--count", "9"],
    "convolve": ["convolve", "--model", "hyperbolic"],
    "wave": ["wave", "--model", "hyperbolic", "--t", "0.5", "--dt", "0.01",
             "--dr", "0.02"],
    "kg": ["kg", "--model", "hyperbolic", "--t", "0.5"],
    "heat": ["heat", "--t", "0.2", "--dr", "0.02"],
    "heat-check": ["heat-check", "--model", "hyperbolic", "--count", "3"],
    "cheeger": ["cheeger", "--model", "damek-ricci", "--m", "4", "--k", "3",
                "--rmax", "30"],
    "geo-check": ["geo-check", "--space", "h2"],
    "geo-check-plane": ["geo-check", "--space", "plane"],
}


def _validate(path):
    """Validate a JSON report, or the manifest line of a CSV, on the schema."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("{"):
        doc = json.loads(text)
    else:
        first = text.splitlines()[0]
        assert first.startswith("# manifest: ")
        doc = {"kind": "csv", "manifest": json.loads(first[12:]),
               "result": {}}
    jsonschema.validate(doc, SCHEMA)
    return doc


@pytest.mark.parametrize("argv", RERUNS.values(), ids=RERUNS.keys())
def test_rerun_is_byte_identical_and_schema_valid(tmp_path, argv):
    out = tmp_path / "out.dat"
    outputs = [out, out.with_suffix(".csv")] if argv[0] == "cheeger" \
        else [out]
    runs = []
    for _ in range(2):
        rc = cli.main(argv + ["--out", str(out)])
        runs.append((rc, [p.read_bytes() for p in outputs]))
    assert runs[0] == runs[1]
    assert rc == 0
    for path in outputs:
        doc = _validate(path)
        assert doc["manifest"]["command"] == argv[0]


def _stub_check(name, measured):
    return suite._Check(name, 1, True,
                        lambda ctx: (measured, 1.0, f"reads {measured}"))


def test_suite_command_reports_each_check(tmp_path, monkeypatch, capsys):
    out = tmp_path / "suite.json"
    passing = _stub_check("stub_pass", 0.5)
    failing = _stub_check("stub_fail", 2.0)
    monkeypatch.setattr(suite, "_REGISTRY", [passing, failing])
    assert cli.main(["suite", "--out", str(out)]) == 1
    doc = _validate(out)
    assert doc["kind"] == "suite-report"
    assert doc["result"]["total"] == 2
    assert doc["result"]["passed_count"] == 1
    marks = [line.split()[0] for line in capsys.readouterr().err.splitlines()
             if line.startswith(("PASS", "FAIL"))]
    assert marks == ["PASS", "FAIL"]
    monkeypatch.setattr(suite, "_REGISTRY", [passing])
    assert cli.main(["suite", "--out", str(out)]) == 0
    assert _validate(out)["result"]["passed_count"] == 1


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    parsers = []
    parse = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for name in ("a.csv", "b.csv"):
        argv = ["fourier", "--count", "3", "--out", str(tmp_path / name)]
        assert cli.main(argv) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("model_flags", [
    ["--model", "damek-ricci", "--m", "4", "--k", "3"],
    ["--model", "hyperbolic", "--n", "5"]], ids=["DR43", "H6"])
def test_convolve_on_higher_rank_models(tmp_path, model_flags):
    out = tmp_path / "conv.csv"
    assert cli.main(["convolve"] + model_flags + ["--out", str(out)]) == 0
    doc = _validate(out)
    assert doc["manifest"]["command"] == "convolve"
    rows = np.loadtxt(out, delimiter=",", comments="#")
    assert np.all(np.isfinite(rows))


@pytest.mark.parametrize("argv, n, f, g", [
    (["--n", "30"], 30, profiles.gauss_bump(0.35), profiles.gauss_bump(0.45)),
    (["--n", "1", "--profile", "smooth", "--width", "1.3", "--profile2",
      "smooth", "--width2", "1.3"], 1, profiles.smooth_bump(1.3),
     profiles.smooth_bump(1.3))], ids=["R31", "R2-smooth"])
def test_convolve_at_the_origin_is_the_inner_product(tmp_path, argv, n, f,
                                                     g):
    # (f * g)(o) = ⟨f, g⟩ = ω_n ∫ f g θ, a reference that takes no transform
    out = tmp_path / "conv.csv"
    argv = ["convolve", "--model", "euclidean"] + argv + ["--out", str(out)]
    assert cli.main(argv) == 0
    inner = suite._inner_product(make_euclidean(n), f, g)
    at_origin = np.loadtxt(out, delimiter=",", comments="#")[0, 1]
    assert abs(at_origin - inner) < 1e-8 * abs(inner)
