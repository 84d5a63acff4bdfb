"""Each verdict is stated once: the CLI's defaults and the suite's bounds are
the library's own, and each flag is stated once, in the parser.

The verdict commands (`zeros`, `bad-radii`, `certify`, `heat-check`,
`cheeger`) and the suite judge statements whose defaults and bounds live in
one library module each; the CLI and the suite only read them.
"""

import argparse
import inspect

import numpy as np
import pytest

from harmonic import asymptotics, cli, geometry, pde, suite, two_radius


def _subparsers():
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _action(command, dest):
    (action,) = [a for a in _subparsers()[command]._actions
                 if a.dest == dest]
    return action


def _defaults(fn):
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()}


ZERO_COMMANDS = {"zeros": two_radius.find_L_zeros,
                 "bad-radii": two_radius.bad_radii,
                 "certify": two_radius.certify_pair}


@pytest.mark.parametrize("command", ZERO_COMMANDS)
def test_zero_commands_default_as_two_radius(command):
    lib = _defaults(ZERO_COMMANDS[command])
    box = cli._parse_box(_action(command, "box").default)
    assert box == lib["box"] == two_radius.DEFAULT_BOX
    target = _action(command, "target")
    assert tuple(target.choices) == two_radius.TARGETS
    assert target.default == lib["target"]
    tol = _action(command, "tol")
    assert tol.default == lib["zero_tol"] == two_radius.DEFAULT_ZERO_TOL
    assert f"{two_radius.DEFAULT_ZERO_TOL:g}" in tol.help


def test_heat_check_defaults_are_the_heat_statement():
    lib = _defaults(pde.heat_identity_check)
    assert _action("heat-check", "t").default == lib["t"] == pde.HEAT_T
    args = cli._build_parser().parse_args(["heat-check"])
    assert np.array_equal(cli._lambda_grid(args), lib["lambdas"])
    assert lib["lambdas"] == pde.HEAT_LAMBDAS
    tol = _action("heat-check", "tol")
    assert tol.default == pde.HEAT_REL_TOL
    assert f"{pde.HEAT_REL_TOL:g}" in tol.help


def test_cheeger_rmax_is_the_report_default():
    lib = _defaults(asymptotics.cheeger_chain_report)
    assert _action("cheeger", "rmax").default == lib["r_max"] \
        == asymptotics.CHEEGER_R_MAX


def _results(criterion):
    ctx = {"seed": suite.DEFAULT_SEED, "quick": False}
    return [suite._run_one(c, ctx) for c in suite.registered_checks()
            if c.criterion == criterion]


CHAIN = {"growth_rate": ("growth_rate_matches_H", asymptotics.MU_TOL),
         "volume_ratio": ("log_volume_ratio_near_H", asymptotics.STAGE1_TOL),
         "spectral_bottom": ("spectral_bottom_matches_quarter_H_squared",
                             asymptotics.SPECTRAL_BOTTOM_TOL)}


def test_growth_chain_checks_are_the_report_verdicts():
    results = _results(10)
    assert len(results) == 9
    for res in results:
        stem, key = res.name.rsplit("_", 1)
        name, bound = CHAIN[stem]
        (verdict,) = [v for v in suite._cheeger(key).verdicts
                      if v.name == name]
        assert res.passed
        assert (res.measured, res.bound, res.detail) == \
            (verdict.measured, verdict.bound, verdict.detail)
        assert res.bound == bound


def test_geometry_checks_use_the_geometry_bounds():
    results = _results(11)
    assert len(results) == 6
    for res in results:
        identity = "_".join(res.name.split("_")[:2])
        assert res.passed
        assert res.bound == geometry.BOUNDS[identity]


# the verdict commands record --tol under the name their library reads
TOLERANCES = {**dict.fromkeys(ZERO_COMMANDS,
                              {"zero_tol": two_radius.DEFAULT_ZERO_TOL}),
              "heat-check": {"rel_tol": pde.HEAT_REL_TOL}}


class _Stop(Exception):
    """Raised once main has built a manifest, so that no command runs."""


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_manifest_parameters_are_the_parsed_flags(command, monkeypatch):
    manifests = []
    build = cli._manifest

    def spy(*args, **kwargs):
        manifests.append(build(*args, **kwargs))
        raise _Stop

    monkeypatch.setattr(cli, "_manifest", spy)
    radii = ["--r1", "1", "--r2", "2"] if command == "certify" else []
    with pytest.raises(_Stop):
        cli.main([command] + radii)
    dests = {a.dest for a in _subparsers()[command]._actions} - {"help"}
    assert "out" in dests
    fixed = {"spacing"} if command == "phi" else set()
    (mani,) = manifests
    assert set(mani["parameters"]) == dests - cli._NOT_PARAMETERS | fixed
    assert mani["tolerances"] == TOLERANCES.get(command, {})
