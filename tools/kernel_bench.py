"""Micro-benchmark of the spectral-stack kernels; prints one JSON object.

    PYTHONPATH=src python tools/kernel_bench.py [--repeat 5]

Each entry is the best of --repeat wall-clock timings, in seconds, of one
call with its inputs built beforehand:

  abel_synthesis   abel(E3, smooth_bump(1.5)) with its F f cached, so
                   it times the cosine synthesis (λ_max ≈ 275)
  abel_synthesis_blocks  abel(H3, gauss_bump(0.02)) with its F f cached:
                   340 λ-panels against 76 s-points, a synthesis of
                   several chirp-z blocks
  kg_solve         kg_solve on A(annulus_bump(0.9, 0.2)) over DR(2,1), t = 5.25
  line_convolve    A(smooth_bump(1.5)) ⋆ A(gauss_bump(0.4)) on E3
  radial_convolve  gauss_bump(0.35) * gauss_bump(0.45), the `convolve`
                   command's default pair, from an empty cache, keyed by
                   model (E3, R31)
  values_at_nodes  node values of a wave solution on radial_wave_solve's
                   finite-difference grid (H3, gauss_bump(0.42), T = 1.25),
                   on a fresh copy of the grid each time
  phi_rows         the rows φ_λ(r) of E3 (phi_ode_values, values only) for
                   abel's λ-nodes up to 275 at the radial nodes of
                   smooth_bump(1.5)
  spherical_fourier  F f from an empty cache, keyed by shape: "e3_round" is
                   smooth_bump(1.5) on E3 at the λ-nodes of abel's last λ_max
                   round for it, "wave_slice" the last slice of the H3
                   wave above at the λ-nodes wave_to_kg_check's abel takes
                   for it (q0's λ_max, s_max = support + 0.5)
  heat_solve       radial_heat_solve(H3, 1.0, 0.3), the trajectory a
                   heat-check of t = 1 computes
  heat_identity_check  heat_identity_check(H⁶, 0.8, 9 λ in [0, 2]), as
                   `heat-check --model hyperbolic --n 5 --t 0.8` calls it,
                   from an empty cache
  abel_inverse_h3_gauss    abel_inverse of A(gauss_bump(0.4)) on H3, from
                           an empty φ-basis cache: the Dirichlet scan of
                           φ_λ(S) at the one radius S, then the exact rows
                           at the λ_j
  abel_inverse_e3_smooth   abel_inverse of A(smooth_bump(1.3)) on E3, from
                           an empty φ-basis cache, likewise
  phi_rows_sweep   phi_ode_values for 256 rows, λ evenly spaced up to
                   λ_max = 10 / 40 / 160 / 640, at the 600 radial nodes of
                   r ≤ 1.5 (spacing 0.02), keyed by λ_max
  eigen_state      eigen_state_at for 36 L on a 9 × 4 lattice over the
                   default box [-60, 5] × [-8, 8]i at r = 0.81 / 1.59 / 2π,
                   keyed by r, with its series levels cached (a second call
                   at the same radius) and uncached (an empty cache), plus
                   one find_L_zeros(E0, 0.81) and one find_L_zeros(E0, 3)
                   (seven zeros in the default box, whose first pencil is
                   rejected and solved again from twice the samples) from
                   an empty cache
  eigen_profile    eigen_profile of E0 at L = -10 + i on find_r_zeros' scan
                   of r ≤ 10 (801 radii)
  volterra         volterra_coefficients(DR(2,1), make_grid(10, spacing=0.05),
                   20), the coefficients the suite's criterion 2 bounds
  mvp_box          find_L_zeros(E0, r, "mvp") from an empty cache, keyed by
                   r: r = 2π on [-3, 1] × [-3, 3]i, which holds L = 0, and
                   r = 1 on [-50, 5] × [-5, 5]i
  phi_grid         phi on a fresh make_grid(rmax, spacing=0.05), as the
                   `phi` command calls it, for PHI_DRAWS draws per model of
                   λ ∈ [0.2, 1.5] (plus i·[0.1, 0.6] on E3) and
                   rmax ∈ [4, 10], from empty caches; keyed by model, the
                   best of --repeat of the model's whole sweep
  import_cli       `import harmonic.cli` in a fresh interpreter with
                   PYTHONPATH=src, interpreter start-up included
  build_models     the five built-in models plus H⁶ and DR(4,3)
  lambda0          lambda0_estimate at R = 20, 30, 40, the radii of
                   `cheeger --rmax 40`, keyed by model (H3, DR21, DR43)
  geometry         distance and sphere_param of the hyperbolic plane on a
                   (2, 256, 256, 3) stack of circle points: the circles
                   that projector_convolution_check at r = 1 takes for the
                   one ray radius 1.1, about the ys and about x0, none
                   skipped for missing the datum's ball (distance from the
                   bump centre of `geo-check`, as bump_patch takes it), and
                   one `harmonic geo-check` per space

A separate "peak_alloc" object gives the tracemalloc peak, in MiB, of one
call each (deterministic, so taken once):

  abel_e3          abel(E3, smooth_bump(1.5)) with its F f cached
  spherical_fourier_heat_h6  spherical_fourier at 9 λ in [0, 2] of a heat
                   profile e^{-r²/3.2} on the 1,525 cells of dr = 0.01
                   that `heat-check --model hyperbolic --n 5 --t 0.8`
                   takes (12,200 radial nodes), from an empty cache
  abel_inverse_h3  abel_inverse(H3, abel(H3, gauss_bump(0.42))): its
                   (λ_j × radii) rows and the one-radius Dirichlet scan,
                   with the bytes it adds to the cache as
                   "abel_inverse_h3_cached"

A "state_calls" object gives, for the find_L_zeros calls of the
"eigen_state" and "mvp_box" entries, the eigen_state_at calls and L-points
one search takes (deterministic, so taken once), counted by a wrapper around
the eigen_state_at that two_radius calls.

One BLAS thread, as in perfbench/run.py.  Compare two commits by running
this file against each one's src on the same machine, back to back:

    PYTHONPATH=<checkout>/src python tools/kernel_bench.py

"Empty caches" replaces whichever of spherical's byte-capped caches the
checkout defines, so the file runs against checkouts from before the φ-basis
cache and the coefficient cache were merged.
"""

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from harmonic import (asymptotics, cli, geometry, pde,  # noqa: E402
                      spherical, transforms)
from harmonic import two_radius  # noqa: E402
from harmonic.two_radius import find_L_zeros  # noqa: E402
from harmonic.density import (builtin_models, make_damek_ricci,  # noqa: E402
                              make_euclidean, make_real_hyperbolic)
from harmonic.grids import Grid1D, make_grid  # noqa: E402
from harmonic.profiles import (annulus_bump, gauss_bump,  # noqa: E402
                               smooth_bump)


SRC = Path(__file__).resolve().parents[1] / "src"
SWEEP_LAMBDA_MAX = (10.0, 40.0, 160.0, 640.0)
STATE_RADII = (0.81, 1.59, 2 * math.pi)
PHI_DRAWS = 8
# the byte-capped caches of spherical, with their caps, in any checkout
CACHES = (("_CACHE", "CACHE_BYTES"), ("_BASIS_CACHE", "BASIS_CACHE_BYTES"),
          ("_COEF_CACHE", "COEF_CACHE_BYTES"))
BOX_L = (np.linspace(-60.0, 5.0, 9)[:, None]
         + 1j * np.linspace(-8.0, 8.0, 4)[None, :]).ravel()
# radii of the default-box find_L_zeros(E0, r) entries
FIND_RADII = (0.81, 3.0)
# the mvp_box searches, keyed as in the report: (r, box)
MVP_BOXES = {"2pi": (2 * math.pi, (-3 - 3j, 1 + 3j)),
             "1": (1.0, (-50 - 5j, 5 + 5j))}


def best_of(fn, repeat, setup=None):
    best = math.inf
    for _ in range(repeat):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def traced_peak(fn):
    """tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def peak_alloc(e3, h3):
    bump = smooth_bump(1.5)
    empty_caches()
    transforms.abel(e3, bump)
    out = {"abel_e3": traced_peak(lambda: transforms.abel(e3, bump))}
    h6 = make_real_hyperbolic(5)
    grid = make_grid(15.25, n_panels=1525)
    heat = transforms.EvenFunction(
        grid=grid, values=np.exp(-grid.points**2 / 3.2), support=grid.x_max,
        exact_node_values=np.exp(-grid.nodes**2 / 3.2))
    empty_caches()
    out["spherical_fourier_heat_h6"] = traced_peak(
        lambda: transforms.spherical_fourier(h6, heat,
                                             np.linspace(0.0, 2.0, 9)))
    empty_caches()
    g = transforms.abel(h3, gauss_bump(0.42))
    before = spherical._CACHE.nbytes
    out["abel_inverse_h3"] = traced_peak(
        lambda: transforms.abel_inverse(h3, g))
    out["abel_inverse_h3_cached"] = (spherical._CACHE.nbytes
                                     - before) / 2**20
    return out


def state_calls(fn):
    """eigen_state_at calls and L-points of one fn() in two_radius."""
    real = two_radius.eigen_state_at
    count = {"calls": 0, "L_points": 0}

    def counted(model, L_values, r):
        count["calls"] += 1
        count["L_points"] += int(np.size(L_values))
        return real(model, L_values, r)

    two_radius.eigen_state_at = counted
    try:
        fn()
    finally:
        two_radius.eigen_state_at = real
    return count


def empty_caches():
    for name, cap in CACHES:
        if hasattr(spherical, name):
            setattr(spherical, name,
                    spherical._LRUCache(getattr(spherical, cap)))


def phi_draws(model, complex_lambda):
    """PHI_DRAWS (λ, rmax) pairs, drawn like the `phi` requests of the
    spectral workload's low-λ regime."""
    rng = random.Random(model.key)
    out = []
    for _ in range(PHI_DRAWS):
        lam = rng.uniform(0.2, 1.5)
        if complex_lambda:
            lam = complex(lam, rng.uniform(0.1, 0.6))
        out.append((lam, rng.uniform(4.0, 10.0)))
    return out


def phi_grid(model, draws):
    for lam, rmax in draws:
        empty_caches()
        spherical.phi(model, lam, make_grid(rmax, spacing=0.05))


def import_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import harmonic.cli"], env=env,
                   check=True)


def build_models():
    return builtin_models() + [make_real_hyperbolic(5), make_damek_ricci(4, 3)]


def geometry_entry(repeat):
    h2 = geometry.make_hyperbolic_plane()
    x0 = h2.origin
    psi = np.arange(geometry.QUAD_ORDER) * (2.0 * math.pi
                                            / geometry.QUAD_ORDER)
    ys = h2.sphere_param(x0, 1.1, psi)
    zs = h2.sphere_param(ys[:1], 1.0, psi)
    centers = np.stack([ys, np.broadcast_to(x0, ys.shape)])[..., None, :]
    radii = np.stack([np.full(psi.shape, 1.0),
                      h2.distance(x0, zs)])[..., None]
    pts = h2.sphere_param(centers, radii, psi)
    bump_center = h2.sphere_param(x0, 0.7, 0.4)
    out = {"sphere_param_h2": best_of(
               lambda: h2.sphere_param(centers, radii, psi), repeat),
           "distance_h2": best_of(lambda: h2.distance(bump_center, pts),
                                  repeat)}
    with tempfile.TemporaryDirectory() as tmp:
        report = str(Path(tmp) / "geo.json")
        for tag in ("plane", "h2"):
            out[f"geo_check_{tag}"] = best_of(lambda: cli.main(
                ["geo-check", "--space", tag, "--out", report]), repeat)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeat", type=int, default=5)
    repeat = p.parse_args(argv).repeat

    e3, h3, dr = (make_euclidean(2), make_real_hyperbolic(2),
                  make_damek_ricci(2, 1))
    bump = smooth_bump(1.5)
    a_bump = transforms.abel(e3, bump)
    a_gauss = transforms.abel(e3, gauss_bump(0.4))
    a_ann = transforms.abel(dr, annulus_bump(0.9, 0.2))
    wave = pde.radial_wave_solve(h3, gauss_bump(0.42), 1.25, 0.002)[-1]
    a_h3_gauss = transforms.abel(h3, gauss_bump(0.4))
    a_e3_smooth = transforms.abel(e3, smooth_bump(1.3))

    # abel's λ-grid for the bump: fixed-width panels up to its λ_max
    s_max = a_bump.grid.x_max
    width = math.pi / (2.0 * max(s_max + 0.5, 1.0))
    n_panels = round(a_bump.info["lambda_max"] / width)
    lams = Grid1D(points=width * np.arange(n_panels + 1)).nodes
    bump_datum = transforms.EvenFunction.from_profile(bump)
    r_nodes = bump_datum.grid.nodes
    # abel's last round for the bump: its cache holds one entry per round,
    # keyed by the round's λ-nodes
    empty_caches()
    transforms.abel(e3, bump)
    round_lams = max((np.frombuffer(key[1])
                      for key in spherical._CACHE._entries
                      if key[0] == e3.key), key=len)
    # a wave slice as wave_to_kg_check hands it to abel, its node values
    # taken beforehand
    slice_width = math.pi / (2.0 * max(wave.support + 1.0, 1.0))
    slice_lams = Grid1D(points=slice_width * np.arange(max(16, math.ceil(
        transforms.abel(h3, gauss_bump(0.42)).info["lambda_max"]
        / slice_width)) + 1)).nodes
    fw = replace(wave, support=min(wave.support + 0.1, wave.grid.x_max))
    fw.exact_node_values = fw.node_values()
    sweep_radii = make_grid(1.5, spacing=0.02).nodes
    suite_grid = make_grid(10.0, spacing=0.05)

    e0, h6 = make_euclidean(0), make_real_hyperbolic(5)

    def eigen_state(r):
        def call():
            spherical.eigen_state_at(e0, BOX_L, r)
        return {"cached": best_of(call, repeat, setup=call),
                "uncached": best_of(call, repeat, setup=empty_caches)}

    phi_models = {"E3": (e3, phi_draws(e3, True)),
                  "H3": (h3, phi_draws(h3, False)),
                  "DR21": (dr, phi_draws(dr, False))}

    narrow = gauss_bump(0.02)
    transforms.abel(h3, narrow)          # its F f cached
    out = {
        "abel_synthesis": best_of(lambda: transforms.abel(e3, bump), repeat),
        "abel_synthesis_blocks": best_of(
            lambda: transforms.abel(h3, narrow), repeat),
        "kg_solve": best_of(lambda: pde.kg_solve(dr.H, a_ann, 5.25), repeat),
        "line_convolve": best_of(
            lambda: transforms.line_convolve(a_bump, a_gauss), repeat),
        "radial_convolve": {
            key: best_of(lambda: transforms.radial_convolve(
                model, gauss_bump(0.35), gauss_bump(0.45)), repeat,
                setup=empty_caches)
            for key, model in (("E3", e3), ("R31", make_euclidean(30)))},
        "values_at_nodes": best_of(
            lambda: Grid1D(points=wave.grid.points,
                           nodes_per_panel=wave.grid.q).values_at_nodes(
                               wave.values), repeat),
        "phi_rows": best_of(lambda: spherical.phi_ode_values(
            e3, lams, r_nodes, derivs=False), repeat),
        "spherical_fourier": {
            key: best_of(lambda: transforms.spherical_fourier(model, f, lam),
                         repeat, setup=empty_caches)
            for key, model, f, lam in (("e3_round", e3, bump_datum,
                                        round_lams),
                                       ("wave_slice", h3, fw, slice_lams))},
        "heat_solve": best_of(lambda: pde.radial_heat_solve(h3, 1.0, 0.3),
                              repeat),
        "heat_identity_check": best_of(
            lambda: pde.heat_identity_check(h6, 0.8,
                                            np.linspace(0.0, 2.0, 9)),
            repeat, setup=empty_caches),
        "abel_inverse_h3_gauss": best_of(
            lambda: transforms.abel_inverse(h3, a_h3_gauss), repeat,
            setup=empty_caches),
        "abel_inverse_e3_smooth": best_of(
            lambda: transforms.abel_inverse(e3, a_e3_smooth), repeat,
            setup=empty_caches),
        "phi_rows_sweep": {
            f"{lam_max:g}": best_of(lambda: spherical.phi_ode_values(
                e3, np.linspace(0.0, lam_max, 256), sweep_radii), repeat)
            for lam_max in SWEEP_LAMBDA_MAX},
        "eigen_state": {
            **{f"{r:.4g}": eigen_state(r) for r in STATE_RADII},
            **{f"find_L_zeros_E0_{r:g}": best_of(
                lambda: find_L_zeros(e0, r), repeat, setup=empty_caches)
               for r in FIND_RADII}},
        "eigen_profile": best_of(lambda: spherical.eigen_profile(
            e0, -10.0 + 1.0j, np.linspace(0.0, 10.0, 801)), repeat),
        "volterra": best_of(lambda: spherical.volterra_coefficients(
            dr, suite_grid, 20), repeat),
        "mvp_box": {
            key: best_of(lambda: find_L_zeros(e0, r, "mvp", box=box), repeat,
                         setup=empty_caches)
            for key, (r, box) in MVP_BOXES.items()},
        "phi_grid": {key: best_of(lambda: phi_grid(model, draws), repeat)
                     for key, (model, draws) in phi_models.items()},
        "import_cli": best_of(import_cli, repeat),
        "build_models": best_of(build_models, repeat),
        "lambda0": {key: best_of(lambda: asymptotics.lambda0_estimate(
                        model, (20.0, 30.0, 40.0)), repeat)
                    for key, model in (("H3", h3), ("DR21", dr),
                                       ("DR43", make_damek_ricci(4, 3)))},
        "geometry": geometry_entry(repeat),
    }
    report = {"unit": "s", "repeat": repeat, "best": out,
              "peak_alloc": {"unit": "MiB", **peak_alloc(e3, h3)},
              "state_calls": {
                  **{f"find_L_zeros_E0_{r:g}": state_calls(
                      lambda: find_L_zeros(e0, r)) for r in FIND_RADII},
                  **{f"mvp_box_{key}": state_calls(
                      lambda: find_L_zeros(e0, r, "mvp", box=box))
                     for key, (r, box) in MVP_BOXES.items()}},
              "sizes": {"abel_lambda_nodes": int(lams.size),
                        "phi_rows_radii": int(r_nodes.size),
                        "e3_round_lambda_nodes": int(round_lams.size),
                        "wave_slice_lambda_nodes": int(slice_lams.size),
                        "wave_slice_radii": int(fw.grid.nodes.size),
                        "sweep_radii": int(sweep_radii.size),
                        "fd_grid_nodes": int(wave.grid.nodes.size)},
              "python": platform.python_version(),
              "numpy": np.__version__}
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
