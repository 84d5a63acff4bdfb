"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload zero_search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy, and the command fails without it.
--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
first runs the same request list untraced in a child process, then runs it
again with the outside-in tracer and reports the per-layer metrics; it is
incorrect unless both runs produced identical answers.  Every run writes a
result file with an environment record under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("zero_search", "spectral")
SETUP_SAMPLES = 3   # this process plus two fresh interpreters

# One BLAS thread, here and in every child: on two cores shared with other
# load, a second spinning BLAS thread times the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sizes the request list: seconds / nominal round time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: time one set-up and exit")
    p.add_argument("--no-setup-samples", action="store_true",
                   help="internal: skip the set-up timing children")
    return p.parse_args(argv)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(),
            "HARMONIC_THREADS": os.environ.get("HARMONIC_THREADS"),
            "git_commit": _git_commit()}


def set_up(args):
    """Import the program and build the workload's models and data."""
    t0 = time.perf_counter()
    import harmonic
    import harmonic.cli
    if not Path(harmonic.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"harmonic imported from {harmonic.__file__}, "
                         f"not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    import workloads
    reqs = workloads.make_requests(args.workload, args.seed,
                                   workloads.n_rounds(args.workload,
                                                      args.seconds))
    plan = workloads.Plan(args.seed, reqs)
    return plan, tracer, time.perf_counter() - t0


def setup_samples(args):
    """Set-up seconds measured in fresh interpreters, one at a time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             cwd=ROOT, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def untraced_child(args):
    """Run the same request list untraced; returns (result, digest)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--no-setup-samples"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         cwd=ROOT, check=True)
    lines = res.stdout.strip().splitlines()
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest


def run_requests(plan):
    import workloads
    records = []
    for i, req in enumerate(plan.requests):
        t0 = time.perf_counter()
        try:
            out, error = workloads.execute(plan, req, i), None
        # the program refuses with these types (as its CLI does); anything
        # else is a defect of the benchmark and ends the run
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            out, error = None, exc
        seconds = time.perf_counter() - t0
        rec = {"request": req, "seconds": seconds,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0}
        if error is not None:
            rec.update(status="refused",
                       detail=f"{type(error).__name__}: {error}",
                       digest=[type(error).__name__, str(error)])
        else:
            try:
                status, detail, digest = workloads.check(plan, req, out)
            except workloads.Wrong as exc:
                status, detail, digest = "wrong", str(exc), None
            rec.update(status=status, detail=detail, digest=digest)
        records.append(rec)
    return records


def digest_of(records):
    text = json.dumps([r["digest"] for r in records], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "harmonic" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    if args.setup_only:
        plan, _, seconds = set_up(args)
        plan.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    child = untraced_child(args) if args.trace else None
    plan, tracer, setup_main = set_up(args)
    try:
        cpu0 = cpu_seconds()
        records = run_requests(plan)
        cpu_s = cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
        plan.close()
    setups = [setup_main]
    if not (args.trace or args.no_setup_samples):
        setups += setup_samples(args)

    # a shared 2-vCPU Xeon host runs at two speeds about 1.4x apart, in
    # phases of seconds to minutes; the plain total averages over the phases
    # a run sees, where medians of a few rounds would pick one of them
    wall = sum(r["seconds"] for r in records)
    failed = [r for r in records if r["status"] != "ok"]
    wrong = [r for r in records if r["status"] == "wrong"]
    digest = digest_of(records)
    correct = not wrong
    e2e = {
        "wall_s": (wall, "s"),
        "latency_p50_s": (statistics.median(r["seconds"] for r in records), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    if tracer is None:
        chosen = e2e
    else:
        from tracer import layer_units
        layer = tracer.metrics()
        layer.update({
            "cli.bytes_out": plan.bytes_out,
            "process.cpu_s": cpu_s,
            "trace.overhead_s": wall - child[0]["metrics"]["wall_s"]["value"],
            "error_rate": len(failed) / len(records),
        })
        chosen = {n: (layer[n], u) for n, u in layer_units().items()}
        if child[1] != digest:
            correct = False
            print("traced answers differ from the untraced run",
                  file=sys.stderr)

    result = {"correct": correct, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in chosen.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"args": vars(args), "environment": environment(),
              "result": result, "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "setup_samples_s": setups, "digest": digest,
              "error_rate": len(failed) / len(records),
              "failing_requests": [
                  {"request": r["request"], "status": r["status"],
                   "detail": r["detail"]} for r in failed],
              "requests": records}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        (OUT / f"{stem}.spans.json").write_text(
            json.dumps(tracer.span_records()))
    for r in failed:
        print(f"{r['status']}: {json.dumps(r['request'])}: {r['detail']}")
    print(f"digest {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
