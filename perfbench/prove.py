"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/prove.py --seeds 10 --seconds 20 [--workloads spectral]
        [--trace-seed 1] [--baseline perfbench/baseline.json]

Runs are sequential, one process at a time.  For each end-to-end metric it
prints the median, the quartiles and the quartile spread as a share of the
median (the stability measure BENCHMARK.json bounds are checked against).
With --baseline it also writes those figures, the error rate, every failing
request, the traced per-layer metrics of --trace-seed and the environment.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                         cwd=ROOT, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
                         ".json").read_text())
    return result, report


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--baseline", default=None)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    for name in names:
        values, failing, env = {}, {}, None
        attempted = failed = 0
        correct = True
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, report = run(name, seed, seconds, 0)
            env = report["environment"]
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            for f in report["failing_requests"]:
                req = {k: v for k, v in f["request"].items() if k != "round"}
                key = json.dumps(req, sort_keys=True)
                entry = failing.setdefault(key, {"request": req,
                                                 "status": f["status"],
                                                 "detail": f["detail"],
                                                 "seeds": []})
                if seed not in entry["seeds"]:
                    entry["seeds"].append(seed)
        stats = {k: dict(spread(v), values=v) for k, v in values.items()}
        for k, s in stats.items():
            flag = "" if s["spread"] < bounds[k] / 3 else "  <-- above bound/3"
            print(f"{name:12s} {k:15s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread "
                  f"{s['spread']:.3f} (bound {bounds[k]}){flag}", flush=True)
        print(f"{name:12s} correct {correct} error_rate "
              f"{failed / attempted:.4f} ({failed}/{attempted})", flush=True)
        entry = {"correct": correct, "attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "end_to_end": stats,
                 "failing_requests": list(failing.values()),
                 "environment": env}
        if args.trace_seed is not None:
            result, _ = run(name, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "correct": result["correct"],
                                  "metrics": {k: m["value"] for k, m in
                                              result["metrics"].items()}}
            print(f"{name:12s} traced correct {result['correct']}", flush=True)
        summary["workloads"][name] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
