#!/usr/bin/env python3
"""A/A noise check for the repo benchmark.

    python3 perfbench/noise.py [--sets 2] [--runs 10] [--workload NAME ...]

Runs ``run.py`` ``--runs`` times per workload (each run with another
seed) in each of ``--sets`` sets, all on the same build, and prints per
metric and workload: each set's median and quartiles, the spread
(Q3 - Q1) / median, and the relative difference of each later set's
median from the first.  With the bounds in BENCHMARK.json it flags a
spread above the bound (setup_s excepted) or a later median worse than
the first by more than the bound.  Raw results go to
.bench_work/noise.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace), "--no-build"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    if r.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed, r.returncode))
    res = json.loads(r.stdout.decode().strip().splitlines()[-1])
    if not res["correct"]:
        print("  %s seed %d: %d of %d operations failed"
              % (workload, seed, res["failed"], res["attempted"]), file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    run.build()
    raw = {}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i
                print("set %d %s seed %d" % (s + 1, w, seed), file=sys.stderr, flush=True)
                raw.setdefault(w, []).append((s, once(w, seed, args.seconds, args.trace)))
    (run.WORK / "noise.json").write_text(json.dumps(raw, indent=1))

    bad = 0
    print("%-14s %-24s %4s %12s %12s %12s %8s %8s %s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread", "vs set1", ""))
    for w in workloads:
        names = raw[w][0][1].keys()
        for name in names:
            first = None
            for s in range(args.sets):
                vals = [m[name] for k, m in raw[w] if k == s]
                med, q1, q3, sp = spread(vals)
                first = med if first is None else first
                diff = (med - first) / first if first else 0.0
                flag = ""
                b = bounds.get(name)
                if b:
                    worse = diff if b["better"] == "lower" else -diff
                    if name != "setup_s" and sp > b["bound"]:
                        flag += " SPREAD>%g" % b["bound"]
                        bad += 1
                    elif name != "setup_s" and sp > b["bound"] / 3:
                        flag += " (spread above a third of the bound)"
                    if worse > b["bound"]:
                        flag += " DRIFT>%g" % b["bound"]
                        bad += 1
                print("%-14s %-24s %4d %12.4g %12.4g %12.4g %8.3f %+8.3f%s" % (
                    w, name, s + 1, med, q1, q3, sp, diff, flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
