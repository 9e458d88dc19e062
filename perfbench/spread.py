#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each workload, run the benchmark once per seed and
report each metric's median and the distance between its first and
third quartiles as a share of the median, against the metric's bound
from BENCHMARK.json. Exits 1 if a run fails or a spread exceeds its
bound.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        runs = []
        for seed in seeds_of(a.seeds):
            t0 = time.monotonic()
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                capture_output=True, text=True)
            wall = time.monotonic() - t0
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            try:
                res = json.loads(last)
            except ValueError:
                res = None
            if out.returncode != 0 or not res or not res.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {out.returncode})\n{out.stdout}{out.stderr}")
                ok = False
                continue
            runs.append(res["metrics"])
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        if not runs:
            continue
        print(f"\n{w} ({len(runs)} runs)")
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
            else:
                spread = 0.0
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread > bound else "over 1/3")
            ok = ok and spread <= bound
            print(f"  {name:32s} median {med:14.6g} {runs[0][name]['unit']:8s}"
                  f" spread {100 * spread:6.2f}%  bound {100 * bound:.0f}% {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
