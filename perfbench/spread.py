#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and print every
metric's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/spread.py                      # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads routed-mixed --seeds 1-5

For each metric it prints the median of the runs and the spread, the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged. Every
run's JSON result is appended to --out (default
.bench_build/spread-results.jsonl) so two sets can be compared later.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, ".bench_build", "spread-results.jsonl"))
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload} ({len(seed_list(args.seeds))} runs, seeds {args.seeds})")
        print(f"  {'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            mid = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound and spread > bound / 3 else ""
            bound_text = f"{bound:6.2f}" if bound else "     -"
            print(f"  {name:34} {mid:14.6g} {spread:8.3f} {bound_text}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
