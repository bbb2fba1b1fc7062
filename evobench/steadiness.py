#!/usr/bin/env python3
"""Steadiness report for one workload of the evoforecast benchmark.

Runs the benchmark several times and prints, for every end-to-end metric,
the median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json. With
--sets 2 it repeats the whole set and compares the two sets seed for seed:
the ratio of their medians and each seed's ratio. These numbers are the
evidence for the bounds in BENCHMARK.json.

Examples, from the root of a checkout:

    # one seed, ten runs: run-to-run noise of the same inputs
    python3 evobench/steadiness.py --workload train_venice --seeds 1 --runs 10
    # ten seeds, one run each, twice: what a comparison of two commits sees
    python3 evobench/steadiness.py --workload serve_batch --seeds 1-10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}): {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run not correct (seed {seed}):\n{out.stdout[-4000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(name, values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
    print(f"  {name:20s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
          f"spread {spread:7.4f}  bound {bound:5.3f}  {flag}")
    return med


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--runs", type=int, default=1, help="runs per seed")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            for _ in range(args.runs):
                runs.append((seed, run_once(args.workload, seed, seconds)))
        sets.append(runs)
        print(f"set {s + 1}: {args.workload}, seeds {seeds}, {args.runs} run(s) each, {seconds} s")
        for name, m in bounds.items():
            summarize(name, [r[name] for _, r in runs], m["bound"])

    if len(sets) >= 2:
        print("set 2 vs set 1 (worse is positive; bound in brackets)")
        for name, m in bounds.items():
            sign = 1 if m["better"] == "lower" else -1
            a = statistics.median(r[name] for _, r in sets[0])
            b = statistics.median(r[name] for _, r in sets[1])
            worse = sign * (b - a) / a
            per_seed = [sign * (rb[name] - ra[name]) / ra[name]
                        for (_, ra), (_, rb) in zip(sets[0], sets[1])]
            flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            print(f"  {name:20s} medians {a:14.4f} -> {b:14.4f}  worse by {worse:+.4f} "
                  f"[{m['bound']}]  {flag};  per seed {', '.join(f'{x:+.3f}' for x in per_seed)}")


if __name__ == "__main__":
    main()
