#!/usr/bin/env python3
"""Steadiness report: run the benchmark N times per workload and check spread.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads ingest-durable --runs 5 --sets 2

Each run uses its own seed (first-seed, first-seed+1, ...). For every metric
the report prints the median and quartiles (statistics.quantiles, n=4) and
the spread, (q3 - q1) / median. A metric is flagged when its spread exceeds
its bound in BENCHMARK.json, or when a later set's median is worse than the
first set's by more than the bound. Every run's stamp and result are
appended to .bench_build/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace, rep):
    env = dict(os.environ, PERFBENCH_REP=str(rep))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    stamp = next((json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp ")), {})
    if p.returncode != 0 or not lines:
        return stamp, None, f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
    return stamp, json.loads(lines[-1]), None


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(first, later, better):
    """Share by which later is worse than first (negative when better)."""
    if first == 0:
        return 0.0
    d = (later - first) / abs(first)
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "steady.jsonl"), "a")

    flagged = 0
    for wl in names:
        medians = []  # one {metric: median} per set
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                rep = s * args.runs + i
                stamp, res, err = run_once(wl, args.first_seed + i, seconds, args.trace, rep)
                log.write(json.dumps({"stamp": stamp, "result": res, "error": err}) + "\n")
                log.flush()
                if err or not res["correct"]:
                    flagged += 1
                    print(f"FLAG {wl} seed {args.first_seed + i}: {err or 'incorrect output'}")
                    continue
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"{wl} set {s + 1}: {args.runs} runs of {seconds} s")
            meds = {}
            for m in metrics:
                v = values[m["name"]]
                if len(v) < 2:
                    continue
                med, q1, q3, spread = summarize(v)
                meds[m["name"]] = med
                bound = m.get("bound")
                flag = bound is not None and spread > bound
                flagged += flag
                b = f"bound {bound:.2f}" if bound is not None else ""
                print(f"  {m['name']:34s} median {med:14.4f} q1 {q1:14.4f} q3 {q3:14.4f} "
                      f"spread {spread:6.3f} {b} {'FLAG' if flag else ''}")
            medians.append(meds)
        for s in range(1, len(medians)):
            for m in metrics:
                n, bound = m["name"], m.get("bound")
                if bound is None or n not in medians[0] or n not in medians[s]:
                    continue
                d = worse(medians[0][n], medians[s][n], m["better"])
                flag = d > bound
                flagged += flag
                print(f"  {wl} set {s + 1} vs set 1: {n:28s} worse by {d:+.3f} (bound {bound:.2f}) {'FLAG' if flag else ''}")
    print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
