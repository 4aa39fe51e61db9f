#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics hold still across seeds.

Runs the BENCHMARK.json command once per (seed, workload), interleaving the
workloads so that slow drift of the machine spreads over all of them, then
prints for every end-to-end metric its median and its spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as
a share of the median, next to the metric's bound. A spread above a third
of its bound is flagged. With --compare FILE it also prints how far each
median moved from a previous set saved with --save.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --save .bench_build/set1.json
    python3 perfbench/spread.py --seeds 1-10 --compare .bench_build/set1.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the raw results to this file")
    ap.add_argument("--compare", help="compare medians with a saved set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    values = {w: {m["name"]: [] for m in metrics} for w in names}
    runs = []
    bad = 0
    for seed in parse_seeds(args.seeds):
        for w in names:
            info, res = run_once(bench, w, seed, args.trace)
            runs.append({"info": info, "result": res})
            if not res["correct"] or res["failed"]:
                bad += 1
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']} mismatch={info.get('digest_mismatch')}")
            for m in metrics:
                values[w][m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"done {w} seed {seed}", file=sys.stderr)

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"values": values, "runs": runs}, f)
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["values"]

    flagged = 0
    for w in names:
        print(f"\n{w}")
        for m in metrics:
            xs = values[w][m["name"]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / abs(med) if med else float("inf")
            bound = m.get("bound")
            line = f"  {m['name']:<24} median {med:<12.6g} spread {spread:7.2%}"
            if bound is not None:
                line += f"  bound {bound:.2f}"
                if m["name"] != "setup_s" and spread > bound / 3:
                    line += "  SPREAD > bound/3"
                    flagged += 1
            if w in previous and bound is not None:
                old = statistics.median(previous[w][m["name"]])
                worse = (med - old) / abs(old) if old else 0.0
                if m["better"] == "higher":
                    worse = -worse
                line += f"  worse-than-saved {worse:+7.2%}"
                if worse > bound:
                    line += "  MEDIAN MOVED PAST BOUND"
                    flagged += 1
            print(line)
    print(f"\nruns with failures: {bad}; flagged: {flagged}")
    return 1 if bad or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
