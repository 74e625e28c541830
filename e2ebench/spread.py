#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json once per (workload, seed) with --trace 0,
appends each result line to a JSON-lines file, and prints, per workload and
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median over
the seeds, next to the metric's bound. With two result files it also prints
how far the second set's median moved from the first's.

    python3 e2ebench/spread.py run --out e2ebench/out/set-a.jsonl --seeds 1-10
    python3 e2ebench/spread.py summary e2ebench/out/set-a.jsonl [e2ebench/out/set-b.jsonl]

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = str(args.seconds or bench["run_seconds"])
    with open(args.out, "a") as out:
        for name in names:
            for seed in seeds_of(args.seeds):
                cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                          "--seconds", seconds, "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr}")
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
                out.flush()
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{name} seed {seed}: correct={result['correct']} {values}", flush=True)


def medians_and_spreads(path):
    by = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if not r["result"]["correct"]:
                print(f"INCORRECT: {r['workload']} seed {r['seed']}")
            for k, v in r["result"]["metrics"].items():
                by.setdefault((r["workload"], k), []).append(v["value"])
    out = {}
    for key, vals in by.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        out[key] = (med, (q[2] - q[0]) / med if med else float("inf"), len(vals))
    return out


def summary(args):
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    sets = [medians_and_spreads(p) for p in args.files]
    worst = 0.0
    for key in sorted(sets[0]):
        workload, metric = key
        med, spread, n = sets[0][key]
        bound = bounds[metric]
        flag = "" if spread < bound / 3 else (" ABOVE BOUND/3" if spread <= bound else " ABOVE BOUND")
        line = f"{workload:16} {metric:13} n={n:2} median={med:<10.4g} spread={spread:6.2%} bound={bound:.2f}{flag}"
        if len(sets) > 1 and key in sets[1]:
            moved = sets[1][key][0] / med - 1
            line += f" | set2 spread={sets[1][key][1]:6.2%} median moved {moved:+.2%}"
            if moved > bound:
                line += " WORSE THAN BOUND"
        if metric != "setup_s":
            worst = max(worst, spread / bound)
        print(line)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = ap.parse_args()
    run(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    main()
