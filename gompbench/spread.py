#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each metric's median and quartile spread.

    python3 gompbench/spread.py --workloads kernels,regions,build \
        --seeds 1-10 --seconds 35 [--trace 0] [--out DIR] [--compare DIR]

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles(values, n=4)) as a share of
their median: the figure the end-to-end bounds in BENCHMARK.json are held
against. The report's figures (the absolute times behind the ratios, the
p99s) are summarised the same way. Run it from the repository root.
Every run's result line and the summary are also written to
<out>/spread-<workload>.json (default .bench_build). With --compare, each
gated metric's median is set against that of an earlier set written to
another directory: the check that two sets of runs of the same code
agree within the bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def compare(path, summary, bounds):
    """Prints each gated metric's median change from an earlier set. All
    end-to-end metrics are lower-is-better, so a rise beyond the bound is
    what the gate would report as a regression."""
    with open(path) as f:
        before = json.load(f)["summary"]
    print("  median against " + path + ":")
    for name, s in summary.items():
        if name not in bounds or name not in before:
            continue
        change = s["median"] / before[name]["median"] - 1
        flag = "WORSE" if change > bounds[name] else "ok"
        print(f"    {name:34s} {before[name]['median']:<12.6g} -> {s['median']:<12.6g} {change:+7.2%}  {flag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="kernels,regions,build")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=".bench_build",
                    help="directory for spread-<workload>.json")
    ap.add_argument("--compare", default="",
                    help="directory of an earlier set's spread-<workload>.json to compare medians with")
    args = ap.parse_args()
    bounds = {}
    with open("BENCHMARK.json") as f:
        for m in json.load(f)["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    os.makedirs(args.out, exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = ["bash", "gompbench/run.sh", "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("detail: "):
                    result["figures"] = json.loads(line[len("detail: "):])["figures"]
            runs.append(result)
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary = {}
        print(f"\n{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "UNSTEADY")
            unit = runs[0]["metrics"][name]["unit"]
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
            print(f"  {name:36s} median {med:<14.6g} {unit:6s} spread {spread:7.2%}  {flag}")
        print("  report figures (not gated):")
        for i, fig in enumerate(runs[0].get("figures", [])):
            values = [r["figures"][i]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"    {fig['name']:34s} median {med:<14.6g} {fig['unit']:6s} spread {spread:7.2%}")
        with open(os.path.join(args.out, f"spread-{workload}.json"), "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
        if args.compare:
            compare(os.path.join(args.compare, f"spread-{workload}.json"), summary, bounds)
    if args.trace == "0":
        print(f"\nworst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
