#!/usr/bin/env python3
"""Measure the workloads on several seeds and write a baseline file.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 0] [--workloads a,b] [--out FILE]

Runs run.py one process at a time: untraced once per seed for each workload,
then traced once at the first seed. An existing --out file keeps the entries
of the workloads not measured again. For each end-to-end metric it keeps every
value, the median, the quartiles (statistics.quantiles, n=4) and the spread,
(Q3 - Q1) / median, and marks a spread above a third of the metric's bound.
Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    report = json.loads(lines[-2].removeprefix("report "))
    report["process_s"] = time.perf_counter() - start
    return report, json.loads(lines[-1])


def _stats(values, bound=None):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    out = {"values": values, "median": median, "q1": q1, "q3": q3}
    if median:
        out["spread"] = (q3 - q1) / abs(median)
        if bound is not None:
            out["steady"] = out["spread"] < bound / 3
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            baseline = json.load(f)
    baseline["run_seconds"] = bench["run_seconds"]
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            report, result = _run(workload, seed, bench["run_seconds"], 0)
            runs.append((report, result))
            print(workload, seed, f"{report['process_s']:.1f}s", result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        baseline["environment"] = runs[0][0]["environment"]
        entry = {
            "seeds": seeds,
            "correct": all(r["correct"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "process_s": _stats([rep["process_s"] for rep, _ in runs]),
            "end_to_end": {
                name: _stats([r["metrics"][name]["value"] for _, r in runs], bound)
                for name, bound in bounds.items()},
            "figures": {},
        }
        for name in sorted(runs[0][0]["figures"]):
            # a figure is None where it does not apply, as time to target for a
            # seed that misses the target
            values = [rep["figures"].get(name) for rep, _ in runs]
            values = [v for v in values if isinstance(v, (int, float))]
            if name not in bounds and values:
                entry["figures"][name] = _stats(values)
        report, result = _run(workload, seeds[0], bench["run_seconds"], 1)
        entry["traced"] = {"seed": seeds[0], "correct": result["correct"],
                           "process_s": report["process_s"], "checks": report["checks"],
                           "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        baseline["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload:12s} {name:24s} median {s['median']:.6g} "
                  f"spread {s.get('spread', 0):.4f} bound {bounds[name]}"
                  f"{'' if s.get('steady', True) else '  NOT STEADY'}", flush=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
