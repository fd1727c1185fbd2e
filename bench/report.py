#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric's spread.

    python3 bench/report.py --seeds 1-10 --seconds 30
    python3 bench/report.py --workloads fc_spectral --seeds 1-5 --trace 1

For each workload and metric it prints the unit, the median over runs, the
quartiles (``statistics.quantiles(n=4)``), the spread (interquartile range
as a share of the median), the number of runs and, for end-to-end metrics,
the bound from BENCHMARK.json. ``--out`` writes the environment record,
every run's metrics and this summary as JSON. Runs execute one at a time,
in a fresh process each, exactly as ``BENCHMARK.json``'s command runs them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(runs, bounds):
    """{workload: {metric: {unit, median, q1, q3, spread, n, bound}}} over runs."""
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    summary = {}
    for workload, metrics in values.items():
        for name, (unit, vals) in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            med = statistics.median(vals)
            summary.setdefault(workload, {})[name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(vals), "bound": bounds.get(name),
                "spread": (q3 - q1) / abs(med) if med else None,
            }
    return summary


def print_table(summary, seconds, trace):
    for workload, metrics in summary.items():
        n = max(m["n"] for m in metrics.values())
        print(f"\n{workload}  ({n} runs of {seconds:g} s, trace {trace})")
        print(f"  {'metric':36s} {'unit':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  n  bound")
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            flag = ""
            if m["bound"] is not None:
                over = m["spread"] is None or m["spread"] > m["bound"]
                flag = f"{m['bound']:.2f}" + ("  OVER" if over else "")
            print(f"  {name:36s} {m['unit']:14s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{spread:>8s} {m['n']:2d}  {flag}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the environment, runs and summary to this JSON file")
    args = parser.parse_args(argv)

    runs, env, status = [], None, 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            detail, result = run_once(spec["command"], workload, seed, args.seconds, args.trace)
            wall = time.perf_counter() - start
            env = env or detail["env"]
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **result})
            if not result["correct"]:
                status = 1
                print(f"{workload} seed {seed}: FAILED {detail.get('problems')}", file=sys.stderr)
            print(f"  {workload} seed {seed}: {result['attempted']} stages, {result['failed']} failed, "
                  f"{wall:.1f} s wall", file=sys.stderr, flush=True)
    summary = summarize(runs, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    print_table(summary, args.seconds, args.trace)
    if args.out:
        record = {"env": env, "seconds": args.seconds, "trace": args.trace, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
