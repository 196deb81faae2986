#!/usr/bin/env python3
"""Repeat `run.py` over seeds and report each metric's median and spread.

    python3 perfbench/baseline.py --seeds 10 [--workload NAME ...] [--write]

For every workload (default: those in BENCHMARK.json) this runs
`run.py --trace 0` once per seed 1..N, one run at a time, and one
`--trace 1` run on seed 1.  It prints, per end-to-end metric, the median,
the quartiles and the spread (quartile distance over median, as the
acceptance check computes it) next to the metric's bound, and names every
listed metric that is not above 0.  `--write` stores the figures in
perfbench/baseline.json, replacing only the workloads that were run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2])["report"]


def summary(values):
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return {"values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None, "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    stored = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.is_file() else {}
    for workload in workloads:
        reports = [run(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = run(workload, 1, seconds, 1)
        end_to_end = {
            name: dict(summary([r["metrics"][name]["value"] for r in reports]),
                       unit=reports[0]["metrics"][name]["unit"])
            for name in reports[0]["metrics"]
        }
        attempted = sum(r["cycles"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        print(f"{workload}: {args.seeds} seeds, {attempted} cycles, {failed} failed")
        for name, s in end_to_end.items():
            if "median" not in s:
                print(f"  {name:14s} no passing samples")
                continue
            bound = bounds.get(name)
            print(f"  {name:14s} median {s['median']:.4f} {s['unit']:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f}"
                  + (f"  bound {bound} ({s['spread'] / bound:.2f} of it)" if bound else ""))
        listed = [(m["name"], r["metrics"]) for m in spec["end_to_end"] for r in reports]
        listed += [(m["name"], traced["metrics"]) for m in spec["per_layer"]]
        not_positive = sorted({n for n, ms in listed if not (ms[n]["value"] or 0) > 0})
        if not_positive:
            print(f"  listed but not above 0: {', '.join(not_positive)}")
        stored[workload] = {
            "seeds": list(range(1, args.seeds + 1)),
            "run_seconds": seconds,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "failures": sorted({f for r in reports for f in r["failures"]}),
            "counts_per_seed": {r["seed"]: r["counts"] for r in reports},
            "work_s_samples_per_seed": {r["seed"]: r["work_s_samples"] for r in reports},
            "setup_s_samples_per_seed": {r["seed"]: r["setup_s_samples"] for r in reports},
            "time_to_failure_s": summary([r["time_to_failure_s"] for r in reports]),
            "end_to_end": end_to_end,
            "per_layer_seed1": {n: m["value"] for n, m in traced["metrics"].items()},
            "environment": reports[0]["environment"],
        }
    if args.write:
        BASELINE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
