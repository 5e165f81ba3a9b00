#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/BASELINE.json.

Run from the repository root:

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json this runs `perfbench/run.py`:

- `SEEDS` times with `--trace 0`, each with another seed, and records
  each end-to-end metric's median and its spread (the distance between
  the first and third quartiles as a share of the median), the figure
  the metric's bound is judged against;
- `TRACED` times with `--trace 1` on the default seed, and classifies
  every per-layer metric as exact (identical every time), near-exact
  (within 0.1%), racy (a count that moves) or timing (a duration or
  rate, never expected to repeat).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 7
HELD_OUT_SEED = 31337
SEEDS = 10
TRACED = 3
NEAR = 0.001


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"baseline: {workload} seed {seed} trace {trace} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def classify(name, unit, values):
    if unit in ("s", "us", "Minstr/s") or name.startswith(("ablation.", "trace.", "pool.")) \
            or name.endswith("_time_frac"):
        return "timing"
    lo, hi = min(values), max(values)
    if lo == hi:
        return "exact"
    if hi - lo <= NEAR * max(abs(hi), abs(lo)):
        return "near-exact"
    return "racy"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # The program is this commit's; only benchmark files may differ from it.
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ).stdout.strip() or "unknown"

    out = {
        "program_commit": commit,
        "nproc": os.cpu_count(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": bench["run_seconds"],
        "end_to_end": {},
        "per_layer": {},
        "determinism": {},
    }
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        seeds = [DEFAULT_SEED + k for k in range(SEEDS)]
        runs = [run(name, s, bench["run_seconds"], 0) for s in seeds]
        out["end_to_end"][name] = {
            m: {
                "median": statistics.median(r[m] for r in runs),
                "spread": spread([r[m] for r in runs]),
                "values": [r[m] for r in runs],
            }
            for m in runs[0]
        }
        print(f"{name}: " + ", ".join(
            f"{m} median {v['median']:.5g} spread {v['spread']:.3f}"
            for m, v in out["end_to_end"][name].items()), flush=True)
        traced = [run(name, DEFAULT_SEED, bench["run_seconds"], 1) for _ in range(TRACED)]
        out["per_layer"][name] = traced[0]
        out["determinism"][name] = {
            m: {"class": classify(m, units[m], [t[m] for t in traced]),
                "values": [t[m] for t in traced]}
            for m in traced[0]
        }
        held_out = run(name, HELD_OUT_SEED, bench["run_seconds"], 1)
        out["per_layer"][f"{name}@{HELD_OUT_SEED}"] = held_out

    with open(os.path.join(ROOT, "perfbench", "BASELINE.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
