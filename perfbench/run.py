#!/usr/bin/env python3
"""Cold end-to-end campaign benchmark for the SWIFI reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload jb-paper --seed 7 --seconds 20 --trace 0

Builds `perfbench/` (a Cargo package of its own) and drives its
`swifi-perfbench` binary, one fresh process per step:

- `reference`: the all-layers-off campaign for this seed, computed once
  per (binary, workload, seed) and kept under the build directory;
- `pass` (repeated until `--seconds` have passed, at least three times):
  one cold default campaign pass, checked against the reference. CPU
  time and peak RSS of the pass come from the process's `wait4` rusage;
- `setup` (several times before each pass): one cold set-up of the
  workload's campaigns. A set-up takes milliseconds, so its samples are
  spread over the whole run to see the same host as the passes.

With `--trace 1` it instead runs one `traced` step, which reports every
per-layer metric and writes a Chrome trace next to the build.

Human-readable lines go first; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Any correctness
mismatch makes the exit code non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUPS_PER_PASS = 5
MIN_PASSES = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target_dir):
    """Build the benchmark binary; return its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(PACKAGE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's own output goes to stderr so stdout ends with the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target_dir, "release", "swifi-perfbench")


def step(binary, name, args):
    """Run one step in a fresh process; return (result, rusage)."""
    proc = subprocess.Popen(
        [binary, name] + args, stdout=subprocess.PIPE, cwd=ROOT, text=True
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: step `{name}` failed ({proc.returncode})")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), usage


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def reference(binary, target_dir, common, workload, seed):
    """Path of the all-layers-off reference, computing it if absent."""
    cache = os.path.join(target_dir, "perfbench-ref")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"{file_digest(binary)}-{workload}-{seed}.json")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        step(binary, "reference", common + ["--out", tmp])
        os.replace(tmp, path)
    return path


def measure(binary, common, ref, seconds):
    """Repeated cold passes plus repeated set-ups: end-to-end metrics."""
    setups = []
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        setups += [step(binary, "setup", common)[0]["setup_s"] for _ in range(SETUPS_PER_PASS)]
        result, usage = step(binary, "pass", common + ["--reference", ref])
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["rss_mb"] = usage.ru_maxrss / 1024.0
        passes.append(result)
        log(
            f"pass {len(passes)}: {result['runs']} runs in {result['wall_s']:.3f}s, "
            f"cpu {result['cpu_s']:.2f}s, peak rss {result['rss_mb']:.1f} MB, "
            f"{result['failed']}/{result['items']} fault records differ"
        )
    values = {
        "runs_per_s": statistics.median(p["runs"] / p["wall_s"] for p in passes),
        "cpu_s_per_krun": statistics.median(1000.0 * p["cpu_s"] / p["runs"] for p in passes),
        "setup_s": statistics.median(setups),
        # Peak RSS is bimodal across passes (the pool workers race to
        # fill the prefix cache), so a median flips between the modes;
        # the mean moves smoothly.
        "peak_rss_mb": statistics.mean(p["rss_mb"] for p in passes),
    }
    return values, passes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if opts.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload `{opts.workload}`")
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    binary = build(target_dir)

    work = os.path.join(target_dir, "perfbench-work", f"{opts.workload}-{opts.seed}-{os.getpid()}")
    common = ["--workload", opts.workload, "--seed", str(opts.seed), "--work", work]
    try:
        ref = reference(binary, target_dir, common, opts.workload, opts.seed)
        if opts.trace:
            declared = bench["per_layer"]
            trace_dir = os.path.join(target_dir, "perfbench-traces")
            os.makedirs(trace_dir, exist_ok=True)
            result, _ = step(binary, "traced", common + ["--reference", ref, "--trace-dir", trace_dir])
            values = result["metrics"]
            steps = [result]
        else:
            declared = bench["end_to_end"]
            values, steps = measure(binary, common, ref, opts.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit(f"perfbench: measured {sorted(values)}, declared {sorted(names)}")
    attempted = sum(s["items"] for s in steps)
    failed = sum(s["failed"] for s in steps)
    abnormal = sum(s["abnormal"] for s in steps)
    correct = failed == 0 and all(s["reports_equal"] for s in steps)
    for s in steps:
        for m in s["mismatches"]:
            log(f"MISMATCH: {m}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{opts.workload:16s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{opts.workload:16s} {'failed_frac':34s} {failed / attempted:>16.6g} fraction"
          f" ({failed} of {attempted} fault records, {abnormal} abnormal)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
