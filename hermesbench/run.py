#!/usr/bin/env python3
"""End-to-end benchmark of the HERMES reproduction.

    python3 hermesbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver (hermesbench/driver.cpp plus the libraries under src/)
into $CARGO_TARGET_DIR (default .bench_build) on first use, then runs the
named workload as a series of isolated driver processes for S seconds,
cycling through a fixed set of inputs drawn from --seed, and prints one
JSON object as the last line of stdout:

  --trace 0  the end-to-end metrics: medians of the wall-clock phases and
             of peak RSS over the repetitions, and the simulated outcome
             pooled over the input sets, which every repetition of a set
             must reproduce exactly;
  --trace 1  the per-layer metrics of traced repetitions, interleaved with
             untraced ones to measure the tracing overhead. Spans and layer
             self times go to .bench_out/trace-<workload>-<seed>.json.

See hermesbench/README.md for the workloads, metrics and checks.
"""

import argparse
import array
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("overlay-scale", "sustained-load", "churn")
# Outputs of the simulation: identical on every repetition of one seed.
SIMULATED = ("latency_p50_ms", "latency_p99_ms", "latency_samples",
             "bytes_per_tx", "attacked", "frontrun_wins", "attempted",
             "failed", "overlay_digest", "delivery_digest")
# --seed expands into this many instance seeds, seed * 16 + j. Repetitions
# cycle through the instances, so the wall-clock medians average over inputs
# as well as over host noise. churn needs the most: its repair work swings
# with arrival timing.
INSTANCES = {"overlay-scale": 3, "sustained-load": 3, "churn": 6}
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "hermesbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hermesbench_driver", "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=870).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(log: {build_log})")
    return build_dir / "hermesbench_driver"


def repeat(exe, workload, seed, trace_out=None, workers=None,
           samples_out=None):
    """One isolated driver process; returns its JSON result."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if samples_out is not None:
        cmd += ["--samples-out", str(samples_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulated(result):
    return {k: result[k] for k in SIMULATED}


def median(results, key):
    return statistics.median(r[key] for r in results)


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted list (as the driver computes it)."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end(runs, latencies, instances):
    """Wall-clock medians over all repetitions; the simulated outcome pooled
    over the instances (latencies: their samples, sorted)."""
    distinct = runs[:instances]
    attacked = sum(r["attacked"] for r in distinct)
    wins = sum(r["frontrun_wins"] for r in distinct)
    return {
        "setup_s": (median(runs, "setup_s"), "s"),
        "run_s": (median(runs, "run_s"), "s"),
        "peak_rss_mb": (median(runs, "peak_rss_mb"), "MB"),
        "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99), "ms"),
        "bytes_per_tx": (sum(r["bytes_sent"] for r in distinct)
                         / sum(r["attempted"] for r in distinct), "B"),
        "fair_order_rate": (1.0 - wins / attacked if attacked else 1.0,
                            "ratio"),
    }


def per_layer(traced, untraced, units):
    """Counts of the first instance, medians of the measured figures, and
    the tracing overhead."""
    counts = traced[0]["layer_counts"]
    out = {}
    for key, unit in units.items():
        if key.startswith("trace."):
            continue
        out[key] = (counts[key] if key in counts
                    else median([r["layer_times"] for r in traced], key), unit)
    out["trace.setup_overhead_s"] = (
        median(traced, "setup_s") - median(untraced, "setup_s"), "s")
    out["trace.run_overhead_s"] = (
        median(traced, "run_s") - median(untraced, "run_s"), "s")
    return out


def check(runs, traced):
    """Correctness problems across all repetitions (empty when correct)."""
    problems = []
    for r in runs + traced:
        problems += [f"seed {r['seed']}: {p}" for p in r["check_failures"]]
    first = {}
    for r in runs:
        if simulated(first.setdefault(r["seed"], r)) != simulated(r):
            problems.append(f"seed {r['seed']}: a repetition changed the "
                            "simulated outcome")
    first_traced = {}
    for r in traced:
        if simulated(r) != simulated(first[r["seed"]]):
            problems.append(f"seed {r['seed']}: tracing changed the "
                            "simulated outcome")
        ref = first_traced.setdefault(r["seed"], r)
        if r["layer_counts"] != ref["layer_counts"]:
            problems.append(f"seed {r['seed']}: a traced repetition changed "
                            "a layer count")
    return problems


def report(workload, seed, runs, traced, metrics, problems, samples):
    host = runs[0]["host"]
    print(f"host: nproc={host['nproc']} cpu=\"{host['cpu']}\" "
          f"compiler=\"{host['compiler']}\" build={host['build_type']}")
    first = runs[0]
    print(f"{workload} seed={seed}: {len(runs)} untraced + {len(traced)} "
          f"traced repetitions over instance seeds "
          f"{sorted({r['seed'] for r in runs})}, {first['nodes']} nodes, "
          f"{first['workers']} engine workers")
    print(f"  setup_s {[round(r['setup_s'], 3) for r in runs]}")
    print(f"  run_s {[round(r['run_s'], 3) for r in runs]}")
    for r in runs[:INSTANCES[workload]]:
        print(f"  instance {r['seed']}: attempted {r['attempted']}, failed "
              f"{r['failed']}, latency p50 {r['latency_p50_ms']:.3f} ms "
              f"p99 {r['latency_p99_ms']:.3f} ms over "
              f"{r['latency_samples']} samples, front-run "
              f"{r['frontrun_wins']}/{r['attacked']}, digests "
              f"overlay={r['overlay_digest'][:16]} "
              f"delivery={r['delivery_digest'][:16]}")
    if samples:
        print(f"  pooled latency samples: {samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        runs, traced, latencies = [], [], []
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_out = None
        if args.trace:
            trace_out = out_dir / f"trace-{args.workload}-{args.seed}.json"
        samples_out = out_dir / f"samples-{args.workload}-{args.seed}.bin"
        instances = INSTANCES[args.workload]
        start = time.monotonic()
        # Every instance runs at least once; its first run also hands over
        # its latency samples. Untraced and traced repetitions alternate in
        # trace mode, so drift on the host hits both sides of the overhead
        # difference alike.
        while (len(runs) < instances
               or time.monotonic() - start < args.seconds):
            seed = args.seed * 16 + len(runs) % instances
            log(f"repetition {len(runs) + len(traced) + 1} (seed {seed})")
            first = len(runs) < instances
            runs.append(repeat(exe, args.workload, seed,
                               samples_out=samples_out if first else None))
            if first:
                samples = array.array("d", samples_out.read_bytes())
                latencies.extend(samples)
                samples_out.unlink()
            if args.trace:
                traced.append(repeat(exe, args.workload, seed, trace_out))
        latencies.sort()
        problems = check(runs, traced)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = per_layer(traced, runs, units)
        else:
            metrics = end_to_end(runs, latencies, instances)
        report(args.workload, args.seed, runs, traced, metrics, problems,
               len(latencies))
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"hermesbench: {e}")
        return 1

    distinct = runs[:INSTANCES[args.workload]]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in distinct),
        "failed": sum(r["failed"] for r in distinct),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
