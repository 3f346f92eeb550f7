#!/usr/bin/env python3
"""The benchmark's own test.

    python3 hermesbench/selftest.py [--seed N]

Asserts that
  * sustained-load gives identical digests, simulated metrics and per-layer
    counts at 1 and 2 engine workers (the send-tap counts included);
  * tracing does not perturb the simulation: on every workload, a traced and
    an untraced run agree on every simulated metric and both digests.
Exits 0 when every assertion holds, 1 otherwise.
"""

import argparse
import sys

from run import ROOT, WORKLOADS, build, repeat, simulated


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    exe = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / "selftest-trace.json"
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    by_workers = {w: repeat(exe, "sustained-load", args.seed, trace_out, w)
                  for w in (1, 2)}
    one, two = by_workers[1], by_workers[2]
    expect(simulated(one) == simulated(two),
           "sustained-load: digests and simulated metrics equal at workers 1 and 2")
    expect(one["layer_counts"] == two["layer_counts"],
           "sustained-load: per-layer counts equal at workers 1 and 2")

    for workload in WORKLOADS:
        traced = (two if workload == "sustained-load"
                  else repeat(exe, workload, args.seed, trace_out))
        plain = repeat(exe, workload, args.seed)
        expect(simulated(traced) == simulated(plain),
               f"{workload}: tracing leaves digests and simulated metrics unchanged")
        expect(not traced["check_failures"] and not plain["check_failures"],
               f"{workload}: correctness checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
