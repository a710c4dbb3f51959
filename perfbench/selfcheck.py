#!/usr/bin/env python3
"""Self-check of the padre benchmark.

    python3 perfbench/selfcheck.py [--seconds S] [--seed N] [--heldout-seed M]

1. BENCHMARK.json matches what catalog.py implies.
2. On every workload, two runs of one seed, untraced and traced, report
   identical deterministic metrics (catalog entries marked det: modelled
   throughput and time, stored and NAND ratios, every per-layer count).
3. A held-out seed passes every correctness check on every workload,
   untraced and traced.

Prints each finding and exits 1 if any check fails. Run it from the root
of a padre checkout; it drives perfbench/run.py, which builds first.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import catalog  # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["manifest"]["errors"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--heldout-seed", type=int, default=424242)
    args = parser.parse_args()
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok    " if ok else "FAIL  ") + what)
        failures += 0 if ok else 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        check(json.load(f) == catalog.benchmark_json(),
              "BENCHMARK.json matches catalog.py")

    det = {m["name"] for m in catalog.E2E + catalog.PER_LAYER if m["det"]}
    for workload in catalog.WORKLOADS:
        for trace in (0, 1):
            runs = [run(workload, args.seed, args.seconds, trace)
                    for _ in range(2)]
            if any(r is None for r, _ in runs):
                check(False, "%s trace %d runs: %s" % (
                    workload, trace, [e for _, e in runs]))
                continue
            (a, _), (b, _) = runs
            diff = sorted(n for n in det & a["metrics"].keys()
                          if a["metrics"][n] != b["metrics"][n])
            check(not diff, "%s trace %d seed %d: deterministic metrics "
                  "repeat%s" % (workload, trace, args.seed,
                                " except %s" % diff if diff else ""))
            check(a["correct"] and b["correct"],
                  "%s trace %d seed %d: correct" % (workload, trace, args.seed))
            result, errors = run(workload, args.heldout_seed, args.seconds,
                                 trace)
            check(result is not None and result["correct"]
                  and result["failed"] == 0,
                  "%s trace %d held-out seed %d: correct%s" % (
                      workload, trace, args.heldout_seed,
                      "" if not errors else " (%s)" % errors))
    print("%d check(s) failed" % failures if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
