#!/usr/bin/env python3
"""The padre benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ingest|restore|churn|tenants \
        --seed N --seconds S --trace 0|1

Run it from the root of a padre checkout. It builds padre's libraries and
the padre_bench binary from source (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload as a closed loop
from one client thread for at least S seconds of timed work, checking
every output against a reference model.

Standard output ends with two JSON lines: the run's manifest (seed,
workload parameters, source revision, build, host CPU and pool width),
then the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of catalog.py, with
--trace 1 its per-layer metrics; each is {"value": v, "unit": u}. Both
lines are also kept in <build dir>/results/. Exits non-zero without a
result when padre's sources are missing, the build fails or padre_bench
misbehaves.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import catalog  # noqa: E402

BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds padre_bench; build output goes to
    stderr so stdout stays the result stream."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("padre sources not found at %s" % os.path.join(ROOT, "src"))
    if not shutil.which("cmake"):
        die("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            die("configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "padre_bench",
                   "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "padre_bench")


def source_revision():
    """git revision when the checkout is a repository, and always a
    digest of padre's sources (a checkout may not be a repository)."""
    rev = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git": rev, "src_sha1": digest.hexdigest()}


def host_cpu():
    model, flags = None, set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    wanted = ("sha_ni", "sse4_2", "avx2", "avx512f")
    return {"model": model, "flags": {f: f in flags for f in wanted},
            "nproc": os.cpu_count()}


def select_metrics(workload, trace, raw):
    """The catalogue's metrics for this run, each with its unit. A
    per-layer metric of a layer the workload does not use reads 0."""
    entries = catalog.PER_LAYER if trace else catalog.E2E
    out = {}
    for m in entries:
        name = m["name"]
        value = raw.get(name)
        if workload in m["workloads"]:
            if value is None:
                die("padre_bench did not report %s" % name)
        elif value is not None:
            die("padre_bench reported %s, which the catalogue does not list for "
                "%s" % (name, workload))
        else:
            value = 0.0
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(build_dir, "runs", tag)
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("padre_bench exceeded %d s" % BENCH_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die("padre_bench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("padre_bench printed no result")
    raw = json.loads(lines[-1])

    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": raw["params"], "rounds": raw["rounds"],
        "latency_samples_per_round": raw["metrics"].get("client.op_samples"),
        "revision": source_revision(), "build": raw["build"],
        "cpu": host_cpu(), "pool_threads": raw["pool_threads"],
        "ftl": raw["params"].get("ftl_geometry", "off"),
        "errors": raw["errors"],
    }
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": select_metrics(args.workload, args.trace, raw["metrics"]),
    }
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"manifest": manifest, "result": result,
                   "all_metrics": raw["metrics"]}, f, indent=1)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
