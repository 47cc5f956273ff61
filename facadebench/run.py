#!/usr/bin/env python3
"""Builds the facade benchmark and runs one of its workloads.

Run from the repository root:

  python3 facadebench/run.py --workload <star-augment|er-vfl|serve-refresh> \
      --seed <n> --seconds <s> --trace <0|1>

Every run configures and builds the library and the benchmark with CMake into
$CARGO_TARGET_DIR/facadebench (default .bench_build/facadebench); after the
first run both steps find nothing to do. The workload's report goes to standard output,
followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the `end_to_end` metrics of BENCHMARK.json (--trace 0) or
its `per_layer` metrics (--trace 1). With --trace 1 the replay's spans are
also written to $CARGO_TARGET_DIR/traces/<workload>.json (the last traced
run of each workload).

Exits non-zero, without a result line, when the build fails, the workload
fails to run, or it does not print a metric BENCHMARK.json lists or one that
facadebench/metrics.json gives the workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"facadebench: {message}", file=sys.stderr)
    return 1


def build(build_root):
    """Configures and builds; returns the binary path or None."""
    build_dir = os.path.join(build_root, "facadebench")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp_dir))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    log_path = os.path.join(build_root, "facadebench-build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return None
    return os.path.join(build_dir, "facadebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "metrics.json")) as f:
            catalog = json.load(f)
    except (OSError, ValueError) as error:
        return fail(f"cannot read the metric lists: {error}")
    if args.workload not in [w["name"] for w in catalog["workloads"]]:
        return fail(f"unknown workload {args.workload}")
    cataloged = {m["name"]: m for m in catalog["end_to_end"]}
    for metric in spec["end_to_end"]:
        entry = cataloged.get(metric["name"], {})
        if any(entry.get(key) != metric[key] for key in metric):
            return fail(f"BENCHMARK.json and metrics.json disagree on "
                        f"{metric['name']}")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        return fail("build failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        return fail(f"{args.workload} exited with {run.returncode}")
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        return fail(f"{args.workload} printed nothing")
    result = json.loads(lines[-1])

    if not args.trace:
        for metric in catalog["end_to_end"]:
            if (args.workload in metric["workloads"]
                    and metric["name"] not in result["metrics"]):
                return fail(f"{args.workload} did not report {metric['name']}")
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        measured = result["metrics"].get(metric["name"])
        if measured is None:
            return fail(f"{args.workload} did not report {metric['name']}")
        if measured["unit"] != metric["unit"]:
            return fail(f"{metric['name']} is in {measured['unit']}, "
                        f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": measured["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
