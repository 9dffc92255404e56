#!/usr/bin/env python3
"""Builds the OFC simulator benchmark harness and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness is built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Its report is passed through; the last line
printed is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list, each with the unit declared
there. The exit code is 0 only when the build succeeded, the harness's checks
passed and every declared metric was reported.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_harness", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")
    harness = build(build_dir)

    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.csv")]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {TIME_LIMIT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"harness exited {proc.returncode} without a result")

    metrics = {}
    missing = []
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        if value is None:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": value["value"], "unit": metric["unit"]}
    for name in missing:
        print(f"CHECK FAILED: metric {name} not reported")
    correct = bool(result["correct"]) and proc.returncode == 0 and not missing
    print(f"harness wall time {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
