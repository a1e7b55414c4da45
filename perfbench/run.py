#!/usr/bin/env python3
"""Builds the imkbench benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --churn-rate 6 --workload fleet-boot-kaslr \
        --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/imkbench (default .bench_build/imkbench)
inside the checkout; traced runs write their Chrome trace under
$CARGO_TARGET_DIR/traces. The last line of standard output is the result
JSON. `--workload all` runs every workload in turn and ends with one JSON
line whose metric names are prefixed by the workload.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "fleet-boot-kaslr",
    "fleet-launch-fgkaslr",
    "single-boot-fgkaslr",
    "churn-pooled-fgkaslr",
]
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def run_one(binary, workload, args, trace_dir):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--churn-rate", repr(args.churn_rate),
        "--trace-dir", trace_dir,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"imkbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1] if args.workload == "all" else lines), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--churn-rate", type=float, required=True,
                        help="offered arrivals/s of churn-pooled-fgkaslr")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("imkbench: program sources not found next to perfbench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(target, "imkbench")
    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    if not build(build_dir):
        print("imkbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "imkbench")

    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, trace_dir)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args, trace_dir)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
