#!/usr/bin/env python3
"""Build and run one workload of the REMI benchmark.

    python3 remibench/run.py --workload serve_heavy|batch_mine \
        --seed N --seconds S --trace 0|1

Run from the root of a REMI checkout. The first call configures and builds
remibench/ (the library from src/ plus the harness) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build. The harness generates its inputs from the seed, measures for the
given seconds, checks the outputs, and prints one JSON result as the last
line of stdout. Everything it writes stays under the build directory.
Exit status: 0 = correct run, 1 = an output check failed (the result
still prints), 2 = no runnable benchmark (nothing prints).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_heavy", "batch_mine")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"remibench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "remibench")


def run(binary, args, work_dir, out_dir):
    """Runs the harness in its own process group; kills the whole group on
    timeout and always waits for it. Returns (exit code, stdout)."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--out-dir", out_dir]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    return proc.returncode, stdout


def check_metric_names(result, trace):
    """The harness must report exactly the metrics BENCHMARK.json names."""
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(manifest):
        return
    with open(manifest) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        fail(f"no REMI source tree at {ROOT}/src")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    try:
        binary = build(os.path.join(build_root, "remibench"))
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(build_root, "remibench-work", tag)
    out_dir = os.path.join(build_root, "remibench-out", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        code, stdout = run(binary, args, work_dir, out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if code not in (0, 1) or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        fail(f"harness exited {code} without a result")
    check_metric_names(result, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
