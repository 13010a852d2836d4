#!/usr/bin/env python3
"""Serve-path benchmark of the vnfr admission controller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the benchmark driver from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload with its controller state under .bench_state/ on the
checkout's own disk, and relays the driver's output. The last line of
standard output is the driver's JSON result. --self-test builds and runs
the benchmark's own tests instead. The exit code is 0 only when the
build succeeded and every correctness gate of the run passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("stream_closed", "long_horizon", "wide_pipeline", "trickle_open")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir, target):
    here = os.path.dirname(os.path.abspath(__file__))
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = [["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", target, "-j", BUILD_JOBS]]
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def declared_metrics(root, trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")

    if args.self_test:
        if not build(root, build_dir, "perfbench_tests"):
            return 1
        return subprocess.run(["ctest", "--test-dir", build_dir, "--output-on-failure"],
                              cwd=root).returncode

    if None in (args.workload, args.seed, args.trace) or not args.seconds or args.seconds < 1:
        parser.error("--workload, --seed, --seconds (>= 1) and --trace are required")
    if not build(root, build_dir, "vnfr_perfbench"):
        return 1

    # Start from a clean writeback state: dirty pages left by the build or
    # by the previous run would otherwise be flushed while this one is timed.
    os.sync()
    state_dir = os.path.join(root, ".bench_state", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "vnfr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state-dir", state_dir]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(root, ".bench_state", "spans",
                                            f"{args.workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stderr.write(done.stdout)
        log(f"driver printed no result (exit code {done.returncode})")
        return 1
    declared = declared_metrics(root, args.trace)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if declared is not None and printed != declared:
        sys.stderr.write(done.stdout)
        log("driver's metrics differ from the ones BENCHMARK.json declares")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
