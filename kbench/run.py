#!/usr/bin/env python3
"""Builds kbench from this checkout's sources and runs one workload.

    python3 kbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kizzle checkout. The build goes to
$CARGO_TARGET_DIR/kbench (default .bench_build/kbench) and is rebuilt
incrementally on every run; build output goes to stderr. The last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the sources cannot be built or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_day", "scan_deployed", "scan_10k_deploy")


def build(build_dir):
    """Configures and builds the kbench target; returns its path."""
    # Configuring an existing tree is quick, and re-running it every time
    # recovers a tree whose first configure failed.
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "kbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "kbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--pipeline-threads", type=int,
                        help="override the workload's pipeline thread count")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "kbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"kbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(build_dir, "work")]
    if args.pipeline_threads:
        command += ["--pipeline-threads", str(args.pipeline_threads)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
