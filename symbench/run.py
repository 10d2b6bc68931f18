#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 symbench/run.py --workload <rag|chat_burst|agent_failover> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); the first call configures and compiles the simulator and the
benchmark, later calls only rebuild what changed. Build output goes to
stderr so that the benchmark's JSON result stays the last line of stdout.
With --trace 1 the traced run's Chrome trace is written into the build
directory as trace_<workload>.json (the latest run of each workload).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "symbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"symbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, "symbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir, f"trace_{args.workload}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
