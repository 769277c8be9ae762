#!/usr/bin/env python3
"""Run one workload of the end-to-end sampling benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds the driver (e2ebench/CMakeLists.txt) into .bench_build/e2ebench;
later calls only let the build tool confirm it is up to date.  The driver's
standard output is passed through: its last line is the JSON result.  See
e2ebench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "gesmc_e2ebench")
# One run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes (seconds, not minutes)")
    parser.add_argument("--drop-metric", default="",
                        help="self-test: withhold one metric; the run must refuse")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"e2ebench: build failed: {exc}", file=sys.stderr)
        return 1

    workdir = os.path.join(".bench_build", "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.toy:
        cmd.append("--toy")
    if args.drop_metric:
        cmd += ["--drop-metric", args.drop_metric]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
