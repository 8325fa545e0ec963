#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Configures and builds the CMake package in this directory (the `stamped`
library from ../src plus the `perfbench` executable) into .bench_build/ at the
repository root, then runs perfbench with the same arguments. Build output
goes to stderr, so the last line of stdout is perfbench's JSON result. The
traced run (--trace 1) writes its Chrome trace-event JSON into .bench_build/.
Exits non-zero, without a result line, when the sources or the build fail.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"

BUILD_TIMEOUT_S = 870
# perfbench stops a run that is still short of its minimum samples at
# OVERTIME x --seconds (kOvertime in src/main.cpp); the margin covers
# start-up and the traced run's reference rounds and probes.
OVERTIME = 3
RUN_MARGIN_S = 60


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        command = [str(BINARY), "--selftest"]
    else:
        trace_out = BUILD / f"trace-{args.workload}.json"
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--trace-out", str(trace_out)]
    sys.stdout.flush()
    timeout = RUN_MARGIN_S + (0 if args.selftest else OVERTIME * args.seconds)
    try:
        result = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {timeout} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
