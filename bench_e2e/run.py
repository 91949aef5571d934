#!/usr/bin/env python3
"""Builds the end-to-end serving benchmark and runs one workload.

Run from the repository root:

    python3 bench_e2e/run.py --workload deep-gp --seed 1 --seconds 20 --trace 0

The first run configures and builds the benchmark (the dbtune library
from src/ plus the benchmark program) under .bench_build/bench_e2e;
later runs only check that the build is current. Build output goes to stderr. The
benchmark's own output goes to stdout; its last line is the summary
object {"correct", "attempted", "failed", "metrics"}. The exit code is
the benchmark's: 0 only when every request succeeded and every served
trajectory matched the standalone loop.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")

# A stuck run is stopped rather than left to hang its caller.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(1)


def scoped_env():
    """The environment for the build and the benchmark.

    Temporary files go under the build root, so nothing is written outside
    the checkout. The library's DBTUNE_* switches (thread count,
    observability, store) would change what is measured; the benchmark
    sets everything it needs explicitly.
    """
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DBTUNE_")}
    env["TMPDIR"] = tmp
    return env


def run_build_step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            env=scoped_env())
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(command)}")


def configured_source(cache_path):
    """Source directory a CMake cache was configured for, or None."""
    with open(cache_path, encoding="utf-8", errors="replace") as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dbtune sources not found: src/CMakeLists.txt is missing")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    # A build tree copied from another checkout points at that checkout's
    # sources; configure afresh instead.
    if os.path.isfile(cache) and configured_source(cache) != HERE:
        os.remove(cache)
    if not os.path.isfile(cache):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_build_step(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", os.path.join(BUILD_ROOT, "e2e-work", tag)]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, env=scoped_env(), cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
