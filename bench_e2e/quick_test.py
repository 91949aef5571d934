#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny scale.

    python3 bench_e2e/quick_test.py --binary <bench_e2e> --workdir <dir>

Runs every workload in BENCHMARK.json untraced and traced and checks that
each run exits 0, reports correct with no failed request (failed_frac is
0), and prints every metric BENCHMARK.json names with its unit.
Registered as the `bench_e2e_quick` test of the benchmark's CMake
package (labels perf and serve).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SCALE = "0.05"


def check_run(binary, workdir, workload, trace, expected):
    command = [binary, "--workload", workload, "--seed", "1", "--seconds",
               "0.1", "--trace", trace, "--scale", SCALE, "--workdir",
               os.path.join(workdir, f"{workload}-{trace}")]
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=600)
    what = f"{workload} --trace {trace}"
    if result.returncode != 0:
        return [f"{what}: exit {result.returncode}: {result.stderr.strip()}"]
    lines = [json.loads(line) for line in result.stdout.splitlines()
             if line.startswith("{")]
    summary = lines[-1]
    problems = []
    if summary.get("correct") is not True or summary.get("failed") != 0:
        problems.append(f"{what}: correct={summary.get('correct')} "
                        f"failed={summary.get('failed')}")
    if summary.get("attempted", 0) < 1:
        problems.append(f"{what}: nothing attempted")
    printed = summary.get("metrics", {})
    for metric in expected:
        entry = printed.get(metric["name"])
        if entry is None:
            problems.append(f"{what}: metric {metric['name']} missing")
        elif entry.get("unit") != metric["unit"]:
            problems.append(f"{what}: metric {metric['name']} has unit "
                            f"{entry.get('unit')}, want {metric['unit']}")
    if trace == "0":
        failed_frac = [line["value"] for line in lines
                       if line.get("metric") == "failed_frac"]
        if failed_frac != [0]:
            problems.append(f"{what}: failed_frac {failed_frac}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = []
    for workload in bench["workloads"]:
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            problems += check_run(args.binary, args.workdir,
                                  workload["name"], trace, expected)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"bench_e2e_quick: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
