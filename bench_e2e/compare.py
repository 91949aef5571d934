#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench_e2e/compare.py BASE_DIR NEW_DIR
    python3 bench_e2e/compare.py RUNS_DIR

Each directory holds the saved stdout of bench_e2e runs, one file per
run (any name). A run file carries the benchmark's header line, which
names the workload, and ends with the summary object.

With two directories, every workload x metric pairing gets each side's
median and quartiles and one label:
  ok          the new median is not worse than the base median by more
              than the metric's bound;
  regressed   it is worse by more than the bound;
  unresolved  the run-to-run spread of either side exceeds the bound,
              so the data cannot tell, unless every new run reads better
              than every base run (then ok).
Per-layer metrics, which have no bound, are listed as info. The exit
code is 1 when any pairing regressed, 0 otherwise.

With one directory, the spread of every end-to-end metric is reported
against its bound; a spread above a third of the bound is flagged.

Spread is (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4). Standard library only.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(directory):
    """{workload: {metric: [values]}} from every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        workload = None
        summary = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("bench") == "e2e":
                    workload = record.get("workload")
                elif "metrics" in record:
                    summary = record
        if workload is None or summary is None:
            print(f"skipping {path}: no header or summary", file=sys.stderr)
            continue
        if not summary.get("correct") or summary.get("failed"):
            print(f"warning: {path} reports an incorrect run",
                  file=sys.stderr)
        metrics = runs.setdefault(workload, {})
        for metric, entry in summary["metrics"].items():
            metrics.setdefault(metric, []).append(float(entry["value"]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(base, new, better):
    """Relative worsening of new against base (positive = worse)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def all_better(base, new, better):
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def fmt(value):
    return f"{value:.6g}"


def compare(base_dir, new_dir, bench):
    base = load_runs(base_dir)
    new = load_runs(new_dir)
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    regressed = 0
    unresolved = 0
    header = (f"{'workload':<14} {'metric':<38} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'change':>8}  label")
    print(header)
    for workload in sorted(set(base) | set(new)):
        b_metrics = base.get(workload, {})
        n_metrics = new.get(workload, {})
        for metric in sorted(set(b_metrics) | set(n_metrics)):
            b = b_metrics.get(metric)
            n = n_metrics.get(metric)
            if not b or not n:
                print(f"{workload:<14} {metric:<38} missing on one side")
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            spec = bounded.get(metric)
            if spec is None:
                label = "info"
                change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            else:
                bound = spec["bound"]
                change = worse_by(bmed, nmed, spec["better"])
                if all_better(b, n, spec["better"]):
                    label = "ok"
                elif max(spread(b), spread(n)) > bound:
                    label = "unresolved"
                elif change > bound:
                    label = "regressed"
                else:
                    label = "ok"
                regressed += label == "regressed"
                unresolved += label == "unresolved"
            print(f"{workload:<14} {metric:<38} "
                  f"{fmt(bmed) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':<34} "
                  f"{fmt(nmed) + ' [' + fmt(nq1) + ', ' + fmt(nq3) + ']':<34} "
                  f"{change * 100:>7.1f}%  {label}")
    print(f"\n{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


def report_spread(runs_dir, bench):
    runs = load_runs(runs_dir)
    flagged = 0
    print(f"{'workload':<14} {'metric':<26} {'runs':>4} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload in sorted(runs):
        for spec in bench["end_to_end"]:
            values = runs[workload].get(spec["name"])
            if not values:
                continue
            s = spread(values)
            flag = ""
            if s > spec["bound"] / 3:
                flag = "  above a third of the bound"
                flagged += spec["name"] != "setup_s"
            print(f"{workload:<14} {spec['name']:<26} {len(values):>4} "
                  f"{fmt(statistics.median(values)):>12} {s:>8.3f} "
                  f"{spec['bound']:>6}{flag}")
    print(f"\n{flagged} metrics (setup_s aside) above a third of their bound")
    return 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        bench = json.load(handle)
    if len(argv) == 2:
        return report_spread(argv[1], bench)
    return compare(argv[1], argv[2], bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
