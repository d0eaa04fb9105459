#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py BASE.jsonl NEW.jsonl

Each file holds the run records ``run.py --out`` appends; untraced runs
are grouped by workload.  For every (end-to-end metric, workload) pair
the metric's bound from ``BENCHMARK.json`` decides the verdict:

* ``unresolved`` — either side's spread (interquartile range over the
  median) is wider than the bound, unless every NEW run beats every
  BASE run (then ``improved``);
* ``regressed`` — NEW's median is worse than BASE's by more than the
  bound;
* ``improved`` — NEW's median is better by more than the bound and NEW
  beats BASE in at least 9 of 10 run pairs;
* ``ok`` — otherwise.  On a shared host two sets of the same code can
  differ by several percent, so a smaller change is not reported as
  either.

A pure simulator speed-up leaves every simulated observable identical,
so a workload whose observable digest differs between the sets for the
same seed and settings is flagged (``tlm_contention`` excepted: TLM
trades exactness for speed, so its error against the cycle-accurate
rows is printed instead).  The exit code is 1 on any regression or
flagged digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: workloads whose simulated observables may legitimately move
INEXACT = ("tlm_contention",)


def load(path) -> list:
    return [json.loads(line) for line in
            Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def spread(values) -> float:
    """Interquartile range over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(base, new, better: str, bound: float):
    """(verdict, signed change: positive means NEW is worse)."""
    sign = 1 if better == "lower" else -1
    worse = sign * (median(new) - median(base)) / median(base)
    wins = sum(sign * (b - n) > 0 for n in new for b in base)
    pairs = len(base) * len(new)
    if max(spread(base), spread(new)) > bound:
        return ("improved" if wins == pairs else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound and wins >= 0.9 * pairs:
        return "improved", worse
    return "ok", worse


def compare(base_runs, new_runs, spec) -> int:
    sides = []
    for runs in (base_runs, new_runs):
        grouped = defaultdict(list)
        for run in runs:
            if not run["host"]["traced"]:
                grouped[run["workload"]].append(run)
        sides.append(grouped)
    base, new = sides
    status = 0
    print(f"{'workload':<16}{'metric':<18}{'base':>14}{'new':>14}"
          f"{'change':>9}{'spread':>15}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in base[workload]]
            b = [run["metrics"][name]["value"] for run in new[workload]]
            result, worse = verdict(a, b, metric["better"], metric["bound"])
            status |= result == "regressed"
            print(f"{workload:<16}{name:<18}{median(a):>14.6g}"
                  f"{median(b):>14.6g}{worse * 100:>+8.1f}%"
                  f"{spread(a) * 100:>7.1f}/{spread(b) * 100:.1f}%"
                  f"  {result} (bound {metric['bound']:.0%})")
        cpus = {run["host"]["cpus"] for run in base[workload] + new[workload]}
        if len(cpus) > 1:
            print(f"{workload:<16}host cpus differ between runs: "
                  f"{sorted(cpus)}")
        if workload in INEXACT:
            for key in sorted(base[workload][0].get("report", {})):
                a = [run["report"][key] for run in base[workload]]
                b = [run["report"][key] for run in new[workload]]
                print(f"{workload:<16}{key:<18}{median(a):>14.6g}"
                      f"{median(b):>14.6g}  reported, not gated")
            continue
        digests = [defaultdict(set), defaultdict(set)]
        for runs, seen in zip((base[workload], new[workload]), digests):
            for run in runs:
                seen[(run["host"]["seed"], run["settings"])].add(
                    run["digest"])
        for key in sorted(set(digests[0]) & set(digests[1])):
            if len(digests[0][key] | digests[1][key]) > 1:
                status = 1
                print(f"{workload:<16}digest changed at seed {key[0]} "
                      f"({key[1]} settings): simulated observables moved")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="run records of the parent")
    parser.add_argument("new", help="run records of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return compare(load(args.base), load(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
