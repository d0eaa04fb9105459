#!/usr/bin/env python3
"""End-to-end benchmark of the HyperConnect simulator.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload campaign --seed 3 \\
        --seconds 20 --trace 0 --out runs.jsonl
    python3 benchmarks/e2e/run.py --workload bursty_ports --trace

One workload (see ``workloads.py``) runs in this process: its set-up is
timed in fresh interpreters, then its pass repeats for ``--seconds``
and every item is timed.  Without ``--workload`` each workload runs in
its own fresh process in turn.

``--trace 0`` (the default) prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics instead,
measured by one untraced pass followed by traced passes (see
``layertrace.py``).  Outputs are checked against ``golden.json`` and
for repeatability; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is 0 only when every check held.  ``--out FILE`` appends a
fuller record (host facts, digests, per-item times, spans) to FILE as
one JSON line; ``compare.py`` reads those files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

# a sibling module (this script's directory is first on sys.path); it
# imports the simulator lazily, after main() has put src/ on the path
from workloads import WORKLOADS, canonical, observable_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
#: environment switches that move every simulator onto another kernel
#: path; cleared so the benchmark measures the library's defaults
ENGINE_ENV = ("REPRO_PARALLEL", "REPRO_PARALLEL_BACKEND", "REPRO_TLM")
#: fresh-interpreter set-ups per run (the median is reported)
SETUP_REPEATS = 7


class Ledger:
    """Per-item times, first-pass observables, and failed checks."""

    def __init__(self) -> None:
        self.samples = defaultdict(list)
        self.first = {}
        self.cycles = {}
        self.attempted = 0
        self.failures = []
        self._canonical = {}

    def record(self, key, seconds, outcome) -> None:
        self.samples[key].append(seconds)
        self.attempted += outcome.ops
        self.failures.extend(f"{key}: {f}" for f in outcome.failures)
        text = canonical(outcome.observable)
        if key not in self.first:
            self.first[key] = outcome.observable
            self.cycles[key] = outcome.cycles
            self._canonical[key] = text
        elif text != self._canonical[key]:
            self.failures.append(f"{key}: observables differ between "
                                 "passes over the same inputs")

    def pass_s(self) -> float:
        """Host seconds for one pass: the sum over items of each item's
        fastest time.  Interference from other work on the host only
        ever adds time, and it comes in episodes of seconds, so the
        fastest of a few repeats is the steadiest estimate of the
        program's own cost."""
        return sum(min(times) for times in self.samples.values())

    def cycles_per_s(self) -> float:
        """Simulated cycles per host second over the items that report
        their cycles (fastest time per item, as in :meth:`pass_s`)."""
        timed = [(self.cycles[key], min(times))
                 for key, times in self.samples.items() if self.cycles[key]]
        return (sum(cycles for cycles, __ in timed)
                / sum(seconds for __, seconds in timed))


def run_pass(items, ledger: Ledger, deadline=None) -> bool:
    """Run one pass; False if ``deadline`` cut it short."""
    gc.collect()
    for key, fn in items:
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        started = time.perf_counter()
        outcome = fn()
        ledger.record(key, time.perf_counter() - started, outcome)
    return True


def git_commit():
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_facts(args) -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"seed": args.seed, "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "gil_enabled": gil,
            "commit": git_commit(), "traced": bool(args.trace)}


def own_command(args, *extra) -> list:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--seed", str(args.seed), *extra]
    return command + (["--quick"] if args.quick else [])


def measure_setup(args) -> float:
    """Median seconds from interpreter start to the first measured item:
    imports, input generation, golden load."""
    command = own_command(args, "--workload", args.workload, "--setup-only")
    times = []
    for __ in range(1 if args.quick else SETUP_REPEATS):
        started = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms
        # and quantizes the measurement
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return median(times)


def set_up(args):
    """Everything before the first measured item."""
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    golden = json.loads(GOLDEN.read_text()).get(args.workload)
    workload.items()
    return workload, golden


def measure(args, workload, ledger: Ledger) -> int:
    """Untraced: repeat the pass for ``--seconds``; returns passes run
    (the first always completes, the last may be cut short)."""
    deadline = time.perf_counter() + args.seconds
    run_pass(workload.items(), ledger)
    passes = 1
    while time.perf_counter() < deadline:
        if run_pass(workload.items(), ledger, deadline):
            passes += 1
    return passes


def measure_traced(args, workload, ledger: Ledger):
    """One untraced pass, then whole traced passes for ``--seconds``."""
    from layertrace import Tracer   # not part of an untraced set-up

    deadline = time.perf_counter() + args.seconds
    run_pass(workload.items(), ledger)
    untraced_pass_s = ledger.pass_s()
    ledger.samples.clear()
    tracer = Tracer()
    tracer.install()
    passes, traced_wall = 0, 0.0
    while passes == 0 or time.perf_counter() < deadline:
        started = time.perf_counter()
        run_pass(workload.items(), ledger)
        traced_wall += time.perf_counter() - started
        passes += 1
    # snapshot now: the output checks that follow also run traced
    trace = {"untraced_pass_s": untraced_pass_s,
             "traced_pass_s": ledger.pass_s(),
             "traced_wall_s": traced_wall,
             "self_s_total": tracer.self_s_total()}
    return passes, tracer.metrics(passes), trace, list(tracer.spans)


def run_one(args) -> int:
    spec = json.loads(SPEC.read_text())
    setup_s = None if args.trace else measure_setup(args)
    workload, golden = set_up(args)
    ledger = Ledger()
    if args.trace:
        passes, values, trace, spans = measure_traced(args, workload,
                                                      ledger)
    else:
        passes = measure(args, workload, ledger)
    checks, failures = workload.check(ledger.first, golden)
    ledger.attempted += checks
    ledger.failures.extend(failures)
    report = workload.report(ledger.first, golden)

    if args.trace:
        values["sim.tlm.fps_err_pct"] = report.get("tlm_fps_err_pct", 0.0)
        values["sim.tlm.dma_err_pct"] = report.get("tlm_dma_err_pct", 0.0)
        values["trace.overhead_pct"] = (
            trace["traced_pass_s"] / trace["untraced_pass_s"] - 1) * 100
        names = spec["per_layer"]
    else:
        values = {
            "wall_s": ledger.pass_s(),
            "setup_s": setup_s,
            "sim_cycles_per_s": ledger.cycles_per_s(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    host = host_facts(args)
    result = {"correct": not ledger.failures,
              "attempted": max(1, ledger.attempted),
              "failed": len(ledger.failures), "metrics": metrics}
    print(f"e2e {args.workload}: seed {args.seed}, "
          f"{'quick' if args.quick else 'full'} settings, {passes} passes "
          f"{'traced' if args.trace else 'untraced'}, {host['cpus']} cpus, "
          f"python {host['python']} "
          f"(GIL {'on' if host['gil_enabled'] else 'off'}), "
          f"commit {(host['commit'] or 'unknown')[:12]}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in report.items():
        print(f"  {name:<36} {value:>14.6g}")
    print(f"  checks: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in ledger.failures[:10]:
        print(f"    FAILED {failure}")

    if args.out:
        record = {"workload": args.workload,
                  "settings": "quick" if args.quick else "full",
                  "seconds": args.seconds, "passes": passes, "host": host,
                  **result, "failures": ledger.failures[:20],
                  "digest": observable_digest(ledger.first),
                  "report": report,
                  "items": {key: {"best_s": min(times),
                                  "repeats": len(times)}
                            for key, times in ledger.samples.items()}}
        if args.trace:
            record["trace"] = trace
            record["spans"] = spans
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        extra = ["--workload", name, "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
        if args.out:
            extra += ["--out", args.out]
        child = subprocess.run(own_command(args, *extra),
                               stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def update_golden(args) -> int:
    """Record one pass of each workload's observables in golden.json."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in [args.workload] if args.workload else WORKLOADS:
        workload = WORKLOADS[name](args.seed)
        ledger = Ledger()
        run_pass(workload.items(), ledger)
        if ledger.failures:
            print("\n".join(ledger.failures), file=sys.stderr)
            return 1
        golden[name] = workload.golden_entry(ledger.first)
        print(f"golden: recorded {name}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None,
                        choices=tuple(WORKLOADS),
                        help="one workload (default: all, each in a fresh "
                             "process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0, the golden seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: print per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the full run record to FILE "
                             "(JSON lines)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs for smoke tests; golden values "
                             "are not compared")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-golden", action="store_true",
                        help="re-record golden.json from one pass per "
                             "workload at --seed (after an intended "
                             "change of simulated behaviour)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    for name in ENGINE_ENV:
        os.environ.pop(name, None)
    # numpy (used by the channel commit) must not start a BLAS pool
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.update_golden:
        return update_golden(args)
    if args.setup_only:
        set_up(args)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
