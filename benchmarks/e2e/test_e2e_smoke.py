"""Smoke test of the end-to-end benchmark at ``--quick`` size.

Runs every workload once untraced and once traced on tiny inputs, then
feeds synthetic run sets to ``compare.py``.  From the repository root::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(out: Path, workload: str, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace),
               "--quick", "--out", str(out)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(last stdout line, --out record) per (workload, trace)."""
    out_dir = tmp_path_factory.mktemp("e2e")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = out_dir / f"{workload}-{trace}.jsonl"
            last = _run(out, workload, trace)
            results[workload, trace] = (last, json.loads(out.read_text()))
    return results


def test_every_named_metric_is_emitted(runs):
    for (workload, trace), (last, record) in runs.items():
        named = SPEC["per_layer" if trace else "end_to_end"]
        assert set(last["metrics"]) == {m["name"] for m in named}, workload
        for metric in named:
            emitted = last["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
        assert last["correct"] and last["failed"] == 0, record["failures"]
        assert last["attempted"] >= 1
        assert record["host"]["traced"] == bool(trace)


def test_untraced_metrics_are_positive(runs):
    for workload in WORKLOADS:
        last, __ = runs[workload, 0]
        for metric in SPEC["end_to_end"]:
            assert last["metrics"][metric["name"]]["value"] > 0, (
                workload, metric["name"])


def _is_self_time(name: str) -> bool:
    """Per-layer metrics that are span self times (disjoint by design);
    the harness, leg and cycle-accurate times are inclusive."""
    return (name.endswith(("tick_s", "poll_s", "self_s", "flush_s",
                           "api_s"))
            or name == "system.build_s"
            or name.startswith("verify.oracles."))


def test_traced_self_times_fit_in_the_traced_wall(runs):
    for workload in WORKLOADS:
        last, record = runs[workload, 1]
        trace = record["trace"]
        assert 0 < trace["self_s_total"] <= trace["traced_wall_s"], workload
        per_pass = sum(metric["value"]
                       for name, metric in last["metrics"].items()
                       if _is_self_time(name))
        assert 0 < per_pass * record["passes"] <= trace["traced_wall_s"], (
            workload)
        assert record["spans"], workload


def _compare(tmp_path, base, new):
    files = []
    for name, records in (("base", base), ("new", new)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        files.append(str(path))
    return subprocess.run([sys.executable, str(HERE / "compare.py"), *files],
                          capture_output=True, text=True, timeout=60)


def _variants(record, scale=1.0):
    """Three runs of ``record`` with wall_s jittered by +-1 %."""
    out = []
    for factor in (1.0, 1.01, 0.99):
        variant = copy.deepcopy(record)
        variant["metrics"]["wall_s"]["value"] *= factor * scale
        out.append(variant)
    return out


def test_compare_accepts_the_same_runs(runs, tmp_path):
    __, record = runs["bursty_ports", 0]
    proc = _compare(tmp_path, _variants(record), _variants(record))
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout


def test_compare_flags_a_wall_regression_beyond_its_bound(runs, tmp_path):
    __, record = runs["bursty_ports", 0]
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "wall_s")
    proc = _compare(tmp_path, _variants(record),
                    _variants(record, scale=1 + bound + 0.05))
    assert proc.returncode == 1
    row = next(line for line in proc.stdout.splitlines()
               if "wall_s" in line)
    assert "regressed" in row


def test_compare_flags_a_changed_digest(runs, tmp_path):
    __, record = runs["campaign", 0]
    mutated = _variants(record)
    mutated[0]["digest"] = "0" * 64
    proc = _compare(tmp_path, _variants(record), mutated)
    assert proc.returncode == 1
    assert "digest changed" in proc.stdout
