"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  Besides the
pytest-benchmark wall-clock numbers, each bench renders the paper-style
result table: it is printed (visible with ``-s``) and also written to
``benchmarks/results/<name>.txt`` so the reproduction record persists
regardless of terminal capture.

Each bench additionally publishes a machine-readable sidecar,
``benchmarks/results/<name>.json``, with a small uniform schema::

    {"benchmark": <name>, "wall_ms": <float|null>,
     "cycles_per_sec": <float|null>, "speedup": <float|null>,
     "cpus": <int>, ...}

``wall_ms`` is the wall-clock cost of the bench's measured body,
``cycles_per_sec`` the simulated-cycle throughput where the bench runs
fixed windows (null where the bench measures latencies or estimates
resources), ``speedup`` the bench's headline ratio (HC over SC, fast
over reference kernel, ...; null where no single ratio is the headline)
and ``cpus`` the CPUs the process may run on, so a ratio measured on one
CPU is never read as a concurrency claim.  The CI perf-smoke job diffs
these sidecars against committed baselines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--parallel", type=int, default=None, metavar="N",
        help="run every bench with the sharded tick engine at N workers "
             "(sets REPRO_PARALLEL, which SocSystem.build reads; "
             "0 = serial)")


def pytest_configure(config):
    workers = config.getoption("--parallel")
    if workers is not None:
        os.environ["REPRO_PARALLEL"] = str(workers)


def host_cpus() -> int:
    """CPUs this process may run on (its affinity set, where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def publish(name: str, text: str, metrics: Optional[dict] = None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    When ``metrics`` is given, the uniform JSON sidecar is written next
    to the text table.  ``wall_ms``, ``cycles_per_sec`` and ``speedup``
    are always present in the sidecar (null when not supplied) so
    downstream tooling can rely on the schema; ``cpus`` defaults to
    :func:`host_cpus`.
    """
    banner = f"== {name} " + "=" * max(0, 66 - len(name))
    output = f"{banner}\n{text.rstrip()}\n"
    print("\n" + output)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(output, encoding="utf-8")
    if metrics is not None:
        payload = {"benchmark": name,
                   "wall_ms": None, "cycles_per_sec": None,
                   "speedup": None, "cpus": host_cpus()}
        payload.update(metrics)
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def wall_ms(benchmark) -> Optional[float]:
    """Mean wall-clock milliseconds of the measured body, if available.

    Reads the pytest-benchmark stats recorded by the ``benchmark.pedantic``
    call that every bench performs; returns None when the fixture ran in
    a mode without stats (e.g. ``--benchmark-disable``).
    """
    try:
        return float(benchmark.stats.stats.mean) * 1e3
    except AttributeError:
        return None
