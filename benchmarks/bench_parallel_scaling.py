"""Engineering benchmark: sharded parallel tick-engine scaling.

Not a paper figure — this tracks the throughput of
``Simulator(parallel=N)`` (see ``repro.sim.parallel``) against the
serial reference path on bursty contention workloads at 2, 4, and 8
ports.  Each port's DMA issues a burst of contended copy jobs at the
top of every window; the fabric drains the contention, then idles until
the next burst.  That duty cycle is the workload class the sharded
engine exists for: during the burst the per-port shards tick
independently, and across the idle tail the per-shard sleep tracking
and the frozen-horizon jump skip the dead cycles entirely — work the
reference path pays for cycle by cycle.

Every measured pair also asserts byte-identical traffic between the two
paths, so this bench doubles as a coarse divergence check (the
fine-grained one is ``tests/test_kernel_equivalence.py``).

Two backend rows ride along with the thread-backend scaling table:

* an 8-engine offload farm (``repro.masters.offload``) measured serial
  vs ``parallel_backend="processes"`` — the process-exportable workload
  class the epoch-barrier backend exists for, and the bench behind the
  >= 3.5x CI gate on >= 4-CPU runners;
* the 8-port fabric re-run with ``parallel_backend="processes"``
  requested, which records the resolved backend (``threads``) and the
  blocker reason — hub-coupled fabric shards can never leave the
  parent, and the attribution trail in the sidecar proves the fallback
  is deliberate, not silent.

Results are persisted to ``benchmarks/results/parallel_scaling.txt``
and, machine-readably, ``benchmarks/results/parallel_scaling.json``.
The CI perf-smoke job runs this module with ``PARALLEL_SCALING_WINDOW``
set to a short window and compares the sidecar against the committed
``parallel_scaling.baseline.json``; the 8-port speedup floor of 1.8x is
the acceptance bar for the threads engine, and the farm's process
speedup is gated at >= 3.5x whenever the host has >= 4 CPUs.
"""

import gc
import os
import time

from repro.masters import AxiDma, build_offload_sim
from repro.platforms import ZCU102
from repro.system import SocSystem

from conftest import host_cpus, publish

PORTS = (2, 4, 8)
WORKERS = int(os.environ.get("PARALLEL_SCALING_WORKERS", "4"))
BURSTS = int(os.environ.get("PARALLEL_SCALING_BURSTS", "4"))
WINDOW = int(os.environ.get("PARALLEL_SCALING_WINDOW", "30000"))
ROUNDS = int(os.environ.get("PARALLEL_SCALING_ROUNDS", "3"))
#: acceptance bar: the 8-port contention workload must clear this
SPEEDUP_FLOOR_8P = 1.8
JOBS_PER_BURST = 2
JOB_BYTES = 2048

# offload-farm (processes backend) knobs
FARM_ENGINES = int(os.environ.get("PARALLEL_SCALING_FARM_ENGINES", "8"))
FARM_WORKERS = int(os.environ.get("PARALLEL_SCALING_FARM_WORKERS", "8"))
FARM_JOBS_PER_ENGINE = int(
    os.environ.get("PARALLEL_SCALING_FARM_JOBS", "600"))
FARM_ITERS = int(os.environ.get("PARALLEL_SCALING_FARM_ITERS", "200"))
FARM_ROUNDS = int(os.environ.get("PARALLEL_SCALING_FARM_ROUNDS", "2"))
FARM_LATENCY = 64
#: CI gate: farm process speedup on hosts with at least this many CPUs
PROCESS_SPEEDUP_FLOOR = 3.5
PROCESS_GATE_MIN_CPUS = 4


def _run_workload(n_ports: int, parallel: int, backend: str = "auto"):
    """One full bursty-contention run; returns (cycles/sec, signature).

    The measured body covers the whole duty cycle — burst enqueue,
    contended drain, idle tail — for ``BURSTS`` windows.
    """
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048,
                          parallel=parallel, parallel_backend=backend)
    dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p))
            for p in range(n_ports)]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for burst in range(BURSTS):
            for port, dma in enumerate(dmas):
                base = 0x100_0000 * (port + 1) + 0x10_0000 * burst
                for job in range(JOBS_PER_BURST):
                    dma.enqueue_copy(base + job * 0x8000,
                                     base + 0x800_0000 + job * 0x8000,
                                     JOB_BYTES)
            soc.sim.run(WINDOW)
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    signature = tuple(
        (dma.bytes_read, dma.bytes_written, len(dma.jobs_completed),
         dma.error_responses)
        for dma in dmas)
    return BURSTS * WINDOW / elapsed, signature


def _measure(n_ports: int, parallel: int, rounds: int = ROUNDS):
    """Warm best-of-N throughput; asserts run-to-run determinism."""
    best = 0.0
    signature = None
    for _ in range(rounds):
        rate, outcome = _run_workload(n_ports, parallel)
        best = max(best, rate)
        assert signature is None or signature == outcome
        signature = outcome
    return best, signature


def _run_farm(parallel: int, backend: str):
    """One offload-farm run; returns (cycles/sec, signature, resolved).

    Unlike the bursty fabric workload, the farm is compute-bound every
    cycle: the hub streams one job per engine per cycle until the job
    budget drains, so the run window is sized to the job budget plus
    the request/result pipeline depth.
    """
    n_jobs = FARM_ENGINES * FARM_JOBS_PER_ENGINE
    window = FARM_JOBS_PER_ENGINE + 4 * FARM_LATENCY
    sim = build_offload_sim(FARM_ENGINES, latency=FARM_LATENCY,
                            work_iters=FARM_ITERS, n_jobs=n_jobs,
                            parallel=parallel, parallel_backend=backend)
    hub = sim.lookup("offload-hub")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        sim.run(window)
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    assert hub.done, (
        f"farm window too short: {hub.results_received}/{n_jobs} jobs")
    signature = (hub.results_received, hub.checksum, tuple(
        (engine.jobs_done, engine.checksum) for engine in hub.engines))
    resolved = sim.skip_stats.resolved_backend
    if sim._parallel_engine is not None:
        sim._parallel_engine.close()
    return window / elapsed, signature, resolved


def _measure_farm(parallel: int, backend: str, rounds: int = FARM_ROUNDS):
    """Warm best-of-N farm throughput; asserts run-to-run determinism."""
    best = 0.0
    signature = None
    resolved = None
    for _ in range(rounds):
        rate, outcome, resolved = _run_farm(parallel, backend)
        best = max(best, rate)
        assert signature is None or signature == outcome
        signature = outcome
    return best, signature, resolved


def _fabric_process_attribution():
    """Request ``processes`` on the 8-port fabric; return the trail.

    The fabric's shards are hub-coupled (ports call into the central
    arbitration unit), so the request must degrade to ``threads`` with
    a recorded reason — this row exists so the sidecar shows the
    fallback attribution, not just the absence of a processes row.
    """
    soc = SocSystem.build(ZCU102, n_ports=8, period=2048,
                          parallel=WORKERS, parallel_backend="processes")
    dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p)) for p in range(8)]
    for port, dma in enumerate(dmas):
        dma.enqueue_copy(0x100_0000 * (port + 1),
                         0x900_0000 * (port + 1), JOB_BYTES)
    soc.sim.run(4096)
    trail = dict(soc.sim._parallel_engine.backend_resolution)
    trail.pop("process_shards", None)
    return trail


def test_parallel_scaling(benchmark):
    benchmark(lambda: _run_workload(8, WORKERS))

    rows = []
    per_ports = {}
    speedup_8p = None
    reference_8p = None
    for n_ports in PORTS:
        reference, ref_sig = _measure(n_ports, 0)
        parallel, par_sig = _measure(n_ports, WORKERS)
        assert par_sig == ref_sig      # zero divergence, every topology
        speedup = parallel / reference
        rows.append(
            f"  {n_ports} ports: reference {reference:>10,.0f} cyc/s   "
            f"parallel={WORKERS} {parallel:>10,.0f} cyc/s   "
            f"speedup {speedup:.2f}x")
        per_ports[str(n_ports)] = {
            "reference": reference,
            "parallel": parallel,
            "speedup": speedup,
            "signatures_equal": True,
        }
        if n_ports == 8:
            speedup_8p = speedup
            reference_8p = reference

    # processes backend: the offload farm is the exportable workload;
    # serial reference vs FARM_WORKERS long-lived worker processes
    farm_ref, farm_ref_sig, _ = _measure_farm(0, "inline")
    farm_proc, farm_proc_sig, farm_resolved = _measure_farm(
        FARM_WORKERS, "processes")
    assert farm_proc_sig == farm_ref_sig   # zero divergence across OS
    farm_speedup = farm_proc / farm_ref
    cpus = host_cpus()
    rows.append(
        f"  {FARM_ENGINES}-engine farm: reference {farm_ref:>10,.0f} "
        f"cyc/s   processes={FARM_WORKERS} {farm_proc:>10,.0f} cyc/s   "
        f"speedup {farm_speedup:.2f}x ({cpus} CPUs, resolved "
        f"{farm_resolved})")

    # fabric shards are hub-coupled; a processes request must degrade
    # to threads with the blocker recorded, never silently
    fabric_trail = _fabric_process_attribution()
    assert fabric_trail["requested"] == "processes"
    assert fabric_trail["resolved"] == "threads"
    short_reason = fabric_trail["reason"].split(" (blockers")[0]
    rows.append(
        f"  8-port fabric, processes requested: resolved "
        f"{fabric_trail['resolved']} ({short_reason}; per-shard "
        f"blockers in the JSON sidecar)")

    text = (
        f"bursty contention, {BURSTS} bursts x {WINDOW} cycle windows, "
        f"{JOBS_PER_BURST} x {JOB_BYTES} B copies per port per burst,\n"
        f"best of {ROUNDS} warm rounds, serial reference vs "
        f"parallel={WORKERS} (auto backend);\n"
        f"offload farm: {FARM_ENGINES} engines x "
        f"{FARM_JOBS_PER_ENGINE} jobs, {FARM_ITERS} digest iters, "
        f"epoch {FARM_LATENCY}, best of {FARM_ROUNDS} rounds:\n"
        + "\n".join(rows))
    publish("parallel_scaling", text, metrics={
        "wall_ms": BURSTS * WINDOW / reference_8p * 1e3,
        "cycles_per_sec": reference_8p,
        "speedup": speedup_8p,
        "workers": WORKERS,
        "bursts": BURSTS,
        "window_cycles": WINDOW,
        "per_ports": per_ports,
        "cpus": cpus,
        "farm": {
            "engines": FARM_ENGINES,
            "workers": FARM_WORKERS,
            "reference": farm_ref,
            "processes": farm_proc,
            "speedup": farm_speedup,
            "resolved_backend": farm_resolved,
            "signatures_equal": True,
        },
        "fabric_processes_request": fabric_trail,
    })
    if benchmark.stats is not None:
        benchmark.extra_info["speedup_8p"] = speedup_8p
        benchmark.extra_info["farm_process_speedup"] = farm_speedup

    # acceptance bar for the sharded engine (ISSUE: >= 1.8x over the
    # serial reference path on the 8-port workload with 4 workers)
    assert speedup_8p >= SPEEDUP_FLOOR_8P, (
        f"8-port parallel speedup {speedup_8p:.2f}x below the "
        f"{SPEEDUP_FLOOR_8P}x acceptance floor")
    # and the reference path itself must stay plausible
    assert reference_8p > 10_000
    # processes gate: only meaningful where worker processes can
    # actually overlap (single-core runners record, but don't gate)
    if cpus >= PROCESS_GATE_MIN_CPUS:
        assert farm_resolved == "processes", (
            f"farm resolved to {farm_resolved!r} on a {cpus}-CPU host")
        assert farm_speedup >= PROCESS_SPEEDUP_FLOOR, (
            f"{FARM_ENGINES}-engine farm process speedup "
            f"{farm_speedup:.2f}x below the {PROCESS_SPEEDUP_FLOOR}x "
            f"floor on a {cpus}-CPU host")
