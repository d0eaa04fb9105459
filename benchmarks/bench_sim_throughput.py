"""Engineering benchmark: simulation kernel throughput.

Not a paper figure — this tracks the simulator's own speed (simulated
cycles per host second) on three workloads:

* the reference two-master contention system, measured under BOTH kernel
  paths with a warm best-of-N timer that excludes construction; the two
  paths alternate round by round, so host drift cancels in their ratio.
  This workload is fully saturated (one data beat moves on the shared
  bus every cycle), so nothing is freezable: the fast path polls every
  cycle, and a polled cycle must cost about what the reference cycle it
  replaces costs (CI fails below 0.9x).  The section doubles as a
  divergence check: both paths must produce byte-identical traffic.
* a latency-dominated single-word DMA read on the Fig. 3(a) topology.
  This is the workload class the fast path exists for: after the
  ~330-cycle transaction the system is frozen and the kernel bulk-skips
  the rest of the window.  The bench asserts the >= 2x speedup promised
  in the fast path's acceptance criteria.
* bursty contention at 2, 4, and 8 ports.  Each port's DMA issues a
  burst of contended copy jobs at the top of every window; the fabric
  drains the contention, then idles until the next burst.  On that duty
  cycle the fast path freezes through the idle tail of every burst, work
  the reference path pays for cycle by cycle.  Every port count asserts byte-identical
  traffic on both paths, and the 8-port row must clear a 1.8x floor.

All sections are persisted to ``benchmarks/results/sim_throughput.txt``
and, machine-readably, ``benchmarks/results/sim_throughput.json``.  The
CI perf-smoke job runs this module with ``SIM_THROUGHPUT_CYCLES`` set to
a short window and compares the sidecar against the committed
``sim_throughput.baseline.json`` (the contention and 8-port bursty
reference throughputs); it also fails when the contention fast/reference
ratio drops below 0.9.
"""

import gc
import os
import time

from repro.masters import AxiDma, GreedyTrafficGenerator
from repro.platforms import ZCU102
from repro.system import SocSystem

from conftest import publish

CYCLES = int(os.environ.get("SIM_THROUGHPUT_CYCLES", "20000"))
ROUNDS = int(os.environ.get("SIM_THROUGHPUT_ROUNDS", "3"))
WORD_READ_CYCLES = 50_000
#: bursty contention duty cycle: BURSTS windows of BURSTY_WINDOW
#: cycles, each opening with JOBS_PER_BURST copies of JOB_BYTES per port
BURSTY_PORTS = (2, 4, 8)
BURSTS = 4
BURSTY_WINDOW = 30_000
JOBS_PER_BURST = 2
JOB_BYTES = 2048
#: acceptance bar: fast over reference on the 8-port duty cycle
BURSTY_SPEEDUP_FLOOR_8P = 1.8

#: sections accumulated across this module's tests so the published
#: sim_throughput record carries the full before/after picture
_SECTIONS = {}
_METRICS = {}


def _publish_all():
    order = ("contention", "fast-path", "bursty")
    text = "\n".join(_SECTIONS[key] for key in order if key in _SECTIONS)
    contention = _METRICS.get("contention", {})
    word_read = _METRICS.get("word_read", {})
    bursty = _METRICS.get("bursty", {})
    publish("sim_throughput", text, metrics={
        "wall_ms": contention.get("wall_ms"),
        "cycles_per_sec": contention.get("reference"),
        "speedup": word_read.get("speedup", contention.get("speedup")),
        "contention": contention or None,
        "word_read": word_read or None,
        "bursty": bursty or None,
    })


def _build(fast=False):
    soc = SocSystem.build(ZCU102, n_ports=2, period=2048, fast=fast)
    a = GreedyTrafficGenerator(soc.sim, "a", soc.port(0), job_bytes=8192,
                               depth=4)
    b = GreedyTrafficGenerator(soc.sim, "b", soc.port(1), job_bytes=8192,
                               depth=4)
    soc.driver.set_bandwidth_shares({0: 0.5, 1: 0.5})
    return soc, a, b


def _time_contention(fast):
    """One warm window of the contention system, construction excluded:
    ``(seconds, signature)``, the signature capturing the traffic
    outcome so the two kernel paths can be diffed."""
    soc, a, b = _build(fast=fast)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        soc.sim.run(CYCLES)
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, (a.bytes_read, a.error_responses,
                     b.bytes_read, b.error_responses)


def _measure_contention(rounds=ROUNDS):
    """Best-of-N cycles/host-second of both kernel paths, interleaved.

    Each round times one reference and one fast window back to back,
    alternating which goes first, so host-load drift lands on both
    paths alike instead of in their ratio.  Returns ``(reference,
    fast, signature)``; every window must produce the same signature.
    """
    best = {False: float("inf"), True: float("inf")}
    signature = None
    for index in range(rounds):
        for fast in ((False, True) if index % 2 == 0 else (True, False)):
            elapsed, outcome = _time_contention(fast)
            best[fast] = min(best[fast], elapsed)
            assert signature is None or signature == outcome
            signature = outcome
    return CYCLES / best[False], CYCLES / best[True], signature


def test_sim_throughput(benchmark):
    def run_window():
        soc, __, __b = _build()
        soc.sim.run(CYCLES)
        return soc

    benchmark(run_window)

    # warm, construction-free A/B measurement of both kernel paths,
    # round by round; it asserts zero divergence between them
    reference, fast, ref_signature = _measure_contention()
    speedup = fast / reference

    _SECTIONS["contention"] = (
        f"reference contention system ({CYCLES} cycle window, saturated "
        f"shared bus,\nbest of {ROUNDS} warm interleaved rounds, build "
        f"excluded):\n"
        f"  fast=False (reference): {reference:,.0f} cycles / host second\n"
        f"  fast=True  (skipping): {fast:,.0f} cycles / host second "
        f"({speedup:.2f}x)\n"
        f"  traffic signature identical on both paths: {ref_signature}")
    _METRICS["contention"] = {
        "window_cycles": CYCLES,
        "rounds": ROUNDS,
        "reference": reference,
        "fast": fast,
        "speedup": speedup,
        "wall_ms": CYCLES / reference * 1e3,
        "signatures_equal": True,
    }
    _publish_all()
    if benchmark.stats is not None:
        benchmark.extra_info["cycles_per_second"] = reference
    assert reference > 10_000   # sanity floor
    # sanity floor only; CI's perf-smoke compare step holds the 0.9x
    # floor on the cost of a polled cycle
    assert speedup > 0.5


def _measure_word_read(fast: bool, rounds: int = 3) -> float:
    """Best-of-N simulated-cycles/host-second for the Fig. 3(a) word read."""
    best = float("inf")
    for _ in range(rounds):
        soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        job = dma.enqueue_read(0x1000_0000, ZCU102.hp_data_bytes)
        started = time.perf_counter()
        soc.sim.run(WORD_READ_CYCLES)
        best = min(best, time.perf_counter() - started)
        assert job.completed is not None       # same result on both paths
        if fast:
            assert soc.sim.skip_stats.cycles_frozen > 0
    return WORD_READ_CYCLES / best


def test_fast_path_speedup_on_latency_dominated_run():
    reference = _measure_word_read(fast=False)
    fast = _measure_word_read(fast=True)
    speedup = fast / reference
    _SECTIONS["fast-path"] = (
        f"latency-dominated word read ({WORD_READ_CYCLES} cycle window):\n"
        f"  fast=False (reference): {reference:,.0f} cycles / host second\n"
        f"  fast=True  (skipping):  {fast:,.0f} cycles / host second\n"
        f"  speedup: {speedup:.1f}x")
    _METRICS["word_read"] = {
        "window_cycles": WORD_READ_CYCLES,
        "reference": reference,
        "fast": fast,
        "speedup": speedup,
    }
    _publish_all()
    # the acceptance bar for the quiescence fast path
    assert speedup >= 2.0
    # and the reference path must still clear the historical sanity floor
    assert reference > 10_000


def _run_bursty(n_ports: int, fast: bool):
    """One full bursty-contention run; returns (cycles/sec, signature).

    The measured body covers the whole duty cycle (burst enqueue,
    contended drain, idle tail) for ``BURSTS`` windows.
    """
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048, fast=fast)
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
            soc.sim.run(BURSTY_WINDOW)
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    signature = tuple(
        (dma.bytes_read, dma.bytes_written, len(dma.jobs_completed),
         dma.error_responses)
        for dma in dmas)
    return BURSTS * BURSTY_WINDOW / elapsed, signature


def _measure_bursty(n_ports: int, fast: bool, rounds: int = ROUNDS):
    """Warm best-of-N throughput; asserts run-to-run determinism."""
    best = 0.0
    signature = None
    for _ in range(rounds):
        rate, outcome = _run_bursty(n_ports, fast)
        best = max(best, rate)
        assert signature is None or signature == outcome
        signature = outcome
    return best, signature


def test_bursty_contention_duty_cycle():
    rows = []
    per_ports = {}
    for n_ports in BURSTY_PORTS:
        reference, ref_signature = _measure_bursty(n_ports, fast=False)
        fast, fast_signature = _measure_bursty(n_ports, fast=True)
        assert fast_signature == ref_signature   # zero divergence
        speedup = fast / reference
        rows.append(
            f"  {n_ports} ports: reference {reference:>10,.0f} cyc/s   "
            f"fast=True {fast:>10,.0f} cyc/s   speedup {speedup:.2f}x")
        per_ports[str(n_ports)] = {
            "reference": reference,
            "fast": fast,
            "speedup": speedup,
            "signatures_equal": True,
        }
    _SECTIONS["bursty"] = (
        f"bursty contention, {BURSTS} bursts x {BURSTY_WINDOW} cycle "
        f"windows, {JOBS_PER_BURST} x {JOB_BYTES} B copies per port per "
        f"burst,\nbest of {ROUNDS} warm rounds, build excluded:\n"
        + "\n".join(rows))
    _METRICS["bursty"] = {
        "bursts": BURSTS,
        "window_cycles": BURSTY_WINDOW,
        "rounds": ROUNDS,
        "per_ports": per_ports,
    }
    _publish_all()
    row_8p = per_ports["8"]
    assert row_8p["speedup"] >= BURSTY_SPEEDUP_FLOOR_8P, (
        f"8-port bursty fast-path speedup {row_8p['speedup']:.2f}x below "
        f"the {BURSTY_SPEEDUP_FLOOR_8P}x acceptance floor")
    assert row_8p["reference"] > 10_000   # sanity floor
