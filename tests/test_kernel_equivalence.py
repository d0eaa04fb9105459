"""Differential harness: the fast kernel path must equal the reference.

The idle-report-driven fast path (``Simulator(fast=True)``) ships only
because this harness proves it observationally equivalent to the
reference path on every system shape the repo models: the Fig. 3(a)
channel-latency and Fig. 3(b) access-time procedures, the Fig. 4/5 case
study, its ablation configurations, misbehaving-HA and fault-injection
scenarios, and seeded random traffic.  Each scenario is run on
``fast=False`` and ``fast=True``, and everything observable is
compared: elapsed cycle counts, per-engine traffic fingerprints,
interconnect and memory counters, monitor latencies, trace events, and
final memory contents.

If one of these tests fails after a component change, the component's
tick is reporting idle wrongly (returning ``True`` from a call that
changed state, or going idle while an input the kernel does not watch
can still make it act): fix the tick's idle report or its wake sources,
never the harness.
"""

import pytest
from conftest import run_with_arrivals, seeded_arrivals

from repro.axi import PropagationProbe
from repro.hyperconnect.regs import (
    BUDGET_UNLIMITED,
    PORT_BUDGET,
    port_register,
)
from repro.masters import (
    AxiDma,
    ChaiDnnAccelerator,
    DmaDescriptor,
    GreedyTrafficGenerator,
)
from repro.memory import FaultInjectingMemory
from repro.platforms import ZCU102
from repro.sim import Component, Tracer
from repro.system import SocSystem
from repro.system.experiment import (
    measure_access_time,
    measure_channel_latencies,
    run_case_study,
)

INTERCONNECTS = ("hyperconnect", "smartconnect")


def _signature(*engines):
    """Order-insensitive fingerprint of what every engine experienced."""
    return tuple(
        (engine.name, engine.bytes_read, engine.bytes_written,
         len(engine.jobs_completed),
         engine.read_latency.count, engine.read_latency.mean,
         engine.write_latency.count, engine.write_latency.mean)
        for engine in engines)


def _memory_counters(memory):
    return (memory.reads_served, memory.writes_served, memory.beats_served)


def _interconnect_counters(soc):
    fabric = soc.interconnect
    counters = [getattr(fabric, "grants_ar", None),
                getattr(fabric, "grants_aw", None)]
    for supervisor in getattr(fabric, "supervisors", ()):
        counters.append((supervisor.config.issued_read,
                         supervisor.config.issued_write,
                         supervisor.splits_performed))
    return tuple(counters)


def _both(run):
    """Run a scenario on both kernel paths and return the two results."""
    return run(fast=False), run(fast=True)


class TestFigureProcedures:
    """The paper's measurement procedures, fast vs. reference."""

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    def test_fig3a_channel_latencies(self, interconnect):
        reference, fast = _both(
            lambda fast: measure_channel_latencies(interconnect, fast=fast))
        assert reference == fast

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    @pytest.mark.parametrize("nbytes", (16, 4096, 65536))
    def test_fig3b_access_time(self, interconnect, nbytes):
        reference, fast = _both(
            lambda fast: measure_access_time(interconnect, nbytes,
                                             fast=fast))
        assert reference == fast

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    def test_fig4_5_case_study(self, interconnect):
        reference, fast = _both(
            lambda fast: run_case_study(interconnect, scale=1 / 256,
                                        window_cycles=60_000, fast=fast))
        assert reference == fast

    @pytest.mark.parametrize("shares", (
        {0: 0.9, 1: 0.1},
        {0: 0.7, 1: 0.3},
        {0: 0.5, 1: 0.5},
        {0: 0.3, 1: 0.7},
        {0: 0.2, 1: 0.8},
        {0: 0.1, 1: 0.9},
    ), ids=("hc-90-10", "hc-70-30", "hc-50-50", "hc-30-70", "hc-20-80",
            "hc-10-90"))
    def test_ablation_bandwidth_shares(self, shares):
        reference, fast = _both(
            lambda fast: run_case_study("hyperconnect", shares=shares,
                                        scale=1 / 256,
                                        window_cycles=60_000, fast=fast))
        assert reference == fast

    def test_ablation_solo_workloads(self):
        for kwargs in ({"run_dma": False}, {"run_chaidnn": False}):
            reference, fast = _both(
                lambda fast: run_case_study("hyperconnect", scale=1 / 256,
                                            window_cycles=40_000,
                                            fast=fast, **kwargs))
            assert reference == fast


class TestContentionScenarios:
    """Full-system contention, down to per-engine fingerprints."""

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    def test_two_greedy_masters(self, interconnect):
        def run(fast):
            soc = SocSystem.build(ZCU102, interconnect=interconnect,
                                  n_ports=2, period=2048, fast=fast)
            a = GreedyTrafficGenerator(soc.sim, "a", soc.port(0),
                                       job_bytes=8192, depth=3)
            b = GreedyTrafficGenerator(soc.sim, "b", soc.port(1),
                                       job_bytes=4096, burst_len=64,
                                       depth=2)
            soc.sim.run(50_000)
            return (_signature(a, b), _memory_counters(soc.memory),
                    _interconnect_counters(soc), soc.sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_misbehaving_ha_decoupled_mid_run(self):
        """Hypervisor-style intervention: decouple the misbehaving HA's
        port mid-run, let the victim recover, then recouple."""

        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, period=2048,
                                  fast=fast)
            victim = AxiDma(soc.sim, "victim", soc.port(0))
            rogue = GreedyTrafficGenerator(soc.sim, "rogue", soc.port(1),
                                           job_bytes=16384, burst_len=64,
                                           depth=4)
            victim.program(
                [DmaDescriptor("read", 0x1000_0000, 4096)], repeat=True)
            victim.start()
            soc.sim.run(10_000)
            soc.driver.decouple(1)
            soc.sim.run(10_000)
            soc.driver.couple(1)
            soc.sim.run(10_000)
            return (_signature(victim, rogue),
                    _memory_counters(soc.memory),
                    _interconnect_counters(soc), soc.sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_seeded_random_traffic(self):
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
            rand = AxiDma(soc.sim, "rand", soc.port(0))
            arrivals = seeded_arrivals(rand, seed=99, horizon=30_000,
                                       probability=0.005)
            dma = AxiDma(soc.sim, "dma", soc.port(1))
            dma.enqueue_read(0x0, 16384)
            run_with_arrivals(soc.sim, 30_000, arrivals)
            return (_signature(rand, dma), _memory_counters(soc.memory),
                    soc.sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_fault_injection(self):
        def run(fast):
            from repro.axi.port import AxiLink
            from repro.hyperconnect import HyperConnect
            from repro.sim import Simulator

            sim = Simulator("faulty", clock_hz=ZCU102.pl_clock_hz,
                            fast=fast)
            master = AxiLink(sim, "m", data_bytes=16)
            hc = HyperConnect(sim, "hc", 2, master)
            memory = FaultInjectingMemory(sim, "mem", master,
                                          timing=ZCU102.dram,
                                          error_rate=0.05,
                                          stall_rate=0.02,
                                          stall_cycles=15, seed=7)
            responses = []
            hc.port(0).r.subscribe_push(
                lambda cycle, beat: responses.append((cycle, beat.resp)))
            dma = AxiDma(sim, "dma", hc.port(0))
            jobs = [dma.enqueue_read(i * 4096, 2048) for i in range(4)]
            sim.run_until(lambda: all(j.completed for j in jobs),
                          max_cycles=100_000)
            return (_signature(dma), memory.errors_injected,
                    memory.stalls_injected, tuple(responses), sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_freeze_window_revive_edge_wakes_fast_path(self):
        """A deterministically frozen memory quiesces the whole fabric,
        so the fast path bulk-skips the freeze — legal only because the
        memory reports the revive edge through ``next_event_cycle``.
        Without that wake hint the skip sails past ``freeze_window[1]``
        and the revival is silently never observed."""
        def run(fast):
            from repro.axi.port import AxiLink
            from repro.hyperconnect import HyperConnect
            from repro.sim import Simulator

            sim = Simulator("freeze", clock_hz=ZCU102.pl_clock_hz,
                            fast=fast)
            master = AxiLink(sim, "m", data_bytes=16)
            hc = HyperConnect(sim, "hc", 2, master)
            memory = FaultInjectingMemory(sim, "mem", master,
                                          timing=ZCU102.dram,
                                          freeze_window=(100, 2600))
            dma = AxiDma(sim, "dma", hc.port(0))
            job = dma.enqueue_read(0x1000_0000, 4096)
            sim.run(6_000)
            # no watchdog armed: the read simply waits out the freeze
            # and must complete strictly after the revive edge
            assert job.completed is not None
            assert job.completed > 2600
            if fast:
                assert sim.skip_stats.ticks_skipped > 0
            return (_signature(dma), _memory_counters(memory),
                    job.completed, sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_rate_limited_qos_regulator(self):
        """The PS-side regulator overrides the tick of a forwarding
        pipe, and its token-bucket countdown moves every cycle: no tick
        of it is a no-op, so the system must never freeze around it."""
        def run(fast):
            from repro.axi.port import AxiLink
            from repro.memory import MemorySubsystem, PsQosRegulator
            from repro.sim import Simulator
            from repro.smartconnect import (SmartConnect,
                                            smartconnect_master_link)

            sim = Simulator("qos", clock_hz=ZCU102.pl_clock_hz, fast=fast)
            fabric_side = smartconnect_master_link(sim, "fabric")
            ps_side = AxiLink(sim, "ps", data_bytes=16)
            interconnect = SmartConnect(sim, "sc", 2, fabric_side)
            regulator = PsQosRegulator(sim, "qos400", fabric_side, ps_side,
                                       rate_budget=4, rate_period=1024)
            memory = MemorySubsystem(sim, "mem", ps_side,
                                     timing=ZCU102.dram)
            reader = AxiDma(sim, "reader", interconnect.port(0))
            writer = AxiDma(sim, "writer", interconnect.port(1))
            # bursts of six transactions against a budget of four per
            # period, with idle gaps long enough to freeze through
            for burst in range(4):
                reader.enqueue_read(0x1000_0000 + burst * 0x1000, 1024)
                writer.enqueue_write(0x2000_0000 + burst * 0x1000, 512)
                sim.run(3_000 + 77 * burst)
            if fast:
                assert sim.skip_stats.cycles_frozen == 0
            return (_signature(reader, writer), _memory_counters(memory),
                    regulator.throttled_cycles,
                    regulator.forwarded_transactions,
                    regulator._tokens, regulator._countdown, sim.now)

        reference, fast = _both(run)
        assert reference == fast
        assert fast[2] > 0   # the rate limit actually throttled


class TestFutureWorkTopologies:
    """The multi-port memory subsystem, checked differentially like
    every other component."""

    def test_multiport_memory_subsystem(self):
        def run(fast):
            from repro.axi.port import AxiLink
            from repro.hyperconnect import HyperConnect
            from repro.memory import MemorySubsystem
            from repro.sim import Simulator

            sim = Simulator("hp", clock_hz=ZCU102.pl_clock_hz, fast=fast)
            hp0 = AxiLink(sim, "hp0", data_bytes=16)
            hp1 = AxiLink(sim, "hp1", data_bytes=16)
            hc0 = HyperConnect(sim, "hc0", 2, hp0)
            hc1 = HyperConnect(sim, "hc1", 1, hp1)
            memory = MemorySubsystem(sim, "mem", [hp0, hp1],
                                     timing=ZCU102.dram)
            a = AxiDma(sim, "a", hc0.port(0))
            b = AxiDma(sim, "b", hc0.port(1))
            c = AxiDma(sim, "c", hc1.port(0))
            a.enqueue_read(0x1000_0000, 8192)
            b.enqueue_write(0x2000_0000, 4096)
            c.enqueue_copy(0x3000_0000, 0x3800_0000, 4096)
            sim.run_until(lambda: not (a.busy or b.busy or c.busy),
                          max_cycles=200_000)
            sim.run(64)
            return (_signature(a, b, c), memory.beats_served,
                    tuple(memory.per_port_beats),
                    memory.queue_delay.count, memory.queue_delay.mean,
                    sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_multiport_fast_path_skips(self):
        """The new hooks must actually unlock skipping, not just stay
        equivalent by never claiming quiescence."""
        from repro.axi.port import AxiLink
        from repro.hyperconnect import HyperConnect
        from repro.memory import MemorySubsystem
        from repro.sim import Simulator

        sim = Simulator("hp", clock_hz=ZCU102.pl_clock_hz, fast=True)
        hp0 = AxiLink(sim, "hp0", data_bytes=16)
        hc0 = HyperConnect(sim, "hc0", 1, hp0)
        MemorySubsystem(sim, "mem", [hp0], timing=ZCU102.dram)
        dma = AxiDma(sim, "dma", hc0.port(0))
        job = dma.enqueue_read(0x1000_0000, 16)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=50_000)
        assert job.completed is not None
        assert sim.skip_stats.ticks_skipped > 0


class TestObservables:
    """Monitors, traces, and memory contents across the two paths."""

    def test_probe_latencies_match(self):
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
            probe_ar = PropagationProbe(soc.port(0).ar, soc.master_link.ar)
            probe_r = PropagationProbe(soc.master_link.r, soc.port(0).r)
            dma = AxiDma(soc.sim, "dma", soc.port(0))
            dma.enqueue_read(0x1000_0000, 8192)
            elapsed = soc.run_until_quiescent()
            return ((probe_ar.stats.count, probe_ar.latency_max,
                     probe_ar.latency_mean),
                    (probe_r.stats.count, probe_r.latency_max,
                     probe_r.latency_mean), elapsed)

        reference, fast = _both(run)
        assert reference == fast

    def test_trace_events_match(self):
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
            tracer = Tracer(limit=None)
            tracer.attach_channel(soc.port(0).ar, "p0.AR")
            tracer.attach_channel(soc.master_link.ar, "m.AR")
            tracer.attach_channel(soc.port(0).r, "p0.R", on=("pop",))
            dma = AxiDma(soc.sim, "dma", soc.port(0))
            dma.enqueue_read(0x1000_0000, 1024)
            dma.enqueue_write(0x2000_0000, 1024)
            soc.run_until_quiescent()
            return tracer.as_dicts()

        reference, fast = _both(run)
        assert reference == fast
        assert reference  # the run must actually have produced events

    def test_final_memory_contents_match(self):
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, with_store=True,
                                  fast=fast)
            soc.store.fill_pattern(0x1000_0000, 4096, seed=5)
            dma = AxiDma(soc.sim, "dma", soc.port(0))
            dma.enqueue_copy(0x1000_0000, 0x2000_0000, 4096)
            soc.run_until_quiescent()
            return soc.store.read(0x2000_0000, 4096)

        reference, fast = _both(run)
        assert reference == fast
        # and the copy itself must have happened: the destination holds
        # the same pattern a fresh store generates at the source
        from repro.memory import MemoryStore
        expected = MemoryStore()
        expected.fill_pattern(0x1000_0000, 4096, seed=5)
        assert reference == expected.read(0x1000_0000, 4096)

    def test_chaidnn_frame_timeline_matches(self):
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
            dnn = ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0),
                                     scale=1 / 256)
            dnn.start()
            soc.sim.run(80_000)
            return (dnn.frames_completed, _signature(dnn), soc.sim.now)

        reference, fast = _both(run)
        assert reference == fast

    def test_tracer_attached_mid_run_while_components_sleep(self):
        """A tracer subscribed mid-run, after the fast path froze the
        idle system, sees exactly the reference path's beats."""
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
            dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p))
                    for p in range(2)]
            dmas[0].enqueue_read(0x1000_0000, 1024)
            soc.run_until_quiescent()
            soc.sim.run(2_000)
            frozen = soc.sim.skip_stats.cycles_frozen
            tracer = Tracer(limit=None)
            tracer.attach_channel(soc.port(1).ar, "p1.AR")
            tracer.attach_channel(soc.master_link.ar, "m.AR")
            tracer.attach_channel(soc.port(1).r, "p1.R", on=("pop",))
            dmas[1].enqueue_read(0x2000_0000, 1024)
            dmas[0].enqueue_write(0x3000_0000, 512)
            soc.run_until_quiescent()
            return (tracer.as_dicts(), _signature(*dmas), soc.sim.now), frozen

        (reference, __), (fast, frozen) = _both(run)
        assert frozen > 0   # the fast path froze before the subscription
        assert reference == fast
        assert reference[0]


class TestRunUntilStops:
    """``run_until`` samples its predicate on the same cycle boundaries
    on both paths, on a loaded SoC rather than toy components."""

    @staticmethod
    def loaded_soc(fast):
        soc = SocSystem.build(ZCU102, n_ports=2, period=2048, fast=fast)
        dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p)) for p in range(2)]
        for port, dma in enumerate(dmas):
            base = 0x100_0000 * (port + 1)
            dma.enqueue_copy(base, base + 0x800_0000, 1024)
            dma.enqueue_read(base + 0x10_0000, 512)
        return soc, dmas

    def test_predicate_stops_on_same_cycle(self):
        def run(fast):
            soc, dmas = self.loaded_soc(fast)
            elapsed = soc.sim.run_until(
                lambda: all(len(d.jobs_completed) >= 2 for d in dmas),
                max_cycles=200_000)
            return elapsed, soc.sim.now, _signature(*dmas)

        reference, fast = _both(run)
        assert reference == fast

    def test_split_runs_match_one_run(self):
        def run(fast, splits):
            soc, dmas = self.loaded_soc(fast)
            for __ in range(splits):
                soc.sim.run(12_000 // splits)
            return soc.sim.now, _signature(*dmas)

        one = run(fast=False, splits=1)
        assert run(fast=True, splits=1) == one
        assert run(fast=True, splits=6) == one


class TestFastPathActuallySkips:
    """The equivalence results above are meaningful only if the fast
    path really does skip work on these workloads."""

    def test_latency_dominated_run_freezes(self):
        soc = SocSystem.build(ZCU102, n_ports=2, fast=True)
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        dma.enqueue_read(0x1000_0000, 16)       # single-beat word read
        soc.run_until_quiescent()
        stats = soc.sim.skip_stats
        assert stats.ticks_skipped > 0
        assert stats.cycles_frozen > 0
        assert stats.cycles_total == stats.cycles_polled + stats.cycles_frozen
        assert 0.0 < stats.work_avoided_fraction <= 1.0

    def test_idle_tail_puts_components_to_sleep(self):
        """After a drained burst the idle system freezes: the tail's
        cycles are skipped without ticking anything."""
        soc, __ = TestRunUntilStops.loaded_soc(fast=True)
        soc.sim.run(40_000)
        assert soc.sim.skip_stats.cycles_frozen > 0

    def test_reservation_stalls_freeze(self):
        """A Fig. 5 row whose ports wait out their budgets freezes to
        the next recharge instead of polling the stall."""
        window = 50_000
        reference, fast = _both(
            lambda fast: run_case_study("hyperconnect",
                                        shares={0: 0.9, 1: 0.1},
                                        scale=1 / 512,
                                        window_cycles=window, fast=fast))
        assert fast == reference
        stats = fast.skip_stats
        assert stats["cycles_frozen"] > window // 4
        assert stats["cycles_total"] == window

    @pytest.mark.parametrize("change", ("shares", "unlimited"))
    def test_budget_change_releases_frozen_stall(self, change):
        """A budget change made while a port waits out its budget
        releases the stall on the next cycle, on both kernels."""
        period = 1024

        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=2, period=period,
                                  fast=fast)
            dma = AxiDma(soc.sim, "dma", soc.port(0))
            dma.enqueue_read(0x1000_0000, 65536)
            soc.driver.set_budget(0, 2)     # applies from the recharge
            soc.sim.run(period + 600)   # two subs, then the stall
            supervisor = soc.interconnect.supervisors[0]
            stalled = (supervisor.budget_remaining,
                       supervisor.outstanding_reads,
                       bool(supervisor._pending_ar))
            frozen = soc.sim.skip_stats.cycles_frozen
            changed_at = soc.sim.now
            if change == "shares":
                # a one-cycle period recharges on the cycle of the write
                soc.driver.set_bandwidth_shares({0: 0.5, 1: 0.5}, period=1)
            else:
                soc.driver.regs.write(port_register(0, PORT_BUDGET),
                                      BUDGET_UNLIMITED)
            soc.sim.run(4)
            released = supervisor._read_issue_cycles[0] - changed_at
            return (stalled, released, _signature(dma)), frozen

        (reference, __), (fast, frozen) = _both(run)
        assert fast == reference
        stalled, released, __ = fast
        assert stalled == (0, 0, True)
        assert released <= 1
        assert frozen > 300

    def test_reference_path_records_no_skips(self):
        soc = SocSystem.build(ZCU102, n_ports=2, fast=False)
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        dma.enqueue_read(0x1000_0000, 16)
        soc.run_until_quiescent()
        stats = soc.sim.skip_stats
        assert stats.ticks_skipped == 0
        assert stats.cycles_frozen == 0


# ----------------------------------------------------------------------
# randomized sweep: hypothesis searches the system-shape space for any
# workload on which the two kernel paths disagree
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_MASTER_KINDS = ("greedy", "random", "dma", "idle")


#: the last cycle a "random" port's schedule reaches (beyond every window)
_ARRIVALS_HORIZON = 8000


def _attach_master(soc, port, kind, seed, arrivals):
    """Attach a ``kind`` master; a "random" one adds its jobs to
    ``arrivals``, for :func:`run_with_arrivals` to enqueue."""
    if kind == "greedy":
        return GreedyTrafficGenerator(
            soc.sim, f"m{port}", soc.port(port),
            job_bytes=1024 << (seed % 3), burst_len=(16, 64)[seed % 2],
            depth=1 + seed % 3)
    if kind == "random":
        dma = AxiDma(soc.sim, f"m{port}", soc.port(port))
        arrivals.extend(seeded_arrivals(
            dma, seed, _ARRIVALS_HORIZON,
            probability=0.0025 * 2 ** (seed % 4)))
        arrivals.sort(key=lambda arrival: arrival[0])
        return dma
    if kind == "dma":
        dma = AxiDma(soc.sim, f"m{port}", soc.port(port))
        for index in range(1 + seed % 3):
            if (seed + index) % 2:
                dma.enqueue_read(0x1000_0000 + index * 0x8000,
                                 512 << (seed % 3))
            else:
                dma.enqueue_write(0x2000_0000 + index * 0x8000,
                                  512 << (seed % 3))
        return dma
    return None   # idle port: pure quiescence pressure


class _Noop(Component):
    """Never does anything; registering one forces a wiring rebuild."""

    def tick(self, cycle):
        return True


class TestRandomizedEquivalence:
    """Property: no reachable system shape distinguishes the paths."""

    @settings(max_examples=20, deadline=None)
    @given(
        n_ports=st.integers(min_value=1, max_value=3),
        kinds=st.lists(st.sampled_from(_MASTER_KINDS), min_size=3,
                       max_size=3),
        seed=st.integers(min_value=0, max_value=999),
        period=st.sampled_from((512, 2048, 65536)),
        window=st.integers(min_value=500, max_value=5000),
        intervene=st.booleans(),
    )
    def test_random_system_shapes(self, n_ports, kinds, seed, period,
                                  window, intervene):
        def run(fast):
            soc = SocSystem.build(ZCU102, n_ports=n_ports, period=period,
                                  fast=fast)
            arrivals = []
            engines = [engine for port in range(n_ports)
                       for engine in [_attach_master(
                           soc, port, kinds[port], seed + port, arrivals)]
                       if engine is not None]
            run_with_arrivals(soc.sim, window // 2, arrivals)
            if intervene and n_ports > 1:
                # hypervisor-style mid-run action on the last port
                soc.driver.decouple(n_ports - 1)
                run_with_arrivals(soc.sim, window // 4, arrivals)
                soc.driver.couple(n_ports - 1)
            run_with_arrivals(soc.sim, window // 2, arrivals)
            return (_signature(*engines), _memory_counters(soc.memory),
                    _interconnect_counters(soc), soc.sim.now)

        reference, fast = _both(run)
        assert reference == fast

    @settings(max_examples=20, deadline=None)
    @given(
        interconnect=st.sampled_from(INTERCONNECTS),
        kinds=st.lists(st.sampled_from(_MASTER_KINDS), min_size=2,
                       max_size=2),
        seed=st.integers(min_value=0, max_value=999),
        window=st.integers(min_value=1100, max_value=5000),
        register_at=st.one_of(st.none(),
                              st.integers(min_value=1, max_value=1000)),
    )
    def test_kernel_switch_mid_run(self, interconnect, kinds, seed, window,
                                   register_at):
        """A wiring rebuild after a mid-run registration while heads
        are in flight must not change what a pure reference run sees."""

        def run(fast):
            soc = SocSystem.build(ZCU102, interconnect=interconnect,
                                  n_ports=2, period=2048, fast=fast)
            arrivals = []
            engines = [engine for port in range(2)
                       for engine in [_attach_master(
                           soc, port, kinds[port], seed + port, arrivals)]
                       if engine is not None]
            if fast and register_at is not None:
                # the rebuild runs inside the remaining window, so a
                # freeze entered on the rebuild cycle is not cut short
                run_with_arrivals(soc.sim, register_at, arrivals)
                _Noop(soc.sim, "noop")
            run_with_arrivals(soc.sim, window - soc.sim.now, arrivals)
            return (_signature(*engines), _memory_counters(soc.memory),
                    _interconnect_counters(soc), soc.sim.now)

        reference, fast = _both(run)
        assert reference == fast


# ----------------------------------------------------------------------
# corpus replay: reference and fast must both hash to the digest
# recorded when each scenario was promoted into the corpus
# ----------------------------------------------------------------------

from pathlib import Path  # noqa: E402

from repro.verify import fingerprint_digest, load_corpus  # noqa: E402
from repro.verify.harness import run_scenario  # noqa: E402

CORPUS_PATH = Path(__file__).parent / "data" / "fault_corpus.json"
CORPUS = load_corpus(CORPUS_PATH)


class TestCorpusPathEquivalence:
    """Every promoted regression scenario, on both kernel paths.

    ``tests/test_verify_corpus.py`` replays the corpus through the full
    oracle stack (which includes the equivalence oracle); this class
    pins the stronger per-path property directly — each path's
    fingerprint independently hashes to the checked-in digest, so a
    divergence is attributed to the guilty path instead of surfacing as
    a generic oracle failure.
    """

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_corpus_digests_per_path(self, entry):
        reference = run_scenario(entry.scenario, fast=False)
        assert fingerprint_digest(reference) == entry.digest
        fast = run_scenario(entry.scenario, fast=True)
        assert fingerprint_digest(fast) == entry.digest, "fast path drifted"


class TestEquivalenceOracleSeesCompletionCycles:
    """The containment, isolation and stale-window oracles read per-port
    completion cycles from a twin that runs on the fast kernel, so the
    equivalence oracle must pin those cycles, not just the fingerprint."""

    def test_equal_fingerprints_with_shifted_completion_fail(self):
        from dataclasses import replace

        from repro.verify import OracleViolation, check_equivalence

        entry = CORPUS[0]
        reference = run_scenario(entry.scenario, fast=False)
        finished = [i for i, done in enumerate(reference.done_cycles)
                    if done is not None]
        assert finished
        shifted = list(reference.done_cycles)
        shifted[finished[0]] += 1
        candidate = replace(reference, done_cycles=tuple(shifted))
        assert candidate.fingerprint == reference.fingerprint
        with pytest.raises(OracleViolation, match="completion cycle") as err:
            check_equivalence(entry.scenario, reference, candidate,
                              label="tlm")
        assert err.value.oracle == "equivalence"
        assert "tlm" in str(err.value)
        check_equivalence(entry.scenario, reference,
                          run_scenario(entry.scenario, fast=True))
