"""Tests: multi-port memory, cascaded HyperConnects, fault injection."""

import pytest

from repro.axi import (
    AxiLink,
    BurstType,
    PropagationProbe,
    Resp,
    WriteBeat,
    make_read_request,
    make_write_request,
)
from repro.hyperconnect import HyperConnect, HyperConnectDriver
from repro.masters import (
    AxiDma,
    AxiMasterEngine,
    DmaDescriptor,
    GreedyTrafficGenerator,
)
from repro.masters.chaidnn import ChaiDnnAccelerator
from repro.memory import (
    DramTiming,
    FaultInjectingMemory,
    MemoryStore,
    MemorySubsystem,
)
from repro.platforms import ZCU102
from repro.sim import ConfigurationError, Simulator
from repro.smartconnect import SmartConnect, smartconnect_master_link


def build_dual_hp_system(with_store=False):
    """Two HyperConnects, one per HP port, sharing one DRAM (Fig. 1)."""
    sim = Simulator("dual-hp", clock_hz=ZCU102.pl_clock_hz)
    links = [AxiLink(sim, f"hp{i}", data_bytes=16) for i in range(2)]
    hcs = [HyperConnect(sim, f"hc{i}", 2, links[i]) for i in range(2)]
    store = MemoryStore() if with_store else None
    memory = MemorySubsystem(sim, "ddr", links,
                             timing=ZCU102.dram, store=store)
    return sim, hcs, memory, store


class TestMultiPortMemory:
    def test_single_port_behaves_like_plain_memory(self):
        sim, hcs, memory, __ = build_dual_hp_system()
        dma = AxiDma(sim, "dma", hcs[0].port(0))
        job = dma.enqueue_read(0x1000, 16)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=10_000)
        # same structural pipeline + shared-controller timing
        assert job.latency == 43

    def test_routes_by_source_port(self):
        sim, hcs, memory, __ = build_dual_hp_system()
        a = AxiDma(sim, "a", hcs[0].port(0))
        b = AxiDma(sim, "b", hcs[1].port(0))
        ja = a.enqueue_read(0x1000, 1024)
        jb = b.enqueue_write(0x9000, 1024)
        sim.run_until(lambda: ja.completed and jb.completed,
                      max_cycles=100_000)
        assert memory.per_port_beats[0] == 64
        assert memory.per_port_beats[1] == 64
        assert memory.idle()

    def test_data_integrity_across_ports(self):
        sim, hcs, memory, store = build_dual_hp_system(with_store=True)
        writer = AxiMasterEngine(sim, "w", hcs[0].port(0))
        reader = AxiMasterEngine(sim, "r", hcs[1].port(0),
                                 collect_data=True)
        payload = bytes((i * 3 + 1) & 0xFF for i in range(1024))
        writer.enqueue_write(0x4000, 1024, data=payload)
        sim.run_until(lambda: not writer.busy, max_cycles=100_000)
        job = reader.enqueue_read(0x4000, 1024)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=100_000)
        assert bytes(job.result) == payload

    def test_dram_bandwidth_shared_fairly_between_ports(self):
        sim, hcs, memory, __ = build_dual_hp_system()
        a = GreedyTrafficGenerator(sim, "a", hcs[0].port(0),
                                   job_bytes=8192, depth=4)
        b = GreedyTrafficGenerator(sim, "b", hcs[1].port(0),
                                   job_bytes=8192, depth=4)
        sim.run(100_000)
        total = memory.per_port_beats[0] + memory.per_port_beats[1]
        share = memory.per_port_beats[0] / total
        assert share == pytest.approx(0.5, abs=0.05)
        # the single DRAM data bus is the bottleneck: ~1 beat/cycle total
        assert total == pytest.approx(100_000, rel=0.1)

    def test_per_hc_reservation_within_a_port(self):
        sim, hcs, memory, __ = build_dual_hp_system()
        from repro.hyperconnect import HyperConnectDriver
        driver = HyperConnectDriver(hcs[0])
        driver.set_period(2048)
        victim = GreedyTrafficGenerator(sim, "v", hcs[0].port(0),
                                        job_bytes=8192, depth=4)
        rogue = GreedyTrafficGenerator(sim, "g", hcs[0].port(1),
                                       job_bytes=8192, depth=4)
        driver.set_bandwidth_shares({0: 0.8, 1: 0.2})
        sim.run(150_000)
        total = victim.bytes_read + rogue.bytes_read
        assert victim.bytes_read / total == pytest.approx(0.8, abs=0.05)

    def test_validation(self):
        sim = Simulator("bad")
        with pytest.raises(ConfigurationError):
            MemorySubsystem(sim, "m", [])
        link = AxiLink(sim, "l")
        with pytest.raises(ConfigurationError):
            MemorySubsystem(sim, "m2", [link], command_depth=0)


TIMING = DramTiming(read_latency=10, write_latency=5, resp_latency=2)


def bare_controller(n_links, store=None):
    """A controller whose links are driven directly by the test."""
    sim = Simulator("bare")
    links = [AxiLink(sim, f"p{i}", data_bytes=16, data_depth=64)
             for i in range(n_links)]
    if n_links == 1:
        memory = MemorySubsystem(sim, "mem", links[0], timing=TIMING,
                                 store=store)
    else:
        memory = MemorySubsystem(sim, "mem", links, timing=TIMING,
                                 store=store)
    return sim, links, memory


def push_read(link, address, length, burst=BurstType.INCR):
    link.ar.push(make_read_request(address, length, 16, burst=burst))


def push_write(link, address, length):
    link.aw.push(make_write_request(address, length, 16))
    for index in range(length):
        link.w.push(WriteBeat(last=index == length - 1,
                              data=bytes([index]) * 16))


class TestOneControllerForAnyPortCount:
    """A multi-link controller is the single-link one with more ports:
    burst addressing, the row model and the served counters apply."""

    def wrap_read(self, n_links):
        store = MemoryStore()
        for index in range(4):
            store.write(0x200 + index * 16, bytes([index]) * 16)
        sim, links, memory = bare_controller(n_links, store=store)
        link = links[-1]
        push_read(link, 0x220, 4, burst=BurstType.WRAP)
        sim.run(60)
        return [beat.data[0] for beat in link.r.drain()]

    def test_wrap_read_on_a_second_port_wraps(self):
        assert self.wrap_read(2) == self.wrap_read(1) == [2, 3, 0, 1]

    def test_served_counters_count_on_a_multiport_controller(self):
        sim, links, memory = bare_controller(2)
        push_read(links[0], 0x100, 4)
        push_write(links[1], 0x900, 2)
        sim.run(60)
        assert memory.reads_served == 1
        assert memory.writes_served == 1
        assert memory.beats_served == 6
        assert memory.per_port_beats == [4, 2]
        assert len(links[1].b.drain()) == 1
        assert memory.idle()

    def test_fault_injection_rejects_several_links(self):
        sim = Simulator("faulty-mp")
        links = [AxiLink(sim, f"p{i}") for i in range(2)]
        with pytest.raises(ConfigurationError):
            FaultInjectingMemory(sim, "m", links, error_rate=0.5)


def run_mixed_topology(tlm):
    """HyperConnect (reserved CHaiDNN + greedy DMA) on HP0 and a
    SmartConnect DMA on HP1, both served by one controller."""
    sim = Simulator("mixed", clock_hz=ZCU102.pl_clock_hz, fast=True,
                    tlm=tlm)
    hp0 = AxiLink(sim, "hp0", data_bytes=16)
    hp1 = smartconnect_master_link(sim, "hp1", data_bytes=16)
    hc = HyperConnect(sim, "hc", 2, hp0)
    sc = SmartConnect(sim, "sc", 1, hp1)
    memory = MemorySubsystem(sim, "mem", [hp0, hp1], timing=ZCU102.dram)
    chai = ChaiDnnAccelerator(sim, "chai", hc.port(0), scale=1 / 64)
    chai.start()
    dma = AxiDma(sim, "dma", hc.port(1), burst_len=64)
    dma.program([DmaDescriptor("read", 0x1000_0000, 65536),
                 DmaDescriptor("write", 0x2000_0000, 65536)], repeat=True)
    dma.start()
    side = AxiDma(sim, "side", sc.port(0))
    side.enqueue_read(0x3000_0000, 16384)
    driver = HyperConnectDriver(hc)
    driver.set_period(2048)
    driver.set_bandwidth_shares({0: 0.5, 1: 0.5})
    sim.run(60_000)
    return sim, (sim.now, chai.frames_completed, chai.bytes_read,
                 dma.bytes_read, dma.bytes_written, side.bytes_read,
                 tuple(memory.per_port_beats), memory.reads_served,
                 memory.writes_served)


def test_tlm_declines_a_multiport_controller():
    """TLM accounts one link's traffic; with a SmartConnect port on the
    same controller it must stay cycle-accurate."""
    __, expected = run_mixed_topology(tlm=False)
    sim, observed = run_mixed_topology(tlm=True)
    assert sim.skip_stats.tlm_epochs == 0
    assert sim.skip_stats.tlm_demotions.get("memory", 0) > 0
    assert observed == expected


class TestCascadedHyperConnect:
    """An EFifoLink is an AxiLink, so HyperConnects compose."""

    def build(self):
        sim = Simulator("cascade", clock_hz=ZCU102.pl_clock_hz)
        master = AxiLink(sim, "m", data_bytes=16)
        parent = HyperConnect(sim, "parent", 2, master)
        child = HyperConnect(sim, "child", 2, parent.port(0))
        from repro.memory import MemorySubsystem
        MemorySubsystem(sim, "mem", master, timing=ZCU102.dram)
        return sim, parent, child

    def test_latency_is_additive(self):
        sim, parent, child = self.build()
        probe = PropagationProbe(child.port(0).ar,
                                 parent.master_link.ar)
        dma = AxiDma(sim, "dma", child.port(0))
        job = dma.enqueue_read(0x1000, 16)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=10_000)
        # cascading shares the boundary eFIFO: the child's master stage
        # IS the parent's slave eFIFO, so d_AR = 3 + 4 = 7 (not 4 + 4)
        assert probe.latency_max == 7
        assert job.latency == 43 + 4         # +3 on AR path, +1 on R path

    def test_traffic_flows_through_both_levels(self):
        sim, parent, child = self.build()
        inner = AxiDma(sim, "inner", child.port(0))
        outer = AxiDma(sim, "outer", parent.port(1))
        ji = inner.enqueue_read(0x0, 2048)
        jo = outer.enqueue_read(0x8000, 2048)
        sim.run_until(lambda: ji.completed and jo.completed,
                      max_cycles=100_000)
        assert child.total_grants == 8
        assert parent.total_grants == 16


class TestFaultInjection:
    def build(self, **kwargs):
        sim = Simulator("faulty", clock_hz=ZCU102.pl_clock_hz)
        master = AxiLink(sim, "m", data_bytes=16)
        hc = HyperConnect(sim, "hc", 2, master)
        kwargs.setdefault("timing", ZCU102.dram)
        memory = FaultInjectingMemory(sim, "mem", master, **kwargs)
        return sim, hc, memory

    def test_read_errors_reach_the_master(self):
        sim, hc, memory = self.build(error_rate=1.0, seed=3)
        responses = []
        hc.port(0).r.subscribe_push(
            lambda cycle, beat: responses.append(beat.resp))
        dma = AxiDma(sim, "dma", hc.port(0))
        job = dma.enqueue_read(0x0, 256)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=10_000)
        assert Resp.SLVERR in responses
        assert memory.errors_injected > 0

    def test_write_errors_merge_into_single_b(self):
        sim, hc, memory = self.build(error_rate=1.0, seed=3)
        responses = []
        hc.port(0).b.subscribe_push(
            lambda cycle, beat: responses.append(beat.resp))
        dma = AxiDma(sim, "dma", hc.port(0), burst_len=64)
        job = dma.enqueue_write(0x0, 64 * 16)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=20_000)
        assert responses == [Resp.SLVERR]

    def test_write_error_reaches_the_master_end_to_end(self):
        """A write-path fault must arrive at the master's B handler and
        be counted there — not just be visible on the channel."""
        sim, hc, memory = self.build(error_rate=1.0, seed=3)
        dma = AxiDma(sim, "dma", hc.port(0))
        job = dma.enqueue_write(0x0, 1024)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=20_000)
        # 1024 B at 16-beat nominal bursts = 4 sub-writes, each SLVERR
        assert dma.error_responses == 4
        assert memory.errors_injected > 0
        assert job.write_bytes_done == 1024

    def test_dead_after_beats_silences_the_pipeline(self):
        sim, hc, memory = self.build(dead_after_beats=16)
        dma = AxiDma(sim, "dma", hc.port(0))
        job = dma.enqueue_read(0x0, 1024)
        sim.run(5_000)
        assert memory.is_dead
        assert memory.beats_served == 16
        assert job.completed is None
        memory.revive()
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=20_000)
        assert job.completed is not None

    def test_freeze_window_is_transient(self):
        sim, hc, memory = self.build(freeze_window=(100, 400))
        dma = AxiDma(sim, "dma", hc.port(0))
        job = dma.enqueue_read(0x0, 2048)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=20_000)
        assert job.completed is not None
        assert job.latency > 300  # the freeze shows up in the latency

    def test_error_window_scopes_faults(self):
        sim, hc, memory = self.build(error_rate=1.0,
                                     error_window=(0x10_0000, 0x20_0000))
        responses = []
        hc.port(0).r.subscribe_push(
            lambda cycle, beat: responses.append(beat.resp))
        dma = AxiDma(sim, "dma", hc.port(0))
        clean = dma.enqueue_read(0x0, 256)
        dirty = dma.enqueue_read(0x10_0000, 256)
        sim.run_until(lambda: dirty.completed is not None,
                      max_cycles=20_000)
        assert responses[:16] == [Resp.OKAY] * 16
        assert Resp.SLVERR in responses[16:]

    def test_stalls_slow_but_never_corrupt(self):
        timing = DramTiming(read_latency=10, write_latency=5,
                            resp_latency=2)
        sim, hc, memory = self.build(stall_rate=0.2, stall_cycles=10,
                                     timing=timing, seed=11,
                                     store=MemoryStore())
        memory.store.fill_pattern(0x100, 1024, seed=5)
        engine = AxiMasterEngine(sim, "m", hc.port(0), collect_data=True)
        job = engine.enqueue_read(0x100, 1024)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=100_000)
        assert memory.stalls_injected > 0
        assert bytes(job.result) == memory.store.read(0x100, 1024)

    def test_seeded_runs_reproducible(self):
        def run(seed):
            sim, hc, memory = self.build(error_rate=0.3, seed=seed)
            dma = AxiDma(sim, "dma", hc.port(0))
            job = dma.enqueue_read(0x0, 4096)
            sim.run_until(lambda: job.completed is not None,
                          max_cycles=100_000)
            return memory.errors_injected

        assert run(7) == run(7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.build(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            self.build(stall_rate=-0.1)
        with pytest.raises(ConfigurationError):
            self.build(stall_cycles=0)
        with pytest.raises(ConfigurationError):
            self.build(dead_after_beats=-1)
        with pytest.raises(ConfigurationError):
            self.build(freeze_window=(500, 100))
