"""Tests for the out-of-order platform support (the paper's future work).

System under test: HyperConnect -> InOrderAdapter -> OutOfOrderMemory.
The controller is free to reorder reads for row-buffer locality; the
adapter must restore the in-order contract so that the HyperConnect's
routing information — and therefore every HA — stays correct.
"""

import pytest

from repro.axi import AxiLink, LinkChecker
from repro.hyperconnect import HyperConnect, InOrderAdapter
from repro.masters import AxiDma, AxiMasterEngine, GreedyTrafficGenerator
from repro.memory import DramTiming, MemoryStore, OutOfOrderMemory
from repro.sim import ConfigurationError, Simulator

#: row model on, with a hefty miss penalty so reordering pays off
OOO_TIMING = DramTiming(read_latency=12, write_latency=8, resp_latency=2,
                        row_miss_penalty=24)


def build_ooo_system(with_store=False, n_ports=2, lookahead=8):
    sim = Simulator("ooo", clock_hz=150e6)
    upstream = AxiLink(sim, "up", data_bytes=16)
    downstream = AxiLink(sim, "down", data_bytes=16)
    hc = HyperConnect(sim, "hc", n_ports, upstream)
    adapter = InOrderAdapter(sim, "adapter", upstream, downstream)
    store = MemoryStore() if with_store else None
    memory = OutOfOrderMemory(sim, "mem", downstream, timing=OOO_TIMING,
                              store=store, lookahead=lookahead)
    return sim, hc, adapter, memory, store


def drain(sim, engines, max_cycles=2_000_000):
    sim.run_until(lambda: all(not engine.busy for engine in engines),
                  max_cycles=max_cycles)
    sim.run(64)


class TestOutOfOrderMemory:
    def test_reorders_row_hits_past_misses(self):
        sim, hc, adapter, memory, __ = build_ooo_system()
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8)
        # alternate two far-apart row regions: A A' B A'' ... the scheduler
        # should batch same-row reads when the head misses
        for index in range(12):
            base = 0x0 if index % 2 == 0 else 0x40_0000
            engine.enqueue_read(base + (index // 2) * 256, 256)
        drain(sim, [engine])
        assert memory.reordered_served > 0

    def test_in_order_memory_never_reorders(self):
        from repro.memory import MemorySubsystem
        sim = Simulator("inorder", clock_hz=150e6)
        link = AxiLink(sim, "l", data_bytes=16)
        hc = HyperConnect(sim, "hc", 1, link)
        memory = MemorySubsystem(sim, "mem", link, timing=OOO_TIMING)
        engine = AxiMasterEngine(sim, "m", hc.port(0))
        for index in range(8):
            engine.enqueue_read(index * 0x10_0000, 256)
        drain(sim, [engine])
        # base class has no reordering machinery at all
        assert not hasattr(memory, "reordered_served")

    def test_writes_never_reordered(self):
        sim, hc, adapter, memory, store = build_ooo_system(with_store=True)
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8)
        # interleave writes to alternating rows; data must land intact
        payloads = []
        for index in range(6):
            payload = bytes(((index * 37 + j) & 0xFF) for j in range(256))
            payloads.append(payload)
            base = (0x0 if index % 2 == 0 else 0x40_0000)
            engine.enqueue_write(base + index * 4096, 256, data=payload)
        drain(sim, [engine])
        for index, payload in enumerate(payloads):
            base = (0x0 if index % 2 == 0 else 0x40_0000)
            assert store.read(base + index * 4096, 256) == payload

    def test_invalid_lookahead(self):
        with pytest.raises(ValueError):
            build_ooo_system(lookahead=0)


class TestInOrderAdapter:
    def test_upstream_sees_in_order_reads(self):
        sim, hc, adapter, memory, __ = build_ooo_system()
        checker = LinkChecker(adapter.upstream)
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8)
        for index in range(16):
            base = 0x0 if index % 2 == 0 else 0x40_0000
            engine.enqueue_read(base + (index // 2) * 256, 256)
        drain(sim, [engine])
        checker.assert_clean()   # RLAST boundaries in request order
        assert memory.reordered_served > 0          # OoO actually happened
        assert adapter.out_of_order_arrivals > 0    # ... and was absorbed
        assert adapter.idle()

    def test_data_integrity_through_reordering(self):
        sim, hc, adapter, memory, store = build_ooo_system(with_store=True)
        for index in range(16):
            base = 0x0 if index % 2 == 0 else 0x40_0000
            store.fill_pattern(base + (index // 2) * 256, 256,
                               seed=index)
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8,
                                 collect_data=True)
        jobs = []
        for index in range(16):
            base = 0x0 if index % 2 == 0 else 0x40_0000
            jobs.append(engine.enqueue_read(
                base + (index // 2) * 256, 256))
        drain(sim, [engine])
        for index, job in enumerate(jobs):
            base = 0x0 if index % 2 == 0 else 0x40_0000
            expected = store.read(base + (index // 2) * 256, 256)
            assert bytes(job.result) == expected

    def test_two_masters_with_contention(self):
        sim, hc, adapter, memory, store = build_ooo_system(with_store=True)
        store.fill_pattern(0x1000, 4096, seed=1)
        noise = GreedyTrafficGenerator(sim, "noise", hc.port(1),
                                       job_bytes=8192,
                                       window_base=0x40_0000)
        victim = AxiMasterEngine(sim, "victim", hc.port(0),
                                 collect_data=True)
        job = victim.enqueue_read(0x1000, 4096)
        sim.run_until(lambda: job.completed is not None,
                      max_cycles=1_000_000)
        assert bytes(job.result) == store.read(0x1000, 4096)

    def test_write_responses_released_in_order(self):
        sim, hc, adapter, memory, __ = build_ooo_system()
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8)
        jobs = [engine.enqueue_write(0x2000 * index, 512)
                for index in range(6)]
        drain(sim, [engine])
        assert all(job.completed is not None for job in jobs)
        completion = [job.completed for job in jobs]
        assert completion == sorted(completion)

    def test_tiny_buffer_serializes_but_completes(self):
        sim, hc, adapter, memory, __ = build_ooo_system()
        adapter.buffer_beats = 16   # one equalized sub-burst at a time
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8)
        jobs = [engine.enqueue_read(0x40_0000 * (index % 2), 1024)
                for index in range(6)]
        drain(sim, [engine])
        assert all(job.completed is not None for job in jobs)

    def test_burst_larger_than_buffer_rejected_loudly(self):
        sim, hc, adapter, memory, __ = build_ooo_system()
        adapter.buffer_beats = 8    # below the 16-beat nominal burst
        engine = AxiMasterEngine(sim, "m", hc.port(0))
        engine.enqueue_read(0x0, 256)
        with pytest.raises(ConfigurationError):
            sim.run(100)

    def test_mixed_reads_and_writes(self):
        sim, hc, adapter, memory, store = build_ooo_system(with_store=True)
        engine = AxiMasterEngine(sim, "m", hc.port(0), max_outstanding=8,
                                 collect_data=True)
        payload = bytes(range(256))
        engine.enqueue_write(0x3000, 256, data=payload)
        engine.enqueue_read(0x40_0000, 256)
        engine.enqueue_write(0x5000, 256, data=payload)
        read_back = engine.enqueue_read(0x3000, 256)
        drain(sim, [engine])
        assert bytes(read_back.result) == payload

    def test_invalid_buffer_size(self):
        sim = Simulator("bad")
        up = AxiLink(sim, "u")
        down = AxiLink(sim, "d")
        with pytest.raises(ConfigurationError):
            InOrderAdapter(sim, "a", up, down, buffer_beats=0)

    def test_outstanding_bounded_by_id_space(self):
        sim, hc, adapter, memory, __ = build_ooo_system()
        engine = AxiMasterEngine(sim, "m", hc.port(0),
                                 max_outstanding=8)
        for index in range(16):
            engine.enqueue_read(index * 0x1000, 256)
        peak = [0]

        class Watch:
            pass

        def sample():
            peak[0] = max(peak[0], adapter.outstanding)

        for _ in range(30_000):
            sim.step()
            sample()
            if not engine.busy:
                break
        assert peak[0] <= adapter._ids.capacity
