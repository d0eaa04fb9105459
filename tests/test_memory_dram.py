"""Unit tests for the in-order DRAM controller model."""

import pytest

from repro.axi import (
    AxiLink,
    WriteBeat,
    make_read_request,
    make_write_request,
)
from repro.memory import DramTiming, MemorySubsystem, MemoryStore
from repro.sim import ConfigurationError, Simulator


TIMING = DramTiming(read_latency=10, write_latency=5, resp_latency=2)


def make_system(store=None, data_depth=64):
    sim = Simulator("mem-test")
    link = AxiLink(sim, "link", data_bytes=16, data_depth=data_depth)
    memory = MemorySubsystem(sim, "mem", link, timing=TIMING, store=store)
    return sim, link, memory


def push_read(link, address=0x100, length=1):
    beat = make_read_request(address, length, 16)
    link.ar.push(beat)
    return beat


def push_write(link, address=0x100, length=1, data=None):
    beat = make_write_request(address, length, 16)
    link.aw.push(beat)
    for index in range(length):
        chunk = None
        if data is not None:
            chunk = data[index * 16:(index + 1) * 16]
        link.w.push(WriteBeat(last=index == length - 1, data=chunk))
    return beat


class TestReadTiming:
    def test_first_beat_latency(self):
        sim, link, memory = make_system()
        push_read(link)  # pushed at cycle 0, memory ingests at cycle 1
        arrival = []
        link.r.subscribe_push(lambda cycle, beat: arrival.append(cycle))
        sim.run(30)
        # ingested at 1, first data at 1 + read_latency
        assert arrival == [1 + TIMING.read_latency]

    def test_burst_streams_one_beat_per_cycle(self):
        sim, link, memory = make_system()
        push_read(link, length=8)
        arrivals = []
        link.r.subscribe_push(lambda cycle, beat: arrivals.append(cycle))
        sim.run(40)
        assert len(arrivals) == 8
        assert arrivals == list(range(arrivals[0], arrivals[0] + 8))

    def test_rlast_on_final_beat_only(self):
        sim, link, memory = make_system()
        push_read(link, length=4)
        lasts = []
        link.r.subscribe_push(lambda cycle, beat: lasts.append(beat.last))
        sim.run(40)
        assert lasts == [False, False, False, True]

    def test_back_to_back_bursts_saturate_bus(self):
        sim, link, memory = make_system()
        for i in range(4):
            push_read(link, address=0x1000 + 0x100 * i, length=16)
        arrivals = []
        link.r.subscribe_push(lambda cycle, beat: arrivals.append(cycle))
        sim.run(120)
        assert len(arrivals) == 64
        # after the first access latency, the data bus never idles
        assert arrivals[-1] - arrivals[0] == 63


class TestWriteTiming:
    def test_write_response_latency(self):
        sim, link, memory = make_system()
        push_write(link, length=2)
        responses = []
        link.b.subscribe_push(lambda cycle, beat: responses.append(cycle))
        sim.run(40)
        assert len(responses) == 1
        # arrival 1, data start 1+5, beats at 6 and 7, B at 7+2 = 9...
        # B is emitted on the cycle it becomes due or later (1-per-cycle)
        assert responses[0] >= 1 + TIMING.write_latency + 2

    def test_write_waits_for_data(self):
        sim, link, memory = make_system()
        link.aw.push(make_write_request(0x0, 2, 16))
        responses = []
        link.b.subscribe_push(lambda cycle, beat: responses.append(cycle))
        sim.run(30)
        assert not responses          # no W data yet: must not respond
        link.w.push(WriteBeat(last=False))
        link.w.push(WriteBeat(last=True))
        sim.run(30)
        assert len(responses) == 1


class TestOrdering:
    def test_reads_served_in_order(self):
        sim, link, memory = make_system()
        first = push_read(link, address=0x100, length=1)
        second = push_read(link, address=0x900, length=1)
        order = []
        link.r.subscribe_push(
            lambda cycle, beat: order.append(beat.addr_beat.address))
        sim.run(40)
        assert order == [0x100, 0x900]

    def test_ar_ingested_before_aw_same_cycle(self):
        sim, link, memory = make_system()
        push_read(link, address=0x100, length=1)
        push_write(link, address=0x200, length=1)
        events = []
        link.r.subscribe_push(lambda cycle, beat: events.append("R"))
        link.b.subscribe_push(lambda cycle, beat: events.append("B"))
        sim.run(60)
        assert events == ["R", "B"]


class TestBackpressure:
    def test_r_backpressure_stalls_without_loss(self):
        sim, link, memory = make_system(data_depth=2)
        push_read(link, length=8)
        sim.run(60)             # nobody pops: R channel fills
        received = 0
        for _ in range(100):
            if link.r.can_pop():
                link.r.pop()
                received += 1
            sim.step()
        assert received == 8    # all beats eventually delivered


class TestFunctional:
    def test_read_returns_store_contents(self):
        store = MemoryStore()
        store.write(0x100, bytes(range(32)))
        sim, link, memory = make_system(store=store)
        push_read(link, address=0x100, length=2)
        data = []
        link.r.subscribe_push(lambda cycle, beat: data.append(beat.data))
        sim.run(40)
        assert b"".join(data) == bytes(range(32))

    def test_write_updates_store(self):
        store = MemoryStore()
        sim, link, memory = make_system(store=store)
        payload = bytes(range(16)) + bytes(range(16, 32))
        push_write(link, address=0x40, length=2, data=payload)
        sim.run(40)
        assert store.read(0x40, 32) == payload


class TestValidation:
    def test_invalid_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            DramTiming(read_latency=0)

    def test_stats_counters(self):
        sim, link, memory = make_system()
        push_read(link, length=4)
        push_write(link, length=2)
        sim.run(60)
        assert memory.reads_served == 1
        assert memory.writes_served == 1
        assert memory.beats_served == 6
        assert memory.idle()


class TestNonIncrBursts:
    def _read_data(self, store, address, length, burst):
        from repro.axi import BurstType, make_read_request
        sim, link, memory = make_system(store=store)
        link.ar.push(make_read_request(address, length, 16, burst=burst))
        data = []
        link.r.subscribe_push(lambda cycle, beat: data.append(beat.data))
        sim.run(60)
        return data

    def test_fixed_burst_rereads_same_address(self):
        from repro.axi import BurstType
        store = MemoryStore()
        store.write(0x100, bytes(range(16)))
        store.write(0x110, b"\xAA" * 16)
        data = self._read_data(store, 0x100, 4, BurstType.FIXED)
        assert data == [bytes(range(16))] * 4

    def test_wrap_burst_wraps_at_container(self):
        from repro.axi import BurstType
        store = MemoryStore()
        for index in range(4):
            store.write(0x200 + index * 16, bytes([index]) * 16)
        # container = 4 beats x 16 B = 64 B; start mid-container at +32
        data = self._read_data(store, 0x220, 4, BurstType.WRAP)
        assert [chunk[0] for chunk in data] == [2, 3, 0, 1]

    def test_fixed_write_lands_on_one_address(self):
        from repro.axi import BurstType, make_write_request
        store = MemoryStore()
        sim, link, memory = make_system(store=store)
        link.aw.push(make_write_request(0x300, 3, 16, burst=BurstType.FIXED))
        for index in range(3):
            link.w.push(WriteBeat(last=index == 2,
                                  data=bytes([index + 1]) * 16))
        sim.run(60)
        # last beat wins at the fixed address; neighbours untouched
        assert store.read(0x300, 16) == b"\x03" * 16
        assert store.read(0x310, 16) == bytes(16)
