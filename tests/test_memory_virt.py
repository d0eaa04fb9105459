"""Unit tests for the sparse stage-2 address space and the DECERR path.

Two layers of the tenant-isolation story:

* :class:`Stage2Table` / :class:`VirtualizedStore` — a domain's sparse
  guest address space, with every unmapped or straddling access raising
  :class:`TranslationFault`;
* the data-path adapters (in-order DRAM controller and the multi-port
  subsystem) — a backing-store fault never escapes as a Python
  exception: it is answered on the bus as an AXI DECERR response.
"""

import pytest

from repro.axi import (
    AxiLink,
    Resp,
    WriteBeat,
    make_read_request,
    make_write_request,
)
from repro.memory import (
    DramTiming,
    MemoryAccessFault,
    MemorySubsystem,
    MemoryStore,
    Stage2Table,
    Stage2Window,
    TranslationFault,
    VirtualizedStore,
)
from repro.sim import Simulator


class TestStage2Window:
    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            Stage2Window(0, 0, 0)
        with pytest.raises(ValueError):
            Stage2Window(-4096, 4096, 0)
        with pytest.raises(ValueError):
            Stage2Window(0, 4096, -4096)

    def test_contains_and_translate(self):
        window = Stage2Window(0x1000, 0x1000, 0x8000)
        assert window.contains(0x1000)
        assert window.contains(0x1FF0, 16)
        assert not window.contains(0x1FF1, 16)   # straddles the edge
        assert not window.contains(0xFFF)
        assert window.translate(0x1800) == 0x8800


class TestStage2Table:
    def test_translate_through_sparse_windows(self):
        table = Stage2Table()
        table.map(0x0000, 0x1000, 0x4_0000)
        table.map(0x8000, 0x2000, 0x9_0000)
        assert table.translate(0x0010, 16) == 0x4_0010
        assert table.translate(0x8100, 64) == 0x9_0100
        assert table.translations == 2

    def test_miss_raises_translation_fault(self):
        table = Stage2Table(name="t0.stage2")
        table.map(0x0000, 0x1000, 0x4_0000)
        with pytest.raises(TranslationFault) as info:
            table.translate(0x2000, 16)
        assert info.value.address == 0x2000
        assert table.faults == 1

    def test_straddle_raises_translation_fault(self):
        table = Stage2Table()
        table.map(0x0000, 0x1000, 0x4_0000)
        table.map(0x1000, 0x1000, 0x9_0000)   # guest-contiguous, host not
        # grants are physically contiguous per window; a burst across the
        # window seam must fault rather than silently span host regions
        with pytest.raises(TranslationFault):
            table.translate(0x0FF0, 32)

    def test_translation_fault_is_a_memory_access_fault(self):
        # the data-path adapters catch MemoryAccessFault; stage-2 misses
        # must ride that same DECERR path
        assert issubclass(TranslationFault, MemoryAccessFault)
        assert issubclass(TranslationFault, ValueError)

    def test_guest_overlap_rejected_on_both_sides(self):
        table = Stage2Table()
        table.map(0x4000, 0x2000, 0)
        with pytest.raises(ValueError):
            table.map(0x5000, 0x1000, 0x10000)   # inside the existing
        with pytest.raises(ValueError):
            table.map(0x3000, 0x2000, 0x10000)   # overlaps from below
        table.map(0x2000, 0x2000, 0x10000)       # touching is fine
        table.map(0x6000, 0x1000, 0x20000)

    def test_unmap_removes_exactly_one_window(self):
        table = Stage2Table()
        table.map(0x0000, 0x1000, 0x4_0000)
        table.map(0x8000, 0x1000, 0x9_0000)
        removed = table.unmap(0x8000)
        assert removed.host_base == 0x9_0000
        assert table.mapped_bytes == 0x1000
        with pytest.raises(ValueError):
            table.unmap(0x8000)
        with pytest.raises(TranslationFault):
            table.translate(0x8000)


class TestVirtualizedStore:
    def build(self):
        store = MemoryStore(size=1 << 24)
        table = Stage2Table()
        table.map(0x0000, 0x2000, 0x10_0000)
        return store, VirtualizedStore(store, table)

    def test_reads_and_writes_land_in_the_host_window(self):
        store, guest = self.build()
        guest.write(0x100, b"tenant-data")
        assert store.read(0x10_0100, 11) == b"tenant-data"
        assert guest.read(0x100, 11) == b"tenant-data"

    def test_fill_pattern_translates(self):
        store, guest = self.build()
        guest.fill_pattern(0x0, 64, seed=7)
        assert guest.read(0x0, 64) == store.read(0x10_0000, 64)

    def test_out_of_grant_access_is_confined(self):
        _, guest = self.build()
        with pytest.raises(TranslationFault):
            guest.read(0x2000, 4)
        with pytest.raises(TranslationFault):
            guest.write(0x3000, b"\x00" * 4)

    def test_span_and_mapped_bytes(self):
        store = MemoryStore(size=1 << 24)
        table = Stage2Table()
        guest = VirtualizedStore(store, table)
        assert guest.size == 0
        table.map(0x0000, 0x1000, 0)
        table.map(0x8000, 0x1000, 0x1000)
        assert guest.size == 0x9000          # sparse span, not sum
        assert guest.mapped_bytes == 0x2000


# ----------------------------------------------------------------------
# data-path DECERR synthesis (satellite: out-of-range -> AXI error)
# ----------------------------------------------------------------------

TIMING = DramTiming(read_latency=10, write_latency=5, resp_latency=2)


def push_read(link, address, length=1):
    link.ar.push(make_read_request(address, length, 16))


def push_write(link, address, length=1):
    link.aw.push(make_write_request(address, length, 16))
    for index in range(length):
        link.w.push(WriteBeat(last=index == length - 1,
                              data=b"\xAA" * 16))


class TestDramDecerr:
    def build(self, size=4096):
        sim = Simulator("decerr")
        link = AxiLink(sim, "link", data_bytes=16, data_depth=64)
        memory = MemorySubsystem(sim, "mem", link, timing=TIMING,
                                 store=MemoryStore(size=size))
        return sim, link, memory

    def test_out_of_range_read_answers_decerr_beats(self):
        sim, link, memory = self.build()
        push_read(link, address=8192, length=4)
        sim.run(40)
        beats = link.r.drain()
        assert len(beats) == 4                      # burst length honoured
        assert all(beat.resp is Resp.DECERR for beat in beats)
        assert all(beat.data is None for beat in beats)
        assert beats[-1].last
        assert memory.decode_errors == 4

    def test_out_of_range_write_answers_decerr_response(self):
        sim, link, memory = self.build()
        push_write(link, address=8192, length=2)
        sim.run(40)
        responses = link.b.drain()
        assert len(responses) == 1
        assert responses[0].resp is Resp.DECERR
        assert memory.decode_errors >= 1

    def test_in_range_traffic_stays_okay(self):
        sim, link, memory = self.build()
        push_write(link, address=0, length=2)
        push_read(link, address=0, length=2)
        sim.run(60)
        assert all(b.resp is Resp.OKAY for b in link.r.drain())
        assert all(b.resp is Resp.OKAY for b in link.b.drain())
        assert memory.decode_errors == 0

    def test_faulting_burst_does_not_wedge_the_controller(self):
        sim, link, memory = self.build()
        push_read(link, address=1 << 20, length=4)  # DECERRs
        sim.run(40)
        link.r.drain()
        push_read(link, address=0, length=2)        # then healthy traffic
        sim.run(60)
        beats = link.r.drain()
        assert len(beats) == 2
        assert all(beat.resp is Resp.OKAY for beat in beats)


class TestMultiPortDecerr:
    def build(self, size=4096):
        sim = Simulator("mp-decerr")
        links = [AxiLink(sim, f"p{i}", data_bytes=16, data_depth=64)
                 for i in range(2)]
        memory = MemorySubsystem(sim, "mp", links, timing=TIMING,
                                 store=MemoryStore(size=size))
        return sim, links, memory

    def test_out_of_range_read_answers_decerr(self):
        sim, links, memory = self.build()
        push_read(links[0], address=8192, length=2)
        sim.run(40)
        beats = links[0].r.drain()
        assert len(beats) == 2
        assert all(beat.resp is Resp.DECERR for beat in beats)
        assert memory.decode_errors == 2

    def test_out_of_range_write_answers_decerr(self):
        sim, links, memory = self.build()
        push_write(links[1], address=8192, length=2)
        sim.run(40)
        responses = links[1].b.drain()
        assert len(responses) == 1
        assert responses[0].resp is Resp.DECERR

    def test_one_ports_fault_leaves_the_other_ok(self):
        sim, links, memory = self.build()
        push_read(links[0], address=1 << 20, length=2)
        push_read(links[1], address=0, length=2)
        sim.run(60)
        assert all(b.resp is Resp.DECERR for b in links[0].r.drain())
        assert all(b.resp is Resp.OKAY for b in links[1].r.drain())
