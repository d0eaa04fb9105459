"""Unit tests for a domain's guest view of memory and the DECERR path.

Two layers of the tenant-isolation story:

* :class:`~repro.hypervisor.hypervisor.DomainStore` — a domain's view of
  the shared store: grants are identity mapped, so an access inside one
  of ``Domain.regions`` lands at the same address in the store (its
  faults are tested in ``test_hypervisor_memory.py``);
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
from repro.hypervisor import Domain
from repro.hypervisor.hypervisor import DomainStore
from repro.memory import (
    DramTiming,
    MemorySubsystem,
    MemoryStore,
    TranslationFault,
)
from repro.sim import Simulator


def guest_view(*grants):
    """A fresh store and one domain's view of it over ``grants``."""
    store = MemoryStore(size=1 << 24)
    domain = Domain("t0")
    for base, size in grants:
        domain.add_region(base, size)
    return store, DomainStore(store, domain)


class TestStage2Table:
    """The guest view over sparse grants (once a stage-2 table)."""

    def test_translate_through_sparse_windows(self):
        store, guest = guest_view((0x4_0000, 0x1000), (0x9_0000, 0x2000))
        guest.write(0x4_0010, b"\x11" * 16)
        guest.write(0x9_0100, b"\x22" * 64)
        assert store.read(0x4_0010, 16) == b"\x11" * 16
        assert store.read(0x9_0100, 64) == b"\x22" * 64
        assert guest.read(0x9_0100, 64) == b"\x22" * 64
        with pytest.raises(TranslationFault):
            guest.read(0x5_0000, 16)         # the gap between grants


class TestVirtualizedStore:
    """The store-compatible surface of the guest view."""

    GRANT = (0x10_0000, 0x2000)

    def test_reads_and_writes_land_in_the_host_window(self):
        store, guest = guest_view(self.GRANT)
        guest.write(0x10_0100, b"tenant-data")
        assert store.read(0x10_0100, 11) == b"tenant-data"
        assert guest.read(0x10_0100, 11) == b"tenant-data"

    def test_fill_pattern_translates(self):
        store, guest = guest_view(self.GRANT)
        guest.fill_pattern(0x10_0000, 64, seed=7)
        reference = MemoryStore(size=1 << 24)
        reference.fill_pattern(0x10_0000, 64, seed=7)
        assert guest.read(0x10_0000, 64) == store.read(0x10_0000, 64)
        assert store.read(0x10_0000, 64) == reference.read(0x10_0000, 64)


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
