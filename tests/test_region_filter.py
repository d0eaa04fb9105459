"""Unit tests for the per-port region filter (data-plane stage-2 guard).

The hypervisor programs each tenant port's granted region into a pair of
registers; the Transaction Supervisor checks every request's burst
footprint against the grant at ingest and trips containment (DECERR)
when traffic leaves it.  This is the hardware-cheap first line of the
tenant-isolation story — it must fire exactly when a footprint leaves
the grant, count as a protocol trip (the fingerprint-pinned counter),
and stay completely inert when disabled.
"""

import pytest

from repro.axi import Transaction, make_read_request, make_write_request
from repro.hyperconnect import EFifoLink, PortConfig, TransactionSupervisor
from repro.hyperconnect.regs import (
    REGION_BASE_REG,
    REGION_GRANULE,
    REGION_PAGES_REG,
    region_register,
)
from repro.masters import AxiDma
from repro.sim import Channel, ConfigurationError, Simulator
from repro.system import SocSystem
from repro.platforms import ZCU102


def build(config=None):
    sim = Simulator("region-test")
    link = EFifoLink(sim, "p0")
    out_ar = Channel(sim, "ts.AR", 1, None)
    out_aw = Channel(sim, "ts.AW", 1, None)
    ts = TransactionSupervisor(sim, "TS0", 0, link, out_ar, out_aw,
                               config or PortConfig())
    return sim, link, out_ar, out_aw, ts


def read_request(address=0, length=16):
    txn = Transaction("read", "m", address, length, 16)
    return make_read_request(txn, 0)


def write_request(address=0, length=16):
    txn = Transaction("write", "m", address, length, 16)
    return make_write_request(txn, 0)


GRANT = PortConfig(region_base=0x4000, region_bytes=0x4000)


class TestSupervisorRegionCheck:
    def test_in_grant_traffic_passes(self):
        sim, link, out_ar, __, ts = build(GRANT)
        link.ar.push(read_request(address=0x4000, length=16))
        sim.run(4)
        assert len(out_ar.drain()) == 1
        assert not ts.faulted
        assert ts.fault_stats.protocol_trips == 0

    def test_read_below_grant_trips_containment(self):
        sim, link, out_ar, __, ts = build(GRANT)
        link.ar.push(read_request(address=0x1000, length=4))
        sim.run(4)
        assert ts.faulted
        assert ts.fault_stats.protocol_trips == 1
        assert not out_ar.drain()                # nothing forwarded

    def test_write_above_grant_trips_containment(self):
        sim, link, __, out_aw, ts = build(GRANT)
        link.aw.push(write_request(address=0x9000, length=4))
        sim.run(4)
        assert ts.faulted
        assert not out_aw.drain()

    def test_footprint_straddling_the_grant_edge_trips(self):
        sim, link, out_ar, __, ts = build(GRANT)
        # starts inside, but 16 beats x 16 bytes ends past 0x8000
        link.ar.push(read_request(address=0x7F80, length=16))
        sim.run(4)
        assert ts.faulted

    def test_footprint_ending_exactly_at_the_edge_passes(self):
        sim, link, out_ar, __, ts = build(GRANT)
        link.ar.push(read_request(address=0x7F00, length=16))
        sim.run(4)
        assert not ts.faulted
        assert len(out_ar.drain()) == 1

    def test_trip_event_kind_is_region_violation(self):
        sim, link, __, __, ts = build(GRANT)
        link.ar.push(read_request(address=0x0, length=4))
        sim.run(4)
        faults = [e for e in sim.events.as_dicts()
                  if e["event"] == "port_fault"]
        assert len(faults) == 1
        assert faults[0]["kind"] == "region_violation"
        assert "outside granted region" in faults[0]["detail"]

    def test_filter_is_independent_of_the_watchdog(self):
        # grants are armed even on ports the hypervisor does not
        # watchdog: timeout None must not disable the region check
        config = PortConfig(region_base=0x4000, region_bytes=0x4000,
                            timeout_cycles=None)
        sim, link, __, __, ts = build(config)
        link.ar.push(read_request(address=0x0, length=4))
        sim.run(4)
        assert ts.faulted

    def test_disabled_filter_passes_everything(self):
        sim, link, out_ar, __, ts = build(PortConfig())
        link.ar.push(read_request(address=0xdead_0000, length=16))
        sim.run(4)
        assert not ts.faulted
        assert len(out_ar.drain()) == 1

    def test_negative_region_rejected(self):
        with pytest.raises(ConfigurationError):
            PortConfig(region_base=-1).validate()
        with pytest.raises(ConfigurationError):
            PortConfig(region_bytes=-4096).validate()


class TestDriverRegionRegisters:
    def soc(self):
        return SocSystem.build(ZCU102, n_ports=2, period=2048)

    def test_round_trip_through_the_register_file(self):
        soc = self.soc()
        driver = soc.driver
        driver.set_region_filter(0, 0x2_0000, 0x1_0000)
        assert driver.region_filter(0) == {"base": 0x2_0000,
                                           "size": 0x1_0000}
        # the register file holds page numbers, not byte addresses
        regs = soc.interconnect.regs
        assert regs.read(region_register(0, REGION_BASE_REG)) == \
            0x2_0000 // REGION_GRANULE
        assert regs.read(region_register(0, REGION_PAGES_REG)) == \
            0x1_0000 // REGION_GRANULE

    def test_register_write_lands_in_the_port_config(self):
        soc = self.soc()
        soc.driver.set_region_filter(1, 0x4000, 0x8000)
        config = soc.interconnect.supervisors[1].config
        assert config.region_base == 0x4000
        assert config.region_bytes == 0x8000

    def test_clear_disables_the_filter(self):
        soc = self.soc()
        soc.driver.set_region_filter(0, 0x4000, 0x4000)
        soc.driver.clear_region_filter(0)
        assert soc.driver.region_filter(0) is None
        assert soc.interconnect.supervisors[0].config.region_bytes == 0

    def test_per_port_blocks_are_disjoint(self):
        soc = self.soc()
        soc.driver.set_region_filter(0, 0x4000, 0x4000)
        assert soc.driver.region_filter(1) is None

    def test_unaligned_grant_rejected(self):
        soc = self.soc()
        with pytest.raises(ConfigurationError):
            soc.driver.set_region_filter(0, 0x100, 0x4000)
        with pytest.raises(ConfigurationError):
            soc.driver.set_region_filter(0, 0x4000, 0x4100)

    def test_negative_grant_rejected(self):
        soc = self.soc()
        with pytest.raises(ConfigurationError):
            soc.driver.set_region_filter(0, -4096, 4096)


def _reprogram_run(fast):
    """Build-run-reprogram-run on one kernel path; return observables.

    Three filtered ports stream traffic; mid-run the driver widens
    port 0's grant (its next job targets the newly legal range) and
    narrows port 2's (its next job now trips the filter).  The returned
    tuple must be bit-identical on both kernel paths — the retarget is
    part of the simulated state machine, not a test-bench side effect.
    """
    soc = SocSystem.build(ZCU102, n_ports=3, period=2048, fast=fast)
    engines = [AxiDma(soc.sim, f"ha{i}", soc.port(i)) for i in range(3)]
    for port in range(3):
        soc.driver.set_region_filter(port, port * 0x8000, 0x8000)
        engines[port].enqueue_write(port * 0x8000, 1024)
        engines[port].enqueue_read(port * 0x8000 + 0x1000, 1024)
    soc.sim.run(400)
    # live retarget: port 0 widens onto [0, 0x10000), port 2 shrinks to
    # its first page only
    soc.driver.set_region_filter(0, 0x0, 0x10000)
    soc.driver.set_region_filter(2, 2 * 0x8000, REGION_GRANULE)
    engines[0].enqueue_read(0x8000 + 0x2000, 512)   # legal only now
    engines[2].enqueue_read(2 * 0x8000 + 0x4000, 512)  # now out of grant
    soc.sim.run(3000)
    supervisors = soc.interconnect.supervisors
    return (
        tuple((e.bytes_read, e.bytes_written, len(e.jobs_completed),
               e.error_responses, e.outstanding) for e in engines),
        tuple(tuple(sorted(s.fault_stats.as_dict().items()))
              for s in supervisors),
        tuple(tuple(sorted(d.items())) for d in soc.sim.events.as_dicts()),
        soc.sim.now,
    )


class TestMidRunReprogramEquivalence:
    """Mid-run filter retargeting must agree across both kernel paths."""

    def test_reference_run_shape(self):
        engines, stats, events, __ = _reprogram_run(fast=False)
        # port 0's widened grant admits the late read error-free
        assert engines[0][3] == 0
        assert engines[0][2] == 3
        # port 2's narrowed grant trips on the late read
        faults = [dict(e) for e in events
                  if dict(e).get("event") == "port_fault"]
        assert any(f["port"] == 2 and f["kind"] == "region_violation"
                   for f in faults)
        assert not any(f["port"] != 2 for f in faults)

    def test_fast_path_matches_reference(self):
        assert _reprogram_run(fast=True) == _reprogram_run(fast=False)
