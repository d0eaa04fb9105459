"""Tests for the SocSystem builder and the platform records."""

import pytest

from repro.hyperconnect import HyperConnect
from repro.masters import AxiDma
from repro.platforms import PLATFORMS, ZCU102, ZYNQ_7020
from repro.sim import ConfigurationError
from repro.smartconnect import OUTPUT_STAGE_LATENCY, SmartConnect
from repro.system import SocSystem
from repro.verify import PortPlan, Scenario, build_system


class TestBuilder:
    def test_build_hyperconnect_system(self):
        soc = SocSystem.build(ZCU102, interconnect="hyperconnect",
                              n_ports=3)
        assert isinstance(soc.interconnect, HyperConnect)
        assert soc.driver is not None
        assert len(soc.interconnect.ports) == 3

    def test_build_smartconnect_system(self):
        soc = SocSystem.build(ZCU102, interconnect="smartconnect",
                              n_ports=2)
        assert isinstance(soc.interconnect, SmartConnect)
        assert soc.driver is None

    def test_unknown_interconnect_rejected(self):
        with pytest.raises(ConfigurationError):
            SocSystem.build(ZCU102, interconnect="axi-interconnect")

    def test_clock_comes_from_platform(self):
        soc = SocSystem.build(ZYNQ_7020)
        assert soc.sim.clock_hz == ZYNQ_7020.pl_clock_hz

    def test_bus_width_comes_from_platform(self):
        soc = SocSystem.build(ZYNQ_7020)
        assert soc.master_link.data_bytes == 8
        assert soc.port(0).data_bytes == 8

    def test_store_only_when_requested(self):
        assert SocSystem.build(ZCU102).store is None
        assert SocSystem.build(ZCU102, with_store=True).store is not None

    def test_period_applied(self):
        soc = SocSystem.build(ZCU102, period=4096)
        assert soc.interconnect.central.period == 4096

    def test_run_until_quiescent_drains_traffic(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        dma.enqueue_read(0x0, 4096)
        elapsed = soc.run_until_quiescent()
        assert elapsed > 0
        assert soc.interconnect.idle()
        assert soc.memory.idle()

    def test_quiescent_on_empty_system(self):
        soc = SocSystem.build(ZCU102)
        assert soc.run_until_quiescent() >= 0


def _verify_build(family, fabric="hyperconnect"):
    ports = tuple(PortPlan(jobs=(("read", 0x100_0000 * (i + 1), 256),))
                  for i in range(3))
    system = build_system(Scenario(family=family, ports=ports,
                                   fabric=fabric), fast=False)
    return system.sim, system.fabrics, system.memory.timing


def _soc_build(interconnect):
    soc = SocSystem.build(interconnect=interconnect)
    return soc.sim, [soc.interconnect], soc.memory.timing


@pytest.mark.parametrize("build, smartconnects", [
    (lambda: _verify_build("flat"), 0),
    (lambda: _verify_build("flat", "smartconnect"), 1),
    (lambda: _verify_build("cascade"), 0),
    (lambda: _verify_build("multiport"), 0),
    (lambda: _verify_build("multiport", "mixed"), 1),
    (lambda: _soc_build("smartconnect"), 1),
], ids=("flat-hc", "flat-sc", "cascade", "multiport", "mixed", "soc-sc"))
def test_every_build_runs_on_the_paper_platform(build, smartconnects):
    """The oracles and the paper figures share ZCU102: its PL clock, its
    128-bit HP port and its DRAM timing; every SmartConnect's master
    link carries the IP's output stage."""
    sim, fabrics, timing = build()
    assert sim.clock_hz == ZCU102.pl_clock_hz
    assert {fabric.master_link.data_bytes for fabric in fabrics} == {
        ZCU102.hp_data_bytes}
    assert timing == ZCU102.dram
    output_stages = [
        dict(zip(("AR", "AW", "W", "R", "B"),
                 (channel.latency for channel in fabric.master_link.channels)))
        for fabric in fabrics if isinstance(fabric, SmartConnect)]
    assert output_stages == [OUTPUT_STAGE_LATENCY] * smartconnects


class TestPlatforms:
    def test_registry(self):
        assert PLATFORMS["ZCU102"] is ZCU102
        assert PLATFORMS["Zynq-7020"] is ZYNQ_7020

    def test_zcu102_totals_match_table_denominators(self):
        assert ZCU102.resources.lut == 274_080
        assert ZCU102.resources.ff == 548_160

    def test_peak_bandwidth(self):
        assert ZCU102.peak_bandwidth_bytes_per_s == pytest.approx(
            150e6 * 16)

    def test_cycles_to_seconds(self):
        assert ZCU102.cycles_to_seconds(150_000_000) == pytest.approx(1.0)

    def test_platform_dram_latencies_positive(self):
        for platform in PLATFORMS.values():
            assert platform.dram.read_latency >= 1
            assert platform.dram.write_latency >= 1
