"""Integration tests: the assembled HyperConnect inside a full system."""

import pytest

from repro.axi import LinkChecker, PropagationProbe
from repro.hyperconnect import HyperConnect
from repro.hyperconnect.regs import REG_PERIOD, PORT_NOMINAL_BURST, \
    port_register
from repro.masters import AxiDma, GreedyTrafficGenerator
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem

from conftest import drain


class TestLatencyStructure:
    """The paper's Fig. 3(a) latency budget, asserted exactly."""

    def probes(self, soc):
        return {
            "AR": PropagationProbe(soc.port(0).ar, soc.master_link.ar),
            "AW": PropagationProbe(soc.port(0).aw, soc.master_link.aw),
            "R": PropagationProbe(soc.master_link.r, soc.port(0).r),
            "B": PropagationProbe(soc.master_link.b, soc.port(0).b),
        }

    def test_address_channels_four_cycles(self, hc_soc):
        probes = self.probes(hc_soc)
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        dma.enqueue_read(0x0, 16)
        dma.enqueue_write(0x9000, 16)
        drain(hc_soc)
        assert probes["AR"].latency_max == 4
        assert probes["AW"].latency_max == 4

    def test_data_channels_two_cycles(self, hc_soc):
        probes = self.probes(hc_soc)
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        dma.enqueue_read(0x0, 256)
        dma.enqueue_write(0x9000, 256)
        drain(hc_soc)
        assert probes["R"].latency_max == 2
        assert probes["B"].latency_max == 2

    def test_w_channel_two_cycles_steady_state(self, hc_soc):
        probe = PropagationProbe(hc_soc.port(0).w, hc_soc.master_link.w)
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0), w_beat_gap=8)
        dma.enqueue_write(0x9000, 512)
        drain(hc_soc)
        assert probe.stats.minimum == 2


class TestProtocolTransparency:
    """'Completely transparent to both the HAs and the memory subsystem'."""

    def test_master_side_protocol_clean(self, hc_soc):
        checker = LinkChecker(hc_soc.master_link)
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0), burst_len=64)
        dma.enqueue_read(0x0, 8192)
        dma.enqueue_write(0x9000, 8192)
        drain(hc_soc)
        checker.assert_clean()

    def test_ha_side_protocol_clean(self, hc_soc):
        checker = LinkChecker(hc_soc.port(0))
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0), burst_len=64)
        dma.enqueue_read(0x0, 8192)
        dma.enqueue_write(0x9000, 8192)
        drain(hc_soc)
        checker.assert_clean()

    def test_end_to_end_data_integrity_through_split(self):
        soc = SocSystem.build(ZCU102, n_ports=2, with_store=True)
        soc.store.fill_pattern(0x1000, 4096, seed=9)
        dma = AxiDma(soc.sim, "dma", soc.port(0), burst_len=64,
                     collect_data=True)
        job = dma.enqueue_read(0x1000, 4096)
        drain(soc)
        assert bytes(job.result) == soc.store.read(0x1000, 4096)

    def test_write_data_integrity_through_split(self):
        soc = SocSystem.build(ZCU102, n_ports=2, with_store=True)
        payload = bytes((i * 13 + 5) & 0xFF for i in range(2048))
        dma = AxiDma(soc.sim, "dma", soc.port(0), burst_len=128)
        dma.enqueue_write(0x5000, 2048, data=payload)
        drain(soc)
        assert soc.store.read(0x5000, 2048) == payload


class TestRuntimeReconfiguration:
    def test_period_register_reaches_central_unit(self, hc_soc):
        hc_soc.driver.set_period(1234)
        assert hc_soc.interconnect.central.period == 1234
        assert hc_soc.driver.regs.read(REG_PERIOD) == 1234

    def test_nominal_burst_register_reaches_config(self, hc_soc):
        hc_soc.driver.set_nominal_burst(1, 32)
        assert hc_soc.interconnect.configs[1].nominal_burst == 32

    def test_nominal_burst_change_affects_splitting(self, hc_soc):
        hc_soc.driver.set_nominal_burst(0, 8)
        issued = []
        hc_soc.master_link.ar.subscribe_push(
            lambda cycle, beat: issued.append(beat.length))
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0), burst_len=16)
        dma.enqueue_read(0x0, 256)
        drain(hc_soc)
        assert issued == [8, 8]

    def test_budget_applies_at_next_recharge(self):
        soc = SocSystem.build(ZCU102, n_ports=2, period=1000)
        soc.driver.set_budget(0, 2)
        ts = soc.interconnect.supervisors[0]
        # not yet recharged: still unlimited from before
        assert ts.budget_remaining is None
        soc.sim.run(1001)
        assert ts.budget_remaining == 2

    def test_unlimited_budget_applies_immediately(self):
        soc = SocSystem.build(ZCU102, n_ports=2, period=100000)
        soc.driver.set_budget(0, 2)
        soc.sim.run(100001)
        soc.driver.set_budget(0, None)
        assert soc.interconnect.supervisors[0].budget_remaining is None

    def test_global_disable_freezes_forwarding(self, hc_soc):
        hc_soc.driver.disable()
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        job = dma.enqueue_read(0x0, 256)
        hc_soc.sim.run(5000)
        assert job.completed is None
        hc_soc.driver.enable()
        drain(hc_soc)
        assert job.completed is not None

    def test_synchronous_recharge_hits_all_ports(self):
        soc = SocSystem.build(ZCU102, n_ports=3, period=500)
        for port in range(3):
            soc.driver.set_budget(port, 5)
        soc.sim.run(501)
        assert all(ts.budget_remaining == 5
                   for ts in soc.interconnect.supervisors)
        assert soc.interconnect.central.recharges >= 1


class TestReservationEndToEnd:
    @pytest.mark.parametrize("share_a, share_b", [(0.9, 0.1), (0.7, 0.3),
                                                  (0.5, 0.5)])
    def test_bandwidth_split_matches_configuration(self, share_a, share_b):
        soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
        a = GreedyTrafficGenerator(soc.sim, "a", soc.port(0),
                                   job_bytes=4096, depth=4)
        b = GreedyTrafficGenerator(soc.sim, "b", soc.port(1),
                                   job_bytes=4096, depth=4)
        soc.driver.set_bandwidth_shares({0: share_a, 1: share_b})
        soc.sim.run(200_000)
        total = a.bytes_read + b.bytes_read
        assert a.bytes_read / total == pytest.approx(share_a, abs=0.03)
        assert b.bytes_read / total == pytest.approx(share_b, abs=0.03)

    def test_budget_never_exceeded_within_any_period(self):
        period = 1024
        soc = SocSystem.build(ZCU102, n_ports=2, period=period)
        GreedyTrafficGenerator(soc.sim, "a", soc.port(0), job_bytes=4096,
                               depth=4)
        soc.driver.set_budget(0, 8)
        grant_cycles = []
        soc.master_link.ar.subscribe_push(
            lambda cycle, beat: grant_cycles.append(cycle))
        soc.sim.run(20 * period)
        # skip the first period (budget not yet active), then count
        # issues inside each full period window
        for start in range(period, 19 * period, period):
            issued = sum(1 for cycle in grant_cycles
                         if start <= cycle < start + period)
            assert issued <= 8 + 1  # +1 for a grant in flight at the edge

    def test_unreserved_port_takes_leftover_bandwidth(self):
        soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
        limited = GreedyTrafficGenerator(soc.sim, "lim", soc.port(0),
                                         job_bytes=4096, depth=4)
        free = GreedyTrafficGenerator(soc.sim, "free", soc.port(1),
                                      job_bytes=4096, depth=4)
        soc.driver.set_budget(0, 16)   # 16 txns * 16 beats / 2048 = 12.5%
        soc.sim.run(200_000)
        total = limited.bytes_read + free.bytes_read
        assert free.bytes_read / total > 0.8


class TestConstruction:
    def test_zero_ports_rejected(self, sim):
        from repro.axi import AxiLink
        master = AxiLink(sim, "m")
        with pytest.raises(ConfigurationError):
            HyperConnect(sim, "hc", 0, master)

    def test_ports_take_the_master_link_geometry(self, sim):
        from repro.axi import AxiLink, AxiVersion
        master = AxiLink(sim, "m", data_bytes=8, version=AxiVersion.AXI3)
        hc = HyperConnect(sim, "hc", 2, master)
        for link in hc.ports:
            assert link.data_bytes == 8
            assert link.version is AxiVersion.AXI3

    def test_control_interface_attachment(self, hc_soc):
        from repro.axi import AxiLink
        link = AxiLink(hc_soc.sim, "ctrl")
        slave = hc_soc.interconnect.attach_control_interface(link)
        assert hc_soc.interconnect.control_slave is slave
