"""Unit tests for the register file, control slave, and driver."""

import pytest

from repro.axi import AxiLink, Resp, WriteBeat, \
    make_read_request, make_write_request
from repro.hyperconnect import (
    BUDGET_UNLIMITED,
    ControlSlave,
    HyperConnect,
    HyperConnectDriver,
    RegisterAccessError,
    port_register,
)
from repro.hyperconnect.regs import (
    HYPERCONNECT_CTRL_BASE,
    MAX_PORTS,
    PORT_BUDGET,
    PORT_CTRL,
    PORT_FAULTS,
    PORT_ISSUED_READ,
    PORT_ISSUED_WRITE,
    PORT_MAX_OUTSTANDING,
    PORT_NOMINAL_BURST,
    REG_CTRL,
    REG_N_PORTS,
    REG_PERIOD,
    REG_VERSION,
    region_epoch_register,
)
from repro.masters import AxiDma
from repro.memory import FaultInjectingMemory, MemorySubsystem
from repro.platforms import ZCU102
from repro.sim import ConfigurationError, Simulator
from repro.system import SocSystem


def hyperconnect(n_ports, memory=MemorySubsystem, **memory_kwargs):
    """A bare IP over a DRAM slave; its ``regs`` is the register file."""
    sim = Simulator("regs", clock_hz=ZCU102.pl_clock_hz)
    master = AxiLink(sim, "master", data_bytes=16)
    memory(sim, "mem", master, timing=ZCU102.dram, **memory_kwargs)
    return HyperConnect(sim, "hc", n_ports, master)


class TestRegisterFile:
    def test_defaults(self):
        regs = hyperconnect(2).regs
        assert regs.read(REG_N_PORTS) == 2
        assert regs.read(REG_CTRL) & 1
        assert regs.read(port_register(0, PORT_NOMINAL_BURST)) == 16
        assert regs.read(port_register(1, PORT_BUDGET)) == BUDGET_UNLIMITED

    def test_write_and_read_back(self):
        hc = hyperconnect(1)
        hc.regs.write(REG_PERIOD, 4096)
        assert hc.regs.read(REG_PERIOD) == 4096
        assert hc.central.period == 4096

    def test_read_only_enforced(self):
        regs = hyperconnect(1).regs
        with pytest.raises(RegisterAccessError):
            regs.write(REG_N_PORTS, 5)
        with pytest.raises(RegisterAccessError):
            regs.write(REG_VERSION, 0)
        with pytest.raises(RegisterAccessError):
            regs.write(port_register(0, PORT_ISSUED_READ), 0)

    def test_unmapped_offsets_raise(self):
        regs = hyperconnect(1).regs
        with pytest.raises(RegisterAccessError):
            regs.read(0xFFC)
        with pytest.raises(RegisterAccessError):
            regs.write(0xFFC, 1)

    def test_values_masked_to_32_bits(self):
        regs = hyperconnect(1).regs
        regs.write(REG_PERIOD, 0x1_0000_0001)
        assert regs.read(REG_PERIOD) == 1

    def test_invalid_port_count(self):
        with pytest.raises(ConfigurationError):
            hyperconnect(0)

    def test_reads_follow_the_live_state(self):
        """The registers are the IP's configuration: a 0 the hardware
        clamps reads back clamped, and every counter and gate register
        reads what the datapath did, watchdog containment included."""
        hc = hyperconnect(2, FaultInjectingMemory,
                          dead_after_beats=0, seed=1)
        regs = hc.regs
        for offset in (port_register(0, PORT_NOMINAL_BURST),
                       port_register(0, PORT_MAX_OUTSTANDING), REG_PERIOD):
            regs.write(offset, 0)
            assert regs.read(offset) == 1
        assert hc.configs[0].nominal_burst == 1
        assert hc.central.period == 1
        regs.write(REG_PERIOD, 4096)
        regs.write(port_register(0, PORT_NOMINAL_BURST), 16)
        driver = HyperConnectDriver(hc)
        driver.set_watchdog_timeout(0, 400)
        AxiDma(hc.sim, "dma", hc.port(0)).enqueue_read(0x1000_0000, 1024)
        hc.sim.run(1000)
        stats = hc.supervisors[0].fault_stats
        assert stats.trips == 1 and not hc.ports[0].coupled
        assert regs.read(port_register(0, PORT_CTRL)) == 0
        assert regs.read(port_register(0, PORT_FAULTS)) == stats.trips
        assert regs.read(port_register(0, PORT_ISSUED_READ)) == \
            hc.configs[0].issued_read > 0
        assert regs.read(port_register(0, PORT_ISSUED_WRITE)) == \
            hc.configs[0].issued_write == 0
        driver.set_region_filter(1, 0x4000, 0x4000)
        driver.clear_region_filter(1)
        assert regs.read(region_epoch_register(1)) == \
            hc.configs[1].region_epoch == 2
        assert regs.read(region_epoch_register(0)) == 0


class TestControlSlave:
    BASE = HYPERCONNECT_CTRL_BASE

    def build(self):
        hc = hyperconnect(2)
        link = AxiLink(hc.sim, "ctrl-link", data_bytes=16)
        ControlSlave(hc.sim, "slave", link, hc.regs)
        return hc.sim, link, hc.regs

    def read_register(self, sim, link, offset):
        link.ar.push(make_read_request(self.BASE + offset, 1, 4))
        beats = []
        link.r.subscribe_push(lambda cycle, beat: beats.append(beat))
        sim.run(5)
        assert beats
        return beats[-1]

    def write_register(self, sim, link, offset, value):
        link.aw.push(make_write_request(self.BASE + offset, 1, 4))
        link.w.push(WriteBeat(last=True, data=value.to_bytes(4, "little")))
        responses = []
        link.b.subscribe_push(lambda cycle, beat: responses.append(beat))
        sim.run(5)
        assert responses
        return responses[-1]

    def test_register_read_over_axi(self):
        sim, link, regs = self.build()
        beat = self.read_register(sim, link, REG_N_PORTS)
        assert beat.resp is Resp.OKAY
        assert int.from_bytes(beat.data, "little") == 2

    def test_register_write_over_axi(self):
        sim, link, regs = self.build()
        response = self.write_register(sim, link, REG_PERIOD, 1234)
        assert response.resp is Resp.OKAY
        assert regs.read(REG_PERIOD) == 1234

    def test_unmapped_read_decerr(self):
        sim, link, regs = self.build()
        beat = self.read_register(sim, link, 0xF00)
        assert beat.resp is Resp.DECERR

    def test_unmapped_write_decerr(self):
        sim, link, regs = self.build()
        response = self.write_register(sim, link, 0xF00, 1)
        assert response.resp is Resp.DECERR

    def test_read_only_write_decerr(self):
        sim, link, regs = self.build()
        response = self.write_register(sim, link, REG_VERSION, 1)
        assert response.resp is Resp.DECERR

    def test_burst_access_slverr(self):
        sim, link, regs = self.build()
        link.ar.push(make_read_request(self.BASE, 4, 4))
        beats = []
        link.r.subscribe_push(lambda cycle, beat: beats.append(beat))
        sim.run(10)
        assert len(beats) == 4
        assert all(beat.resp is Resp.SLVERR for beat in beats)
        assert [beat.last for beat in beats] == [False, False, False, True]

    def test_burst_write_swallows_its_beats(self):
        # the rejected burst's second W beat must not become the data
        # of the next, legal write
        sim, link, regs = self.build()
        responses = []
        link.b.subscribe_push(lambda cycle, beat: responses.append(beat))
        link.aw.push(make_write_request(self.BASE + REG_PERIOD, 2, 4))
        link.w.push(WriteBeat(last=False, data=(0x111).to_bytes(4, "little")))
        link.w.push(WriteBeat(last=True, data=(0x222).to_bytes(4, "little")))
        link.aw.push(make_write_request(self.BASE + REG_PERIOD, 1, 4))
        link.w.push(WriteBeat(last=True, data=(0x333).to_bytes(4, "little")))
        sim.run(10)
        assert [r.resp for r in responses] == [Resp.SLVERR, Resp.OKAY]
        assert regs.read(REG_PERIOD) == 0x333


class TestDriver:
    def test_driver_over_hyperconnect(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        driver = soc.driver
        assert driver.n_ports == 2
        driver.set_period(8192)
        assert driver.period == 8192

    def test_driver_rejects_other_targets(self):
        with pytest.raises(ConfigurationError):
            HyperConnectDriver(object())

    def test_port_range_checked(self):
        driver = HyperConnectDriver(hyperconnect(2))
        with pytest.raises(ConfigurationError):
            driver.decouple(5)

    def test_couple_decouple(self):
        driver = HyperConnectDriver(hyperconnect(2))
        assert driver.is_coupled(0)
        driver.decouple(0)
        assert not driver.is_coupled(0)
        driver.couple(0)
        assert driver.is_coupled(0)

    def test_budget_none_means_unlimited(self):
        hc = hyperconnect(1)
        regs = hc.regs
        driver = HyperConnectDriver(hc)
        driver.set_budget(0, 100)
        assert regs.read(port_register(0, PORT_BUDGET)) == 100
        driver.set_budget(0, None)
        assert regs.read(port_register(0, PORT_BUDGET)) == BUDGET_UNLIMITED

    def test_budget_for_share(self):
        driver = HyperConnectDriver(hyperconnect(1))
        driver.set_period(1600)
        assert driver.budget_for_share(0.5, nominal_burst=16) == 50
        assert driver.budget_for_share(0.001, nominal_burst=16) == 1  # floor

    def test_set_bandwidth_shares(self):
        hc = hyperconnect(2)
        regs = hc.regs
        driver = HyperConnectDriver(hc)
        budgets = driver.set_bandwidth_shares({0: 0.7, 1: 0.3},
                                              period=1600)
        assert budgets[0] == 70 and budgets[1] == 30
        assert regs.read(port_register(0, PORT_BUDGET)) == 70

    def test_shares_over_one_rejected(self):
        driver = HyperConnectDriver(hyperconnect(2))
        with pytest.raises(ConfigurationError):
            driver.set_bandwidth_shares({0: 0.8, 1: 0.5})

    def test_enable_disable_roundtrip(self):
        hc = hyperconnect(1)
        driver = HyperConnectDriver(hc)
        driver.disable()
        assert not hc.central.enabled
        driver.enable()
        assert hc.central.enabled

    def test_issued_counters_via_driver(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        from repro.masters import AxiDma
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        dma.enqueue_read(0x1000, 512)
        soc.run_until_quiescent()
        counts = soc.driver.issued(0)
        assert counts["read"] == 2   # 512 B = 2 sub-transactions of 16 beats
        assert counts["write"] == 0

    def test_port_count_capped_by_the_register_aperture(self):
        """Port 126's block would start at REGION_BASE: the 127th port's
        writes would retarget port 0's region filter."""
        assert MAX_PORTS == 126
        with pytest.raises(ConfigurationError):
            SocSystem.build(ZCU102, n_ports=MAX_PORTS + 1)
        soc = SocSystem.build(ZCU102, n_ports=MAX_PORTS)
        last = MAX_PORTS - 1
        soc.driver.decouple(last)
        assert not soc.interconnect.ports[last].coupled
        assert soc.driver.region_filter(0) is None
