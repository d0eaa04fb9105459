"""Unit tests for the register file, control slave, and driver."""

import pytest

from repro.axi import AxiLink, Resp, WriteBeat, \
    make_read_request, make_write_request
from repro.hyperconnect import (
    BUDGET_UNLIMITED,
    ControlSlave,
    HyperConnectDriver,
    RegisterAccessError,
    RegisterFile,
    port_register,
)
from repro.hyperconnect.regs import (
    HYPERCONNECT_CTRL_BASE,
    PORT_BUDGET,
    PORT_CTRL,
    PORT_ISSUED_READ,
    PORT_NOMINAL_BURST,
    REG_CTRL,
    REG_N_PORTS,
    REG_PERIOD,
    REG_VERSION,
)
from repro.platforms import ZCU102
from repro.sim import ConfigurationError, Simulator
from repro.system import SocSystem


class TestRegisterFile:
    def test_defaults(self):
        regs = RegisterFile(2)
        assert regs.read(REG_N_PORTS) == 2
        assert regs.read(REG_CTRL) & 1
        assert regs.read(port_register(0, PORT_NOMINAL_BURST)) == 16
        assert regs.read(port_register(1, PORT_BUDGET)) == BUDGET_UNLIMITED

    def test_write_and_read_back(self):
        regs = RegisterFile(1)
        regs.write(REG_PERIOD, 4096)
        assert regs.read(REG_PERIOD) == 4096
        assert regs.period == 4096

    def test_read_only_enforced(self):
        regs = RegisterFile(1)
        with pytest.raises(RegisterAccessError):
            regs.write(REG_N_PORTS, 5)
        with pytest.raises(RegisterAccessError):
            regs.write(REG_VERSION, 0)
        with pytest.raises(RegisterAccessError):
            regs.write(port_register(0, PORT_ISSUED_READ), 0)

    def test_unmapped_offsets_raise(self):
        regs = RegisterFile(1)
        with pytest.raises(RegisterAccessError):
            regs.read(0xFFC)
        with pytest.raises(RegisterAccessError):
            regs.write(0xFFC, 1)

    def test_write_callback_fires(self):
        regs = RegisterFile(1)
        calls = []
        regs.on_write(lambda offset, value: calls.append((offset, value)))
        regs.write(REG_PERIOD, 100)
        assert calls == [(REG_PERIOD, 100)]

    def test_values_masked_to_32_bits(self):
        regs = RegisterFile(1)
        regs.write(REG_PERIOD, 0x1_0000_0001)
        assert regs.read(REG_PERIOD) == 1

    def test_provider_backs_reads(self):
        regs = RegisterFile(1)
        counter = {"n": 7}
        regs.provide(port_register(0, PORT_ISSUED_READ),
                     lambda: counter["n"])
        assert regs.read(port_register(0, PORT_ISSUED_READ)) == 7
        counter["n"] = 9
        assert regs.read(port_register(0, PORT_ISSUED_READ)) == 9

    def test_invalid_port_count(self):
        with pytest.raises(ConfigurationError):
            RegisterFile(0)


class TestControlSlave:
    BASE = HYPERCONNECT_CTRL_BASE

    def build(self):
        sim = Simulator("ctrl")
        link = AxiLink(sim, "ctrl-link", data_bytes=16)
        regs = RegisterFile(2)
        slave = ControlSlave(sim, "slave", link, regs)
        return sim, link, regs

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
        sim.run(5)
        assert beats[-1].resp is Resp.SLVERR


class TestDriver:
    def test_driver_over_hyperconnect(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        driver = soc.driver
        assert driver.n_ports == 2
        driver.set_period(8192)
        assert driver.period == 8192

    def test_driver_over_raw_register_file(self):
        regs = RegisterFile(3)
        driver = HyperConnectDriver(regs)
        assert driver.n_ports == 3
        driver.set_nominal_burst(2, 32)
        assert regs.read(port_register(2, PORT_NOMINAL_BURST)) == 32

    def test_driver_rejects_other_targets(self):
        with pytest.raises(ConfigurationError):
            HyperConnectDriver(object())

    def test_port_range_checked(self):
        driver = HyperConnectDriver(RegisterFile(2))
        with pytest.raises(ConfigurationError):
            driver.decouple(5)

    def test_couple_decouple(self):
        driver = HyperConnectDriver(RegisterFile(2))
        assert driver.is_coupled(0)
        driver.decouple(0)
        assert not driver.is_coupled(0)
        driver.couple(0)
        assert driver.is_coupled(0)

    def test_budget_none_means_unlimited(self):
        regs = RegisterFile(1)
        driver = HyperConnectDriver(regs)
        driver.set_budget(0, 100)
        assert regs.read(port_register(0, PORT_BUDGET)) == 100
        driver.set_budget(0, None)
        assert regs.read(port_register(0, PORT_BUDGET)) == BUDGET_UNLIMITED

    def test_budget_for_share(self):
        driver = HyperConnectDriver(RegisterFile(1))
        driver.set_period(1600)
        assert driver.budget_for_share(0.5, nominal_burst=16) == 50
        assert driver.budget_for_share(0.001, nominal_burst=16) == 1  # floor

    def test_set_bandwidth_shares(self):
        regs = RegisterFile(2)
        driver = HyperConnectDriver(regs)
        budgets = driver.set_bandwidth_shares({0: 0.7, 1: 0.3},
                                              period=1600)
        assert budgets[0] == 70 and budgets[1] == 30
        assert regs.read(port_register(0, PORT_BUDGET)) == 70

    def test_shares_over_one_rejected(self):
        driver = HyperConnectDriver(RegisterFile(2))
        with pytest.raises(ConfigurationError):
            driver.set_bandwidth_shares({0: 0.8, 1: 0.5})

    def test_enable_disable_roundtrip(self):
        regs = RegisterFile(1)
        driver = HyperConnectDriver(regs)
        driver.disable()
        assert not regs.enabled
        driver.enable()
        assert regs.enabled

    def test_issued_counters_via_driver(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        from repro.masters import AxiDma
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        dma.enqueue_read(0x1000, 512)
        soc.run_until_quiescent()
        counts = soc.driver.issued(0)
        assert counts["read"] == 2   # 512 B = 2 sub-transactions of 16 beats
        assert counts["write"] == 0
