"""Unit/integration tests for the hypervisor layer."""

import pytest

from repro.hyperconnect.regs import (
    REGION_BASE_REG,
    region_epoch_register,
    region_register,
)
from repro.hypervisor import (
    HYPERCONNECT_CTRL_BASE,
    AccessControl,
    AccessViolation,
    Criticality,
    Domain,
    Hypervisor,
    MemoryRegion,
    SystemIntegrator,
)
from repro.ipxact import accelerator_component
from repro.masters import AxiDma, GreedyTrafficGenerator
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem

from conftest import drain


def booted_system(n_ports=2, shares=None):
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048)
    hypervisor = Hypervisor(soc.interconnect)
    hypervisor.create_domain("crit", Criticality.HIGH,
                             bandwidth_share=(shares or {}).get("crit"))
    hypervisor.create_domain("best", Criticality.LOW,
                             bandwidth_share=(shares or {}).get("best"))
    integrator = SystemIntegrator(ZCU102)
    integrator.add_accelerator(accelerator_component("dnn"), "crit")
    integrator.add_accelerator(accelerator_component("dma"), "best")
    design = integrator.integrate()
    hypervisor.boot(design)
    return soc, hypervisor, design


class TestDomains:
    def test_region_overlap_rejected(self):
        domain = Domain("d")
        domain.add_region(0x1000, 0x1000)
        with pytest.raises(ConfigurationError):
            domain.add_region(0x1800, 0x100)

    def test_may_access(self):
        domain = Domain("d")
        domain.add_region(0x1000, 0x1000)
        assert domain.may_access(0x1800, 16)
        assert not domain.may_access(0x2000, 1)
        assert not domain.may_access(0xFFF, 2)

    def test_invalid_region(self):
        with pytest.raises(ConfigurationError):
            MemoryRegion(0, 0)

    def test_duplicate_domain_rejected(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        hypervisor = Hypervisor(soc.interconnect)
        hypervisor.create_domain("a")
        with pytest.raises(ConfigurationError):
            hypervisor.create_domain("a")


class TestAccessControl:
    def window(self):
        return MemoryRegion(0xA000_0000, 0x1000)

    def test_granted_access_passes(self):
        control = AccessControl(self.window())
        domain = Domain("d")
        control.grant(domain, MemoryRegion(0x8000_0000, 0x1000))
        control.check(domain, 0x8000_0100, 4)

    def test_ungranted_access_denied_and_recorded(self):
        control = AccessControl(self.window())
        domain = Domain("d")
        with pytest.raises(AccessViolation):
            control.check(domain, 0x9000_0000, 4)
        assert len(control.violations) == 1
        assert control.violations[0].domain == "d"

    def test_hyperconnect_window_always_denied(self):
        control = AccessControl(self.window())
        domain = Domain("d")
        with pytest.raises(AccessViolation):
            control.check(domain, 0xA000_0004, 4)

    def test_grant_overlapping_window_rejected(self):
        control = AccessControl(self.window())
        with pytest.raises(AccessViolation):
            control.grant(Domain("d"), MemoryRegion(0xA000_0800, 0x1000))

    def test_hypervisor_window_covers_the_whole_register_map(self):
        """The region-grant and region-epoch apertures sit 4 and 8 KiB
        into the control window; guests reach neither."""
        soc = SocSystem.build(ZCU102, n_ports=2)
        hypervisor = Hypervisor(soc.interconnect)
        domain = hypervisor.create_domain("guest")
        with pytest.raises(AccessViolation):
            hypervisor.access.grant(domain, MemoryRegion(
                HYPERCONNECT_CTRL_BASE + 0x1000, 0x1000))
        for offset in (region_register(1, REGION_BASE_REG),
                       region_epoch_register(1)):
            with pytest.raises(AccessViolation, match="hypervisor-only"):
                hypervisor.guest_access("guest",
                                        HYPERCONNECT_CTRL_BASE + offset)


class TestBootFlow:
    def test_boot_binds_ports_and_irqs(self):
        soc, hypervisor, design = booted_system()
        assert hypervisor.ports_of("crit") == [0]
        assert hypervisor.ports_of("best") == [1]

    def test_tampered_design_refused(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        hypervisor = Hypervisor(soc.interconnect)
        hypervisor.create_domain("crit")
        integrator = SystemIntegrator(ZCU102)
        integrator.add_accelerator(accelerator_component("dnn"), "crit")
        design = integrator.integrate()
        design.accelerators[0] = design.accelerators[0]  # no-op
        design.signature = "forged"
        with pytest.raises(ConfigurationError):
            hypervisor.boot(design)

    def test_port_count_mismatch_refused(self):
        soc = SocSystem.build(ZCU102, n_ports=3)
        hypervisor = Hypervisor(soc.interconnect)
        hypervisor.create_domain("crit")
        integrator = SystemIntegrator(ZCU102)
        integrator.add_accelerator(accelerator_component("dnn"), "crit")
        design = integrator.integrate()   # 1 port != 3
        with pytest.raises(ConfigurationError):
            hypervisor.boot(design)

    def test_smartconnect_cannot_host_hypervisor(self):
        soc = SocSystem.build(ZCU102, interconnect="smartconnect",
                              n_ports=2)
        with pytest.raises(ConfigurationError):
            Hypervisor(soc.interconnect)

    def test_static_shares_applied_at_boot(self):
        soc, hypervisor, __ = booted_system(
            shares={"crit": 0.7, "best": 0.3})
        crit_budget = soc.interconnect.configs[0].budget
        best_budget = soc.interconnect.configs[1].budget
        assert crit_budget is not None and best_budget is not None
        assert crit_budget > best_budget


class TestRuntimePolicies:
    def test_isolation_decouples_all_domain_ports(self):
        soc, hypervisor, __ = booted_system()
        hypervisor.isolate_domain("best")
        assert not soc.driver.is_coupled(1)
        assert soc.driver.is_coupled(0)
        for port in hypervisor.domain("best").ports:
            assert not hypervisor.driver.is_coupled(port)
        hypervisor.restore_domain("best")
        assert soc.driver.is_coupled(1)

    def test_isolated_misbehaving_domain_stops_interfering(self):
        soc, hypervisor, __ = booted_system()
        victim = AxiDma(soc.sim, "victim", soc.port(0))
        rogue = GreedyTrafficGenerator(soc.sim, "rogue", soc.port(1),
                                       job_bytes=4096, depth=4)
        soc.sim.run(50_000)
        hypervisor.isolate_domain("best")
        before = rogue.bytes_read
        victim.enqueue_read(0x0, 65536)
        drain(soc)
        assert rogue.bytes_read - before <= 4096 * 4  # only in-flight work

    def test_bandwidth_policy_requires_bound_ports(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        hypervisor = Hypervisor(soc.interconnect)
        hypervisor.create_domain("ghost")
        with pytest.raises(ConfigurationError):
            hypervisor.apply_bandwidth_policy({"ghost": 0.5})

    def test_guest_cannot_touch_hyperconnect(self):
        soc, hypervisor, __ = booted_system()
        with pytest.raises(AccessViolation):
            hypervisor.guest_configure_hyperconnect("best")
        assert hypervisor.access.violations

    def test_unknown_domain_rejected(self):
        soc, hypervisor, __ = booted_system()
        with pytest.raises(ConfigurationError):
            hypervisor.domain("nope")


class TestInterrupts:
    def test_completion_interrupt_routed_to_owner(self):
        soc, hypervisor, __ = booted_system()
        dma = AxiDma(soc.sim, "dma", soc.port(1))
        hypervisor.attach_accelerator("best", 1, dma)
        dma.enqueue_read(0x1000, 256)
        drain(soc)
        pending = hypervisor.interrupts.pending("best")
        assert len(pending) == 1
        assert pending[0].source == "dma"
        assert not hypervisor.interrupts.pending("crit")

    def test_attach_to_foreign_port_denied(self):
        soc, hypervisor, __ = booted_system()
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        with pytest.raises(AccessViolation):
            hypervisor.attach_accelerator("best", 0, dma)

    def test_spurious_interrupts_counted(self):
        soc, hypervisor, __ = booted_system()
        hypervisor.interrupts.raise_irq(99, "ghost", 0)
        assert hypervisor.interrupts.spurious == 1
