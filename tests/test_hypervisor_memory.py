"""Hypervisor memory virtualization: grants, stage-2, audit bounds.

The hypervisor-side half of the tenant-isolation tentpole: a buddy
allocator carves the DRAM store into region grants, each domain gets a
sparse stage-2 table plus a confined :class:`VirtualizedStore` view, and
the data-plane region filters are armed/cleared as grants come and go.
"""

import pytest

from repro.hypervisor import (
    AccessControl,
    AccessViolation,
    Criticality,
    Domain,
    Hypervisor,
    MemoryRegion,
    SystemIntegrator,
)
from repro.ipxact import accelerator_component
from repro.masters import AxiDma
from repro.memory import MemoryStore, TranslationFault
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem


def booted(n_ports=2, fast=False):
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048, fast=fast)
    hypervisor = Hypervisor(soc.interconnect)
    hypervisor.create_domain("crit", Criticality.HIGH)
    hypervisor.create_domain("best", Criticality.LOW)
    integrator = SystemIntegrator(ZCU102)
    integrator.add_accelerator(accelerator_component("dnn"), "crit")
    integrator.add_accelerator(accelerator_component("dma"), "best")
    hypervisor.boot(integrator.integrate())
    return soc, hypervisor


class TestAttachAndGrant:
    def test_grant_requires_attached_memory(self):
        __, hypervisor = booted()
        with pytest.raises(ConfigurationError):
            hypervisor.grant_memory("crit", 0x1000)
        with pytest.raises(ConfigurationError):
            hypervisor.domain_store("crit")
        with pytest.raises(ConfigurationError):
            hypervisor.release_memory("crit",
                                      MemoryRegion(0x1000, 0x1000))

    def test_grant_installs_every_layer(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.grant_memory("crit", 0x8000)
        domain = hypervisor.domain("crit")
        # domain region list and control-plane grant
        assert region in domain.regions
        hypervisor.guest_access("crit", region.base, 16)
        # stage-2 window (identity mapped by default)
        table = hypervisor.stage2("crit")
        assert table.translate(region.base, 16) == region.base
        # data-plane filter on the domain's port
        port = domain.ports[0]
        grant = soc.driver.region_filter(port)
        assert grant == {"base": region.base, "size": region.size}

    def test_grants_to_different_domains_are_disjoint(self):
        __, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        a = hypervisor.grant_memory("crit", 0x4000)
        b = hypervisor.grant_memory("best", 0x4000)
        assert not a.overlaps(b)

    def test_filter_covers_the_convex_hull_of_many_grants(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        first = hypervisor.grant_memory("crit", 0x1000)
        hypervisor.grant_memory("best", 0x1000)   # hole between grants
        second = hypervisor.grant_memory("crit", 0x1000)
        port = hypervisor.domain("crit").ports[0]
        grant = soc.driver.region_filter(port)
        base = min(first.base, second.base)
        end = max(first.end, second.end)
        assert grant["base"] <= base
        assert grant["base"] + grant["size"] >= end

    def test_non_identity_guest_mapping(self):
        __, hypervisor = booted()
        store = MemoryStore(size=1 << 24)
        hypervisor.attach_memory(store)
        region = hypervisor.grant_memory("crit", 0x1000,
                                         guest_base=0x100_0000)
        guest = hypervisor.domain_store("crit")
        guest.write(0x100_0010, b"remapped")
        assert store.read(region.base + 0x10, 8) == b"remapped"

    def test_failed_window_install_releases_the_block(self):
        __, hypervisor = booted()
        allocator = hypervisor.attach_memory(MemoryStore(size=1 << 24))
        hypervisor.grant_memory("crit", 0x1000, guest_base=0x0)
        before = allocator.free_bytes
        with pytest.raises(ValueError):
            # guest window collides with the one above
            hypervisor.grant_memory("crit", 0x1000, guest_base=0x0)
        assert allocator.free_bytes == before   # no leaked block

    def test_adopt_region_pins_the_callers_address(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore())
        region = hypervisor.adopt_region("best", 0x40_0000, 0x2000)
        assert region.base == 0x40_0000
        port = hypervisor.domain("best").ports[0]
        assert soc.driver.region_filter(port) == {"base": 0x40_0000,
                                                  "size": 0x2000}


class TestDomainStoreConfinement:
    def test_tenants_cannot_read_each_other(self):
        __, hypervisor = booted()
        store = MemoryStore(size=1 << 24)
        hypervisor.attach_memory(store)
        mine = hypervisor.grant_memory("crit", 0x1000)
        theirs = hypervisor.grant_memory("best", 0x1000)
        hypervisor.domain_store("crit").write(mine.base, b"secret")
        other = hypervisor.domain_store("best")
        with pytest.raises(TranslationFault):
            other.read(mine.base, 6)
        other.write(theirs.base, b"untouched")
        assert store.read(mine.base, 6) == b"secret"


class TestRelease:
    def test_release_returns_the_block_and_drops_the_window(self):
        soc, hypervisor = booted()
        allocator = hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.grant_memory("crit", 0x1000)
        hypervisor.release_memory("crit", region)
        assert allocator.allocated_bytes == 0
        assert region not in hypervisor.domain("crit").regions
        with pytest.raises(TranslationFault):
            hypervisor.domain_store("crit").read(region.base, 4)
        # no grants left: the port's data-plane filter is cleared
        port = hypervisor.domain("crit").ports[0]
        assert soc.driver.region_filter(port) is None

    def test_release_of_foreign_region_rejected(self):
        __, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.grant_memory("crit", 0x1000)
        with pytest.raises(ConfigurationError):
            hypervisor.release_memory("best", region)

    def test_release_shrinks_the_filter_to_remaining_grants(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        keep = hypervisor.grant_memory("crit", 0x1000)
        drop = hypervisor.grant_memory("crit", 0x1000)
        hypervisor.release_memory("crit", drop)
        port = hypervisor.domain("crit").ports[0]
        assert soc.driver.region_filter(port) == {"base": keep.base,
                                                  "size": keep.size}

    def test_release_of_an_unbacked_grant_frees_nothing(self):
        # a region adopted onto a range another tenant already holds
        # gets no allocator backing; releasing it must leave that
        # tenant's block allocated
        __, hypervisor = booted()
        allocator = hypervisor.attach_memory(MemoryStore(size=1 << 24))
        held = hypervisor.grant_memory("crit", 0x1000)
        adopted = hypervisor.adopt_region("best", held.base, held.size)
        hypervisor.release_memory("best", adopted)
        assert allocator.allocated_bytes == held.size
        assert allocator.is_granted(held.base)
        hypervisor.create_domain("third")
        fresh = hypervisor.grant_memory("third", 0x1000)
        assert not fresh.overlaps(held)


class TestReleaseMidBurst:
    """Satellite: ``release_memory`` under live traffic is a clean error.

    The synchronous release path must never yank a window out from
    under in-flight beats — that is ``revoke_memory``'s job (quiesce,
    drain, then retarget).  Mid-burst it must raise, change nothing,
    and succeed normally once the port drains.
    """

    @pytest.mark.parametrize("fast", [False, True],
                             ids=["reference", "fast"])
    def test_mid_burst_release_raises_and_changes_nothing(self, fast):
        soc, hypervisor = booted(fast=fast)
        allocator = hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.grant_memory("crit", 0x8000)
        port = hypervisor.domain("crit").ports[0]
        dma = AxiDma(soc.sim, "dma", soc.port(port))
        dma.enqueue_write(region.base, 4096)
        soc.sim.run(40)   # burst accepted, beats in flight
        supervisor = soc.interconnect.supervisors[port]
        assert not supervisor.drained
        before = allocator.allocated_bytes
        with pytest.raises(ConfigurationError) as err:
            hypervisor.release_memory("crit", region)
        assert "revoke_memory" in str(err.value)
        # nothing was torn down
        assert region in hypervisor.domain("crit").regions
        assert allocator.allocated_bytes == before
        assert hypervisor.stage2("crit").translate(region.base, 16) \
            == region.base
        assert soc.driver.region_filter(port) == {"base": region.base,
                                                  "size": region.size}

    @pytest.mark.parametrize("fast", [False, True],
                             ids=["reference", "fast"])
    def test_release_succeeds_once_the_port_drains(self, fast):
        soc, hypervisor = booted(fast=fast)
        allocator = hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.grant_memory("crit", 0x8000)
        port = hypervisor.domain("crit").ports[0]
        dma = AxiDma(soc.sim, "dma", soc.port(port))
        dma.enqueue_write(region.base, 4096)
        soc.run_until_quiescent()
        assert soc.interconnect.supervisors[port].drained
        hypervisor.release_memory("crit", region)
        assert allocator.allocated_bytes == 0
        assert region not in hypervisor.domain("crit").regions


class TestPreBootGrants:
    def test_grants_made_before_boot_arm_at_boot(self):
        soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
        hypervisor = Hypervisor(soc.interconnect)
        hypervisor.create_domain("crit", Criticality.HIGH)
        hypervisor.create_domain("best", Criticality.LOW)
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.grant_memory("crit", 0x2000)
        # no ports bound yet: nothing to arm
        assert all(soc.driver.region_filter(p) is None for p in range(2))
        integrator = SystemIntegrator(ZCU102)
        integrator.add_accelerator(accelerator_component("dnn"), "crit")
        integrator.add_accelerator(accelerator_component("dma"), "best")
        hypervisor.boot(integrator.integrate())
        port = hypervisor.domain("crit").ports[0]
        assert soc.driver.region_filter(port) == {"base": region.base,
                                                  "size": region.size}


class TestAuditBounds:
    """Satellite: the violation audit trail must not grow unbounded."""

    WINDOW = MemoryRegion(0xA000_0000, 0x1000)

    def test_ring_buffer_evicts_but_total_keeps_counting(self):
        control = AccessControl(self.WINDOW, audit_depth=4)
        domain = Domain("d")
        for i in range(10):
            with pytest.raises(AccessViolation):
                control.check(domain, 0x9000_0000 + i * 0x10, 4)
        assert len(control.violations) == 4
        assert control.total_violations == 10
        # the retained entries are the newest four
        assert [v.address for v in control.violations] == \
            [0x9000_0060, 0x9000_0070, 0x9000_0080, 0x9000_0090]

    def test_default_depth_is_bounded(self):
        control = AccessControl(self.WINDOW)
        assert control.violations.maxlen is not None

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            AccessControl(self.WINDOW, audit_depth=0)

    def test_transition_ring_records_grant_and_revoke(self):
        control = AccessControl(self.WINDOW, audit_depth=4)
        domain = Domain("d")
        region = MemoryRegion(0x1000, 0x1000)
        control.grant(domain, region, cycle=7)
        control.revoke(domain, region, cycle=19)
        kinds = [(t.kind, t.domain, t.base, t.size, t.cycle)
                 for t in control.transitions]
        assert kinds == [("grant", "d", 0x1000, 0x1000, 7),
                         ("revoke", "d", 0x1000, 0x1000, 19)]
        assert control.total_transitions == 2

    def test_transition_ring_is_bounded_but_total_counts(self):
        control = AccessControl(self.WINDOW, audit_depth=3)
        domain = Domain("d")
        region = MemoryRegion(0x1000, 0x1000)
        for _ in range(5):
            control.grant(domain, region)
            control.revoke(domain, region)
        assert len(control.transitions) == 3
        assert control.total_transitions == 10

    def test_revoke_of_ungranted_region_rejected(self):
        control = AccessControl(self.WINDOW)
        domain = Domain("d")
        with pytest.raises(AccessViolation):
            control.revoke(domain, MemoryRegion(0x1000, 0x1000))
