"""Hypervisor memory virtualization: grants, guest views, audit bounds.

The hypervisor-side half of the tenant isolation: a buddy allocator
carves the DRAM store into region grants, each domain's grants live in
``Domain.regions`` and confine its ``domain_store`` view, and the
data-plane region filters are armed/cleared as grants come and go.
"""

import pytest

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
from repro.masters import AxiDma
from repro.memory import MemoryAccessFault, MemoryStore, TranslationFault
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
        # the guest view reaches the block at its host address
        guest = hypervisor.domain_store("crit")
        guest.write(region.base, b"identity")
        assert hypervisor.store.read(region.base, 8) == b"identity"
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

    def test_refused_grant_releases_the_block(self):
        # the second half of the default 4 GiB store covers the
        # HyperConnect control window, so access control refuses it
        __, hypervisor = booted()
        allocator = hypervisor.attach_memory(MemoryStore())
        hypervisor.grant_memory("crit", 1 << 31)
        before = allocator.free_bytes
        with pytest.raises(AccessViolation):
            hypervisor.grant_memory("best", 1 << 31)
        assert allocator.free_bytes == before == 1 << 31
        assert hypervisor.domain("best").regions == []
        with pytest.raises(TranslationFault):
            hypervisor.domain_store("best").read(0x8000_0000, 4)

    def test_overlapping_grant_releases_the_block(self):
        # "best" keeps an unbacked adoption over a block "crit" then
        # releases, so the allocator hands that block out again
        __, hypervisor = booted()
        allocator = hypervisor.attach_memory(MemoryStore(size=1 << 24))
        held = hypervisor.grant_memory("crit", 0x1000)
        hypervisor.adopt_region("best", held.base, held.size)
        hypervisor.release_memory("crit", held)
        before = allocator.free_bytes
        with pytest.raises(ConfigurationError):
            hypervisor.grant_memory("best", 0x1000)
        assert allocator.free_bytes == before
        assert hypervisor.domain("best").regions == [held]

    def test_refused_adoption_leaves_nothing_reachable(self):
        __, hypervisor = booted()
        store = MemoryStore()
        hypervisor.attach_memory(store)
        store.write(HYPERCONNECT_CTRL_BASE, b"\x5A" * 4)
        with pytest.raises(AccessViolation):
            hypervisor.adopt_region("best", HYPERCONNECT_CTRL_BASE, 0x1000)
        assert hypervisor.domain("best").regions == []
        with pytest.raises(TranslationFault):
            hypervisor.domain_store("best").read(HYPERCONNECT_CTRL_BASE, 4)

    def test_adopt_region_pins_the_callers_address(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore())
        region = hypervisor.adopt_region("best", 0x40_0000, 0x2000)
        assert region.base == 0x40_0000
        port = hypervisor.domain("best").ports[0]
        assert soc.driver.region_filter(port) == {"base": 0x40_0000,
                                                  "size": 0x2000}


class TestDomainStoreConfinement:
    #: two adjacent grants and a sparse third, adopted by "crit"
    GRANTS = ((0x4_0000, 0x1000), (0x4_1000, 0x1000), (0x9_0000, 0x2000))

    def guest_view(self):
        __, hypervisor = booted()
        store = MemoryStore(size=1 << 24)
        hypervisor.attach_memory(store)
        for base, size in self.GRANTS:
            hypervisor.adopt_region("crit", base, size)
        return store, hypervisor.domain_store("crit")

    @pytest.mark.parametrize("address, count", [
        (0x4_0000, 16),       # first bytes of a grant
        (0x4_0FF0, 16),       # last bytes before the seam
        (0x4_1000, 16),       # first bytes after the seam
        (0x9_1FF0, 16),       # last bytes of the sparse grant
    ], ids=["base", "before-seam", "after-seam", "sparse-end"])
    def test_access_inside_one_grant_lands_at_its_address(self, address,
                                                          count):
        store, guest = self.guest_view()
        data = bytes(range(1, count + 1))
        guest.write(address, data)
        assert store.read(address, count) == data
        assert guest.read(address, count) == data
        guest.fill_pattern(address, count, seed=7)
        reference = MemoryStore(size=1 << 24)
        reference.fill_pattern(address, count, seed=7)
        assert store.read(address, count) == reference.read(address, count)

    @pytest.mark.parametrize("op", ["read", "write", "fill_pattern"])
    @pytest.mark.parametrize("address, count", [
        (0x4_2000, 16),       # miss past the adjacent pair
        (0x3_FFFC, 8),        # straddles the first grant's base
        (0x4_0FF0, 32),       # straddles the seam of two adjacent grants
        (0x9_2000, 1),        # one past the sparse grant
    ], ids=["miss", "below-base", "seam", "past-end"])
    def test_access_outside_one_grant_faults(self, address, count, op):
        store, guest = self.guest_view()
        with pytest.raises(TranslationFault) as info:
            if op == "read":
                guest.read(address, count)
            elif op == "write":
                guest.write(address, b"\xFF" * count)
            else:
                guest.fill_pattern(address, count)
        assert (info.value.address, info.value.count) == (address, count)
        # data-path adapters catch MemoryAccessFault: guest-view misses
        # ride that same DECERR path
        assert isinstance(info.value, MemoryAccessFault)
        assert isinstance(info.value, ValueError)
        assert store.read(address, count) == bytes(count)

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
        hypervisor.domain_store("crit").read(region.base, 16)  # reachable
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
