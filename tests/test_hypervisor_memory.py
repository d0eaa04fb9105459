"""Hypervisor memory virtualization: grants, guest views, audit bounds.

The hypervisor-side half of the tenant isolation: the integrator places
each region grant and the hypervisor adopts it, refusing a range that
another domain holds; each domain's grants live in ``Domain.regions``
and confine its ``domain_store`` view, and the data-plane region
filters are armed/cleared as grants come and go.
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
from repro.memory import MemoryAccessFault, MemoryStore, TranslationFault
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem


def booted(n_ports=2):
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048)
    hypervisor = Hypervisor(soc.interconnect)
    hypervisor.create_domain("crit", Criticality.HIGH)
    hypervisor.create_domain("best", Criticality.LOW)
    integrator = SystemIntegrator(ZCU102)
    integrator.add_accelerator(accelerator_component("dnn"), "crit")
    integrator.add_accelerator(accelerator_component("dma"), "best")
    hypervisor.boot(integrator.integrate())
    return soc, hypervisor


class TestAttachAndGrant:
    def test_guest_view_requires_attached_memory(self):
        __, hypervisor = booted()
        with pytest.raises(ConfigurationError):
            hypervisor.domain_store("crit")

    def test_grant_installs_every_layer(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        domain = hypervisor.domain("crit")
        # domain region list and control-plane grant
        assert region in domain.regions
        hypervisor.guest_access("crit", region.base, 16)
        # the guest view reaches the range at its host address
        guest = hypervisor.domain_store("crit")
        guest.write(region.base, b"identity")
        assert hypervisor.store.read(region.base, 8) == b"identity"
        # data-plane filter on the domain's port
        port = domain.ports[0]
        grant = soc.driver.region_filter(port)
        assert grant == {"base": region.base, "size": region.size}

    def test_grants_to_different_domains_are_disjoint(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        held = hypervisor.adopt_region("crit", 0x4000, 0x4000)
        port = hypervisor.domain("best").ports[0]
        transitions = hypervisor.access.total_transitions
        for base, size in ((0x4000, 0x4000),    # the same range
                           (0x6000, 0x1000),    # inside it
                           (0x2000, 0x4000),    # straddles its base
                           (0x7000, 0x2000),    # straddles its end
                           (0x0, 0x10000)):     # encloses it
            with pytest.raises(ConfigurationError, match="'crit'"):
                hypervisor.adopt_region("best", base, size)
        # nothing was installed: no region, no window, no audit record
        assert hypervisor.domain("best").regions == []
        assert soc.driver.region_filter(port) is None
        assert hypervisor.access.total_transitions == transitions
        with pytest.raises(TranslationFault):
            hypervisor.domain_store("best").read(held.base, 4)
        assert hypervisor.domain("crit").regions == [held]

    def test_filter_covers_the_convex_hull_of_many_grants(self):
        soc, hypervisor = booted()
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        first = hypervisor.adopt_region("crit", 0x0, 0x1000)
        # adjacent to both of crit's grants: adopted, not refused
        hypervisor.adopt_region("best", 0x1000, 0x1000)
        second = hypervisor.adopt_region("crit", 0x2000, 0x1000)
        port = hypervisor.domain("crit").ports[0]
        grant = soc.driver.region_filter(port)
        base = min(first.base, second.base)
        end = max(first.end, second.end)
        assert grant["base"] <= base
        assert grant["base"] + grant["size"] >= end

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
        mine = hypervisor.adopt_region("crit", 0x0, 0x1000)
        theirs = hypervisor.adopt_region("best", 0x1000, 0x1000)
        hypervisor.domain_store("crit").write(mine.base, b"secret")
        other = hypervisor.domain_store("best")
        with pytest.raises(TranslationFault):
            other.read(mine.base, 6)
        other.write(theirs.base, b"untouched")
        assert store.read(mine.base, 6) == b"secret"


class TestPreBootGrants:
    def test_grants_made_before_boot_arm_at_boot(self):
        soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
        hypervisor = Hypervisor(soc.interconnect)
        hypervisor.create_domain("crit", Criticality.HIGH)
        hypervisor.create_domain("best", Criticality.LOW)
        hypervisor.attach_memory(MemoryStore(size=1 << 24))
        region = hypervisor.adopt_region("crit", 0x0, 0x2000)
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
