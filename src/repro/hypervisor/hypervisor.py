"""The type-1 hypervisor model.

The AXI HyperConnect is "conceived as a hypervisor-level hardware
component (i.e., a hardware extension of the hypervisor)".  This class
models the hypervisor responsibilities the paper enumerates:

* **booting a design**: only the hypervisor programs the bitstream;
  applications are denied FPGA configuration (a sealed
  :class:`~repro.hypervisor.integration.FpgaDesign` whose signature fails
  to verify is refused);
* **granting each application access to its own HAs only** — modelled by
  :class:`~repro.hypervisor.accessctl.AccessControl`;
* **routing HA interrupts** to their domains;
* **configuring the AXI HyperConnect**: bandwidth reservations per domain,
  nominal bursts, outstanding limits, and runtime isolation (decoupling)
  of misbehaving domains — all through the open-source driver, i.e. the
  memory-mapped control interface that guests can never reach.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..hyperconnect.driver import HyperConnectDriver
from ..hyperconnect.hyperconnect import HyperConnect
from ..hyperconnect.regs import (HYPERCONNECT_CTRL_BASE,
                                 HYPERCONNECT_CTRL_SIZE, REGION_GRANULE)
from ..masters.engine import AxiMasterEngine
from ..memory.store import MemoryStore, TranslationFault
from ..sim.errors import ConfigurationError
from ..sim.events import GrantRevocationEvent, PortRecoveryEvent
from .accessctl import AccessControl, AccessViolation
from .domain import Criticality, Domain, MemoryRegion
from .integration import FpgaDesign
from .interrupts import InterruptController
from .recovery import (FaultRecoveryAgent, RecoveryPolicy,
                       RevocationController, RevocationOrder)


class Hypervisor:
    """Type-1 hypervisor supervising one FPGA SoC.

    Parameters
    ----------
    hyperconnect:
        The fabric interconnect under hypervisor control.  The paper's
        whole point is that a plain interconnect offers no such control —
        passing a SmartConnect here raises.
    """

    def __init__(self, hyperconnect: HyperConnect) -> None:
        if not isinstance(hyperconnect, HyperConnect):
            raise ConfigurationError(
                "hypervisor-level control requires an AXI HyperConnect "
                f"(got {type(hyperconnect).__name__}); state-of-the-art "
                "interconnects expose no control interface")
        self.hyperconnect = hyperconnect
        self.sim = hyperconnect.sim
        self.driver = HyperConnectDriver(hyperconnect)
        self.domains: Dict[str, Domain] = {}
        self.access = AccessControl(MemoryRegion(
            HYPERCONNECT_CTRL_BASE, HYPERCONNECT_CTRL_SIZE))
        self.interrupts = InterruptController()
        #: ports currently held out of service by fault containment
        self.quarantined: Set[int] = set()
        #: engines registered via :meth:`attach_accelerator`, so
        #: :meth:`reset_port` can reset the accelerator with its port
        self._port_engines: Dict[int, AxiMasterEngine] = {}
        #: how :class:`FaultRecoveryAgent` treats every contained port
        self.default_recovery_policy = RecoveryPolicy()
        self.recovery: Optional[FaultRecoveryAgent] = None
        self.revocation: Optional[RevocationController] = None
        #: memory virtualization (set up by :meth:`attach_memory`)
        self.store: Optional[MemoryStore] = None

    # ------------------------------------------------------------------
    # domain lifecycle
    # ------------------------------------------------------------------

    def create_domain(self, name: str,
                      criticality: Criticality = Criticality.LOW,
                      bandwidth_share: Optional[float] = None) -> Domain:
        """Register an execution domain."""
        if name in self.domains:
            raise ConfigurationError(f"domain {name!r} already exists")
        domain = Domain(name=name, criticality=criticality,
                        bandwidth_share=bandwidth_share)
        self.domains[name] = domain
        return domain

    def domain(self, name: str) -> Domain:
        """Look up a domain by name."""
        try:
            return self.domains[name]
        except KeyError:
            raise ConfigurationError(f"unknown domain {name!r}") from None

    # ------------------------------------------------------------------
    # boot flow
    # ------------------------------------------------------------------

    def boot(self, design: FpgaDesign) -> None:
        """Program the 'bitstream' and bind ports/IRQs to domains.

        Domains referenced by the design must have been created first;
        a tampered design (bad signature) is refused.
        """
        if not design.verify():
            raise ConfigurationError(
                "design signature verification failed; refusing to "
                "program the FPGA")
        if design.n_ports != self.hyperconnect.n_ports:
            raise ConfigurationError(
                f"design has {design.n_ports} ports but the deployed "
                f"HyperConnect has {self.hyperconnect.n_ports}")
        for placed in design.accelerators:
            domain = self.domain(placed.domain)
            domain.ports.append(placed.port)
            self.interrupts.route(placed.irq, placed.domain)
        # apply any statically declared bandwidth policy
        shares = {name: d.bandwidth_share for name, d in self.domains.items()
                  if d.bandwidth_share is not None and d.ports}
        if shares:
            self.apply_bandwidth_policy(shares)
        # grants made before boot now know their ports: arm the
        # data-plane region filters
        for domain in self.domains.values():
            if domain.regions and domain.ports:
                self._apply_region_filters(domain)

    # ------------------------------------------------------------------
    # HyperConnect policy (hypervisor-only)
    # ------------------------------------------------------------------

    def apply_bandwidth_policy(self, shares: Dict[str, float]) -> None:
        """Reserve bandwidth per domain (split evenly over its ports)."""
        port_shares: Dict[int, float] = {}
        for name, fraction in shares.items():
            domain = self.domain(name)
            if not domain.ports:
                raise ConfigurationError(
                    f"domain {name!r} has no ports bound")
            per_port = fraction / len(domain.ports)
            for port in domain.ports:
                port_shares[port] = per_port
            domain.bandwidth_share = fraction
        self.driver.set_bandwidth_shares(port_shares)

    def isolate_domain(self, name: str) -> None:
        """Decouple every port of a (misbehaving) domain."""
        domain = self.domain(name)
        for port in domain.ports:
            self.driver.decouple(port)

    # ------------------------------------------------------------------
    # memory virtualization (region grants over the shared store)
    # ------------------------------------------------------------------

    def attach_memory(self, store: MemoryStore) -> None:
        """Place the DRAM backing store under hypervisor management.

        Records the store that :meth:`domain_store` confines to a
        domain's grants and that :meth:`commit_revocation` scrubs.  The
        hypervisor does not allocate DRAM: the integrator places each
        grant and hands it over with :meth:`adopt_region`.  A store
        that does not cover every grant made before it is refused.
        """
        for domain in self.domains.values():
            for region in domain.regions:
                _check_in_store(store, domain.name, region)
        self.store = store

    def adopt_region(self, domain_name: str, base: int,
                     size: int) -> MemoryRegion:
        """Grant a domain the range ``[base, base + size)``.

        Installs the access-control grant (the domain region) and — when
        the domain's ports are already bound — arms the HyperConnect's
        per-port region filters.  Grants are identity mapped: the guest
        and the fabric address the range alike.  A range that overlaps
        another domain's grant is refused, as is one that overlaps the
        HyperConnect control window or lies outside the attached store,
        and nothing is installed.
        """
        domain = self.domain(domain_name)
        region = MemoryRegion(base, size)
        if self.store is not None:
            _check_in_store(self.store, domain_name, region)
        for other in self.domains.values():
            if other is domain:
                continue
            for held in other.regions:
                if held.overlaps(region):
                    raise ConfigurationError(
                        f"cannot grant {domain_name!r} 0x{base:x}+"
                        f"0x{size:x}: it overlaps the grant at "
                        f"0x{held.base:x} held by {other.name!r}")
        self.access.grant(domain, region, cycle=self.sim.now)
        if domain.ports:
            self._apply_region_filters(domain)
        return region

    def domain_store(self, domain_name: str) -> DomainStore:
        """The domain's view of memory, confined to its grants."""
        if self.store is None:
            raise ConfigurationError(
                "no managed memory: call attach_memory() first")
        return DomainStore(self.store, self.domain(domain_name))

    def _apply_region_filters(self, domain: Domain) -> None:
        """Arm the data-plane grant filter on every port of a domain.

        The register window is a single contiguous range per port, so it
        is programmed as the convex hull of the domain's grants — the
        hardware-cheap first line of defence; the guest view and the
        control-plane access checks stay exact.
        """
        if not domain.regions:
            for port in domain.ports:
                self.driver.clear_region_filter(port)
            return
        base = min(region.base for region in domain.regions)
        end = max(region.end for region in domain.regions)
        base -= base % REGION_GRANULE
        if end % REGION_GRANULE:
            end += REGION_GRANULE - end % REGION_GRANULE
        for port in domain.ports:
            self.driver.set_region_filter(port, base, end - base)

    # ------------------------------------------------------------------
    # fault recovery (watchdog containment aftermath)
    # ------------------------------------------------------------------

    def enable_fault_recovery(self) -> FaultRecoveryAgent:
        """Start listening for port faults and applying recovery policy.

        Idempotent: a second call returns the existing agent.  The agent
        holds this hypervisor weakly, so keep the hypervisor referenced
        while the simulation runs.
        """
        if self.recovery is None:
            # one agent per supervised interconnect: derive the component
            # name from the HyperConnect so cascaded topologies (several
            # hypervisors in one simulation) never collide
            self.recovery = FaultRecoveryAgent(
                self.sim, f"{self.hyperconnect.name}.hypervisor.recovery",
                self)
        return self.recovery

    # ------------------------------------------------------------------
    # live grant revocation (tenant churn)
    # ------------------------------------------------------------------

    def enable_revocation(self) -> RevocationController:
        """Register the revocation state machine on the simulator.

        Idempotent: a second call returns the existing controller, which
        holds this hypervisor weakly like the recovery agent.
        """
        if self.revocation is None:
            self.revocation = RevocationController(
                self.sim,
                f"{self.hyperconnect.name}.hypervisor.revocation", self)
        return self.revocation

    def revoke_memory(self, domain_name: str, region: MemoryRegion,
                      regrant_to: Optional[str] = None,
                      at: Optional[int] = None,
                      on_commit: Optional[Callable] = None
                      ) -> RevocationOrder:
        """Revoke a grant while the domain may be mid-burst.

        The returned order runs the quiesce -> drain -> retarget ->
        scrub (-> re-grant) state machine on the simulator clock:

        1. **quiesce** (``at``, default now): every port of the victim
           domain enters watchdog-style containment via
           ``begin_revocation`` — decoupled from the shared path, with
           in-flight beats completed as synthesized ``DECERR``.
        2. **drain**: the controller polls the supervisors' ``drained``
           predicate; healthy neighbours keep running throughout.
        3. **commit**: access-control grant revoked (audited, and
           gone from ``Domain.regions``), region filters retargeted
           (epoch bumped), the physical range scrubbed.
           Victim ports recouple if the domain still holds other
           grants; a grantless domain's ports stay decoupled —
           re-coupling them with a cleared (= disabled) region filter
           would leave the port unfiltered.
        4. **re-grant** (optional): the same physical range is adopted
           by ``regrant_to``, then ``on_commit(cycle, order)`` fires.
        """
        domain = self.domain(domain_name)
        if region not in domain.regions:
            raise ConfigurationError(
                f"domain {domain_name!r} holds no grant at "
                f"0x{region.base:x}")
        if regrant_to is not None and self.domain(regrant_to) is domain:
            raise ConfigurationError(
                "cannot re-grant a region to the domain it is being "
                "revoked from")
        start = self.sim.now if at is None else at
        if start < self.sim.now:
            raise ConfigurationError(
                f"revocation start cycle {start} is in the past "
                f"(now = {self.sim.now})")
        controller = self.enable_revocation()
        return controller.schedule(domain_name, region.base, region.size,
                                   start, regrant_to=regrant_to,
                                   on_commit=on_commit)

    def quiesce_for_revocation(self, order: RevocationOrder,
                               cycle: int) -> None:
        """Step 1 of a revocation: contain every victim port."""
        domain = self.domain(order.domain)
        order.ports = list(domain.ports)
        for port in order.ports:
            self.hyperconnect.supervisors[port].begin_revocation()
            # bring the register view in line with the gate state
            self.driver.decouple(port)
        self.sim.events.publish(GrantRevocationEvent(
            cycle=cycle, source="hypervisor", domain=order.domain,
            kind="quiesce", base=order.base, size=order.size,
            beneficiary=order.regrant_to or ""))

    def commit_revocation(self, order: RevocationOrder,
                          cycle: int) -> MemoryRegion:
        """Steps 3-4 of a revocation (called once the drain completes).

        This is the one place a grant is torn down.  By the time it
        runs every victim port is ``drained``: nothing is outstanding
        downstream, owed upstream, or queued in the eFIFO, so no beat
        issued under the old grant can still be in flight anywhere in
        the fabric, and the range can be scrubbed and re-granted at
        once.
        """
        domain = self.domain(order.domain)
        region = next((r for r in domain.regions
                       if r.base == order.base and r.size == order.size),
                      None)
        if region is None:
            raise ConfigurationError(
                f"revocation #{order.order_id}: domain "
                f"{order.domain!r} no longer holds 0x{order.base:x}")
        self.access.revoke(domain, region, cycle=cycle)
        if domain.ports:
            self._apply_region_filters(domain)
        if self.store is not None:
            # the next grantee must never observe the victim's data
            self.store.scrub(region.base, region.size)
        for port in order.ports:
            supervisor = self.hyperconnect.supervisors[port]
            if domain.regions:
                # the domain still holds grants: the retargeted filter
                # confines the port, so it can return to service
                supervisor.clear_fault()
                self.driver.couple(port)
                self.quarantined.discard(port)
            else:
                # grantless domain: a cleared filter means "unfiltered",
                # so the port must stay decoupled (retired)
                self.quarantined.add(port)
        self.sim.events.publish(GrantRevocationEvent(
            cycle=cycle, source="hypervisor", domain=order.domain,
            kind="commit", base=order.base, size=order.size,
            beneficiary=order.regrant_to or ""))
        if order.regrant_to is not None:
            self.adopt_region(order.regrant_to, region.base, region.size)
            self.sim.events.publish(GrantRevocationEvent(
                cycle=cycle, source="hypervisor", domain=order.domain,
                kind="regrant", base=order.base, size=order.size,
                beneficiary=order.regrant_to))
        return region

    def quarantine(self, port: int) -> None:
        """Take a faulted port out of service (keeps it decoupled).

        Safe to call on a port the watchdog already decoupled: the write
        merely brings the register view in line with the gate state.
        """
        self.driver.decouple(port)
        self.quarantined.add(port)
        self.sim.events.publish(PortRecoveryEvent(
            cycle=self.sim.now, source="hypervisor", port=port,
            kind="quarantine"))

    def reset_port(self, port: int) -> None:
        """Return a quarantined port (and its accelerator) to power-on
        state: supervisor counters, eFIFO queues, and — when the engine
        was registered through :meth:`attach_accelerator` — the HA model
        itself."""
        engine = self._port_engines.get(port)
        if engine is not None:
            engine.reset()
        self.hyperconnect.supervisors[port].reset()
        self.hyperconnect.ports[port].clear()
        self.sim.events.publish(PortRecoveryEvent(
            cycle=self.sim.now, source="hypervisor", port=port,
            kind="reset"))

    def recouple(self, port: int) -> None:
        """Put a quarantined port back in service.

        Refuses while containment is still draining: recoupling with
        orphans outstanding would let stale responses reach a freshly
        reset accelerator.
        """
        supervisor = self.hyperconnect.supervisors[port]
        if not supervisor.drained:
            raise ConfigurationError(
                f"port {port} still has orphaned transactions draining; "
                "recouple refused")
        supervisor.clear_fault()
        self.driver.couple(port)
        self.quarantined.discard(port)
        self.sim.events.publish(PortRecoveryEvent(
            cycle=self.sim.now, source="hypervisor", port=port,
            kind="recouple"))

    # ------------------------------------------------------------------
    # guest-side services
    # ------------------------------------------------------------------

    def guest_access(self, domain_name: str, address: int,
                     count: int = 4) -> None:
        """Validate a guest control-plane access (raises on violation)."""
        self.access.check(self.domain(domain_name), address, count)

    def guest_configure_hyperconnect(self, domain_name: str) -> None:
        """What happens when a guest tries to reprogram the interconnect:
        always an :class:`AccessViolation` — by construction the control
        interface is mapped to the hypervisor only."""
        self.guest_access(domain_name, HYPERCONNECT_CTRL_BASE)

    def attach_accelerator(self, domain_name: str, port: int,
                           engine: AxiMasterEngine) -> None:
        """Hook an accelerator model's completion events to the domain's
        interrupt line (the HA raising its IRQ on job completion)."""
        domain = self.domain(domain_name)
        if port not in domain.ports:
            raise AccessViolation(
                f"domain {domain_name!r} does not own port {port}")
        self._port_engines[port] = engine
        # the callback holds neither the engine nor the hypervisor, so
        # the engine keeps no reference cycle through it
        interrupts, name = self.interrupts, engine.name
        engine.on_job_complete(
            lambda job, cycle: interrupts.raise_irq(port, name, cycle))

    # ------------------------------------------------------------------

    def ports_of(self, domain_name: str) -> List[int]:
        """The HyperConnect ports owned by a domain."""
        return list(self.domain(domain_name).ports)


def _check_in_store(store: MemoryStore, domain_name: str,
                    region: MemoryRegion) -> None:
    """Refuse a grant that the backing store does not cover."""
    if region.end > store.size:
        raise ConfigurationError(
            f"cannot grant {domain_name!r} 0x{region.base:x}+"
            f"0x{region.size:x}: it lies outside the memory of size "
            f"0x{store.size:x}")


class DomainStore:
    """A domain's view of the shared store, confined to its grants.

    Grants are identity mapped, so guest addresses are host addresses.
    An access that no single one of ``domain.regions`` covers (a miss,
    or a straddle across two adjacent grants) raises
    :class:`TranslationFault`.  The view reads the live region list, so
    a revoked grant is unreachable at once.
    """

    def __init__(self, store: MemoryStore, domain: Domain) -> None:
        self.store = store
        self.domain = domain

    def _check(self, address: int, count: int) -> None:
        if not self.domain.may_access(address, max(count, 1)):
            raise TranslationFault(
                f"{self.domain.name}: no grant covers "
                f"[0x{address:x}, 0x{address + count:x})",
                address=address, count=count)

    def read(self, address: int, count: int) -> bytes:
        self._check(address, count)
        return self.store.read(address, count)

    def write(self, address: int, data: bytes) -> None:
        self._check(address, len(data))
        self.store.write(address, data)

    def fill_pattern(self, address: int, count: int, seed: int = 0) -> None:
        self._check(address, count)
        self.store.fill_pattern(address, count, seed)
