"""Hypervisor-side fault recovery for contained HyperConnect ports.

The watchdog inside each :class:`~repro.hyperconnect.supervisor.
TransactionSupervisor` *contains* a faulty port (decouple, drain, complete
orphans) but deliberately stops there: whether the port comes back is a
policy decision, and policy belongs to the hypervisor.  This module is
that policy layer:

* :class:`RecoveryPolicy` — the hypervisor-wide knobs
  (``Hypervisor.default_recovery_policy``): how many times to retry
  before the port stays quarantined, and with what (exponentially
  growing) cycle backoff between attempts.
* :class:`FaultRecoveryAgent` — a clocked component the hypervisor
  registers on the simulator.  It listens for
  :class:`~repro.sim.events.PortFaultEvent` on the event bus, quarantines
  the port immediately, and — while retries remain — schedules a reset
  + recouple once the backoff elapses *and* the supervisor reports the
  port drained.

The agent participates in the fast kernel path: its pending recovery
deadlines are exposed through ``next_event_cycle`` so a frozen system
still wakes up exactly when a retry is due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..sim.component import Component
from ..sim.errors import ConfigurationError
from ..sim.events import PortFaultEvent, PortRecoveryEvent


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the hypervisor treats faults on its HyperConnect's ports.

    Attributes
    ----------
    max_retries:
        Recovery attempts before giving up and leaving the port
        quarantined (0 quarantines at the first fault).
    backoff_cycles / backoff_factor:
        Attempt ``k`` (0-based) waits ``backoff_cycles * factor**k``
        cycles after the fault before resetting the port.  The growing
        backoff keeps a persistently faulty accelerator from consuming
        bus time with futile recouple/trip churn.
    """

    max_retries: int = 3
    backoff_cycles: int = 512
    backoff_factor: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_cycles < 1:
            raise ConfigurationError("backoff_cycles must be >= 1")
        if self.backoff_factor < 1:
            raise ConfigurationError("backoff_factor must be >= 1")

    def backoff_for(self, attempt: int) -> int:
        """Backoff (cycles) before 0-based recovery ``attempt``."""
        return self.backoff_cycles * self.backoff_factor ** attempt


class FaultRecoveryAgent(Component):
    """Event-driven recovery loop run by the hypervisor.

    Lifecycle per fault: ``PortFaultEvent`` -> quarantine (immediate)
    -> wait ``backoff`` cycles -> if the supervisor reports the port
    drained: reset + recouple; otherwise burn the attempt and re-arm the
    (longer) backoff.  Attempts are bounded by the policy; exhaustion
    publishes a ``giveup`` :class:`PortRecoveryEvent` and the port stays
    quarantined.
    """

    def __init__(self, sim, name: str, hypervisor) -> None:
        super().__init__(sim, name)
        self.hypervisor = hypervisor
        #: port -> absolute cycle at which the next attempt is due
        self._due: Dict[int, int] = {}
        #: port -> recovery attempts consumed so far
        self.retries: Dict[int, int] = {}
        #: ports whose retry budget ran out
        self.gave_up: Set[int] = set()
        sim.events.subscribe(self._on_fault, PortFaultEvent)

    # ------------------------------------------------------------------

    def _on_fault(self, event: PortFaultEvent) -> None:
        hyperconnect = self.hypervisor.hyperconnect
        if not 0 <= event.port < hyperconnect.n_ports:
            return
        if hyperconnect.supervisors[event.port].name != event.source:
            return  # another HyperConnect's fault (cascade, multiport)
        port = event.port
        self.hypervisor.quarantine(port)
        policy = self.hypervisor.default_recovery_policy
        attempt = self.retries.get(port, 0)
        if attempt < policy.max_retries:
            self._due[port] = event.cycle + policy.backoff_for(attempt)
            self.sim.wake()
        else:
            self._give_up(event.cycle, port, attempt)

    def _give_up(self, cycle: int, port: int, attempt: int) -> None:
        self._due.pop(port, None)
        self.gave_up.add(port)
        self.sim.events.publish(PortRecoveryEvent(
            cycle=cycle, source=self.name, port=port, kind="giveup",
            attempt=attempt))

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        # pure timer component: acts only when an attempt is due
        if not self._due:
            return True
        idle = True
        for port, due in list(self._due.items()):
            if cycle < due:
                continue
            idle = False
            supervisor = self.hypervisor.hyperconnect.supervisors[port]
            attempt = self.retries.get(port, 0)
            self.retries[port] = attempt + 1
            if supervisor.drained:
                del self._due[port]
                self.hypervisor.reset_port(port)
                self.hypervisor.recouple(port)
                continue
            # containment is still draining orphans: the attempt is
            # burned (the backoff was evidently too optimistic)
            policy = self.hypervisor.default_recovery_policy
            if attempt + 1 >= policy.max_retries:
                self._give_up(cycle, port, attempt + 1)
            else:
                self._due[port] = cycle + policy.backoff_for(attempt + 1)
        return idle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest pending recovery deadline."""
        return min(self._due.values()) if self._due else None


@dataclass
class RevocationOrder:
    """One scheduled grant revocation, tracked through its lifecycle.

    ``state`` advances ``scheduled`` -> ``draining`` -> ``committed``.
    ``regrant_to`` names the beneficiary domain that receives the same
    physical range at commit (``None`` = revoke only).  ``on_commit`` is
    invoked as ``on_commit(cycle, order)`` right after the commit (and
    any re-grant) completes — test harnesses use it to launch the
    beneficiary's traffic onto the freshly re-granted range.
    """

    order_id: int
    domain: str
    base: int
    size: int
    start_cycle: int
    regrant_to: Optional[str] = None
    on_commit: Optional[Callable[[int, "RevocationOrder"], None]] = None
    state: str = "scheduled"
    quiesce_cycle: Optional[int] = None
    commit_cycle: Optional[int] = None
    #: victim ports captured at quiesce time (the domain's port set may
    #: legitimately change after the commit)
    ports: List[int] = field(default_factory=list)


class RevocationController(Component):
    """Clocked driver of the revocation state machine.

    Reuses the watchdog containment ladder: at ``start_cycle`` every
    port of the victim domain enters containment via
    ``TransactionSupervisor.begin_revocation`` (decouple + orphan
    completion with synthesized ``DECERR``), then the controller polls
    the supervisors' ``drained`` predicate each cycle — exactly like
    :class:`FaultRecoveryAgent` polls before a recouple — and hands the
    drained domain to ``Hypervisor.commit_revocation`` (grant
    revocation, filter retarget, buddy coalesce, scrub, optional
    re-grant).  Pure timer component: deadlines are exposed through
    ``next_event_cycle`` so the fast kernel wakes exactly when a
    transition is due.
    """

    def __init__(self, sim, name: str, hypervisor) -> None:
        super().__init__(sim, name)
        self.hypervisor = hypervisor
        self._orders: List[RevocationOrder] = []
        #: order_id -> absolute cycle of the next state-machine step
        self._due: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def schedule(self, domain_name: str, base: int, size: int,
                 start_cycle: int, regrant_to: Optional[str] = None,
                 on_commit: Optional[Callable] = None) -> RevocationOrder:
        """Queue a revocation to begin at ``start_cycle``."""
        for existing in self._orders:
            if (existing.domain == domain_name
                    and existing.state != "committed"):
                raise ConfigurationError(
                    f"domain {domain_name!r} already has revocation "
                    f"#{existing.order_id} in flight")
        order = RevocationOrder(len(self._orders), domain_name, base,
                                size, start_cycle, regrant_to, on_commit)
        self._orders.append(order)
        self._due[order.order_id] = start_cycle
        self.sim.wake()
        return order

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        # pure timer component: acts only when a step is due
        if not self._due:
            return True
        idle = True
        for order_id, due in sorted(self._due.items()):
            if cycle < due:
                continue
            idle = False
            order = self._orders[order_id]
            if order.state == "scheduled":
                self.hypervisor.quiesce_for_revocation(order, cycle)
                order.state = "draining"
                order.quiesce_cycle = cycle
            if order.state == "draining":
                supervisors = self.hypervisor.hyperconnect.supervisors
                if all(supervisors[p].drained for p in order.ports):
                    del self._due[order_id]
                    order.state = "committed"
                    order.commit_cycle = cycle
                    self.hypervisor.commit_revocation(order, cycle)
                    if order.on_commit is not None:
                        order.on_commit(cycle, order)
                else:
                    # orphans still draining; poll again next cycle
                    # (same pattern as FaultRecoveryAgent's drained wait)
                    self._due[order_id] = cycle + 1
        return idle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest pending revocation step."""
        return min(self._due.values()) if self._due else None
