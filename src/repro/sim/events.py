"""Simulation-wide fault/recovery event notification.

Hardware fault containment (watchdog trips in the Transaction
Supervisors, see :mod:`repro.hyperconnect.supervisor`) must reach the
hypervisor layer without the fabric knowing who is listening — exactly
like an interrupt line.  The :class:`EventBus` is that line: components
publish immutable event records, subscribers (the hypervisor's recovery
agent, tracers, tests) react synchronously and deterministically.

Determinism contract: publishing is synchronous and subscriber order is
subscription order, so runs on the reference and fast kernel paths
deliver identical event sequences.  The bus also retains a bounded log
of everything published; differential tests compare those logs
bit-for-bit across kernel paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PortFaultEvent:
    """A port's watchdog or protocol guard tripped; the port is contained.

    ``kind`` is ``"watchdog_timeout"`` (an issued transaction outlived
    ``timeout_cycles``) or ``"protocol_violation"`` (an illegal request
    was caught at ingest).  ``age`` is how many cycles the oldest
    offending transaction had been outstanding when the trip fired (0
    for protocol violations, which fire at ingest).
    """

    cycle: int
    source: str
    port: int
    kind: str
    age: int = 0
    outstanding_reads: int = 0
    outstanding_writes: int = 0
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (stable key order)."""
        return {"event": "port_fault", "cycle": self.cycle,
                "source": self.source, "port": self.port,
                "kind": self.kind, "age": self.age,
                "outstanding_reads": self.outstanding_reads,
                "outstanding_writes": self.outstanding_writes,
                "detail": self.detail}


@dataclass(frozen=True)
class PortRecoveryEvent:
    """A hypervisor recovery action on a previously faulted port.

    ``kind`` is one of ``"quarantine"`` (port confirmed decoupled and
    handed to the recovery policy), ``"reset"`` (supervisor and attached
    engine reset), ``"recouple"`` (port returned to service) or
    ``"giveup"`` (retry budget exhausted; the port stays quarantined).
    ``attempt`` counts recovery attempts for this port, starting at 1.
    """

    cycle: int
    source: str
    port: int
    kind: str
    attempt: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (stable key order)."""
        return {"event": "port_recovery", "cycle": self.cycle,
                "source": self.source, "port": self.port,
                "kind": self.kind, "attempt": self.attempt}


@dataclass(frozen=True)
class GrantRevocationEvent:
    """A hypervisor-initiated memory-grant transition on a tenant port.

    Distinct from :class:`PortFaultEvent` on purpose: a revocation is a
    planned state transition, and recovery agents subscribed to fault
    events must not auto-retry it.  ``kind`` is one of ``"quiesce"``
    (victim ports decoupled, drain started), ``"commit"`` (window torn
    down, filter retargeted, range scrubbed) or ``"regrant"`` (the same
    physical range handed to the beneficiary domain).
    """

    cycle: int
    source: str
    domain: str
    kind: str
    base: int
    size: int
    beneficiary: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (stable key order)."""
        return {"event": "grant_revocation", "cycle": self.cycle,
                "source": self.source, "domain": self.domain,
                "kind": self.kind, "base": self.base, "size": self.size,
                "beneficiary": self.beneficiary}


#: events the bus log retains
LOG_LIMIT = 4096


class EventBus:
    """Synchronous publish/subscribe hub owned by the simulator.

    The log retains the last :data:`LOG_LIMIT` events (oldest dropped
    first).  Fault events are rare by nature, so the limit is generous
    without risking unbounded growth on pathological runs.
    """

    def __init__(self) -> None:
        self._subscribers: List[Tuple[Optional[type], Callable]] = []
        self._log: Deque[Any] = deque(maxlen=LOG_LIMIT)
        self.published_total = 0
        self.dropped = 0

    def subscribe(self, callback: Callable[[Any], None],
                  event_type: Optional[type] = None) -> None:
        """Invoke ``callback(event)`` on every publish.

        With ``event_type`` given, only events of that type (or a
        subclass) are delivered to this subscriber.
        """
        self._subscribers.append((event_type, callback))

    def publish(self, event: Any) -> None:
        """Deliver ``event`` to subscribers (in subscription order)."""
        if len(self._log) == LOG_LIMIT:
            self.dropped += 1
        self._log.append(event)
        self.published_total += 1
        for event_type, callback in self._subscribers:
            if event_type is None or isinstance(event, event_type):
                callback(event)

    # ------------------------------------------------------------------
    # retained log
    # ------------------------------------------------------------------

    @property
    def log(self) -> List[Any]:
        """The retained events, oldest first (read-only view)."""
        return list(self._log)

    def events(self, event_type: Optional[type] = None,
               port: Optional[int] = None) -> List[Any]:
        """Retained events, optionally filtered by type and port."""
        selected: List[Any] = []
        for event in self._log:
            if event_type is not None and not isinstance(event, event_type):
                continue
            if port is not None and getattr(event, "port", None) != port:
                continue
            selected.append(event)
        return selected

    def as_dicts(self) -> List[Dict[str, Any]]:
        """The retained log as JSON-friendly dicts, in publish order."""
        return [event.as_dict() for event in self._log]

    def attach_tracer(self, tracer) -> None:
        """Mirror every published event into ``tracer`` as a trace event.

        The bridge is purely observational, so traces taken through it
        are identical whichever kernel path produced them.
        """
        def _bridge(event) -> None:
            fields = event.as_dict()
            cycle = fields.pop("cycle")
            source = fields.pop("source")
            kind = fields.pop("kind")
            tracer.record(cycle, source, kind, **fields)

        self.subscribe(_bridge)

    def __len__(self) -> int:
        return len(self._log)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventBus(retained={len(self._log)}, "
                f"published={self.published_total})")
