"""Lightweight event tracing.

A :class:`Tracer` records structured events (cycle, source, kind, payload)
into a bounded ring buffer.  It is the simulation-world replacement for the
paper's "custom-developed timer implemented in the FPGA fabric": benchmarks
attach a tracer to monitors and read exact cycle timestamps back out.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    source: str
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.cycle:>10}] {self.source:<24} {self.kind:<16} {extras}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (fields key-sorted for stability)."""
        return {"cycle": self.cycle, "source": self.source,
                "kind": self.kind,
                "fields": dict(sorted(self.fields.items()))}


class Tracer:
    """Bounded in-memory event recorder.

    Parameters
    ----------
    limit:
        Maximum number of retained events (oldest dropped first).  ``None``
        retains everything — fine for unit tests, unwise for 10M-cycle runs.
    enabled:
        Tracers can be constructed disabled so call sites do not need
        ``if tracer:`` guards; :meth:`record` is then a no-op.
    """

    def __init__(self, limit: Optional[int] = 100_000,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: Deque[TraceEvent] = deque(maxlen=limit)
        self.dropped = 0

    def record(self, cycle: int, source: str, kind: str, **fields: Any) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        if (self._events.maxlen is not None
                and len(self._events) == self._events.maxlen):
            self.dropped += 1
        self._events.append(TraceEvent(cycle, source, kind, fields))

    # ------------------------------------------------------------------

    def events(self, source: Optional[str] = None,
               kind: Optional[str] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None
               ) -> List[TraceEvent]:
        """Return the retained events, optionally filtered."""
        selected: Iterable[TraceEvent] = self._events
        if source is not None:
            selected = (e for e in selected if e.source == source)
        if kind is not None:
            selected = (e for e in selected if e.kind == kind)
        if predicate is not None:
            selected = (e for e in selected if predicate(e))
        return list(selected)

    def last(self, kind: Optional[str] = None) -> Optional[TraceEvent]:
        """The most recent (optionally kind-filtered) event, or ``None``."""
        for event in reversed(self._events):
            if kind is None or event.kind == kind:
                return event
        return None

    def clear(self) -> None:
        """Drop all retained events."""
        self._events.clear()
        self.dropped = 0

    def dump(self) -> str:
        """All retained events as newline-separated text."""
        return "\n".join(str(event) for event in self._events)

    def as_dicts(self) -> List[Dict[str, Any]]:
        """All retained events as JSON-friendly dicts, in order."""
        return [event.as_dict() for event in self._events]

    def to_json(self) -> str:
        """Serialize the retained events as an indented JSON array.

        The output is byte-stable for identical event streams (sorted
        field keys, fixed indentation), so it can be diffed against a
        checked-in golden trace.
        """
        return json.dumps(self.as_dicts(), indent=2, sort_keys=True)

    def attach_channel(self, channel, source: str,
                       on: Iterable[str] = ("push", "pop")) -> None:
        """Record every push and/or pop of ``channel`` as an event.

        Purely observational: subscribing never perturbs the traffic, so
        traces taken through this helper are identical whichever kernel
        path (reference or fast) produced them.
        """
        def _describe(item) -> Dict[str, Any]:
            fields: Dict[str, Any] = {}
            for attr in ("address", "length", "txn_id", "last"):
                value = getattr(item, attr, None)
                if value is not None:
                    fields[attr] = value
            resp = getattr(item, "resp", None)
            if resp is not None:
                fields["resp"] = getattr(resp, "name", str(resp))
            return fields

        for action in on:
            if action == "push":
                on_push = (lambda cycle, item: self.record(
                    cycle, source, "push", **_describe(item)))
                channel.subscribe_push(on_push)
            elif action == "pop":
                on_pop = (lambda cycle, item: self.record(
                    cycle, source, "pop", **_describe(item)))
                channel.subscribe_pop(on_pop)
            else:
                raise ValueError(
                    f"attach_channel actions are 'push'/'pop', got {action!r}")

    def __len__(self) -> int:
        return len(self._events)
