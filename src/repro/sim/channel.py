"""Registered FIFO links between hardware components.

A :class:`Channel` models a synchronous, point-to-point connection: a FIFO
whose output side is separated from its input side by a configurable number
of clock cycles (``latency``).  It is the only way components exchange data
in this library, and its registered timing is what makes simulation
results independent of the order in which components are ticked:

* An item pushed during cycle *t* enters the queue at once, stamped with
  its ready cycle ``t + latency``; consumers only see a head whose stamp
  has come due, so it stays invisible until cycle ``t + latency`` however
  the components are ordered.
* :meth:`can_push` judges fullness against the occupancy at the *start* of
  the cycle — an item popped during the current cycle frees its slot only
  at the end of the cycle, exactly like a registered ``full`` flag in RTL.

With ``latency=1`` a channel behaves like the proactive (always-ready when
not full) circular buffers used by the eFIFO modules of the AXI
HyperConnect: one cycle of propagation delay and a sustained throughput of
one item per cycle (for ``capacity >= 2``).

A chain of *k* unit-latency channels therefore introduces exactly *k* cycles
of propagation latency, which is how the paper's per-module latency budget
(one clock per eFIFO/TS/EXBAR stage) is modelled.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .errors import ChannelError, ConfigurationError

#: Capacity value meaning "no backpressure" (an unbounded queue).
UNBOUNDED: Optional[int] = None


class Channel:
    """A point-to-point registered FIFO link.

    Parameters
    ----------
    sim:
        The owning :class:`repro.sim.Simulator`; the channel registers itself
        with it, and its clock stamps every push.
    name:
        Human-readable identifier used in traces and error messages.
    latency:
        Clock cycles between a push and the item becoming poppable.  Must be
        at least 1 (a purely combinational path is not representable — and
        not needed, since the paper's modules are all registered).
    capacity:
        Maximum occupancy (queued items plus this cycle's pops).  ``None``
        means unbounded.  For full throughput a latency-``L`` channel
        needs ``capacity >= L + 1``.
    """

    __slots__ = (
        "name",
        "latency",
        "capacity",
        "_sim",
        "_queue",
        "_popped_this_cycle",
        "_occupancy",
        "_dirty",
        "pushed_total",
        "popped_total",
        "_push_listeners",
        "_pop_listeners",
    )

    def __init__(self, sim, name: str, latency: int = 1,
                 capacity: Optional[int] = 16) -> None:
        if latency < 1:
            raise ConfigurationError(
                f"channel {name!r}: latency must be >= 1, got {latency}")
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"channel {name!r}: capacity must be >= 1 or None, "
                f"got {capacity}")
        self.name = name
        self.latency = latency
        self.capacity = capacity
        self._sim = sim
        #: pushed items as (ready_cycle, payload) in FIFO order; one
        #: latency per channel keeps the stamps non-decreasing.  Only
        #: ever changed in place, never rebound: the EXBAR captures the
        #: deques of its per-port TS queues once, at construction
        self._queue: Deque[Tuple[int, Any]] = deque()
        #: items popped this cycle (their slot frees at the end of it)
        self._popped_this_cycle = 0
        #: running ``len(_queue) + _popped_this_cycle``, maintained
        #: incrementally so backpressure checks are a single integer
        #: compare (pops leave it unchanged until the end of the cycle
        #: frees the slots — registered-full semantics)
        self._occupancy = 0
        #: activity flag: True while the channel was pushed, popped or
        #: cleared this cycle and is queued on the simulator's dirty
        #: list for the end-of-cycle step.  That step is a no-op on a
        #: clean channel, so the kernel only visits dirty ones.
        self._dirty = False
        self.pushed_total = 0
        self.popped_total = 0
        #: observation hooks: callables ``fn(cycle, item)`` invoked on
        #: push/pop.  Used by protocol checkers and monitors; they must not
        #: mutate the channel.
        self._push_listeners: List[Any] = []
        self._pop_listeners: List[Any] = []
        sim._register_channel(self)

    # ------------------------------------------------------------------
    # observation (monitors / protocol checkers)
    # ------------------------------------------------------------------

    def subscribe_push(self, callback) -> None:
        """Invoke ``callback(cycle, item)`` whenever an item is pushed."""
        self._push_listeners.append(callback)

    def subscribe_pop(self, callback) -> None:
        """Invoke ``callback(cycle, item)`` whenever an item is popped."""
        self._pop_listeners.append(callback)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    def can_push(self, count: int = 1) -> bool:
        """Return ``True`` if ``count`` more items fit this cycle.

        Occupancy is measured against the start-of-cycle snapshot: slots
        freed by pops during the current cycle do not count until the next
        cycle (registered-full semantics).
        """
        capacity = self.capacity
        return capacity is None or self._occupancy + count <= capacity

    def push(self, item: Any) -> None:
        """Queue ``item`` for delivery ``latency`` cycles from now."""
        capacity = self.capacity
        if capacity is not None and self._occupancy >= capacity:
            raise ChannelError(
                f"push to full channel {self.name!r} "
                f"(capacity={self.capacity}) at cycle {self._sim.now}")
        self._queue.append((self._sim._cycle + self.latency, item))
        self._occupancy += 1
        self.pushed_total += 1
        if not self._dirty:
            self._dirty = True
            sim = self._sim
            sim._dirty_channels.append(self)
            sim._quiescent_until = 0
        if self._push_listeners:
            now = self._sim._cycle
            for callback in self._push_listeners:
                callback(now, item)

    def try_push(self, item: Any) -> bool:
        """Push ``item`` if it fits this cycle; return whether it did.

        Single-check fast path for the common ``if can_push(): push()``
        idiom: the fullness check and the push are one operation, with
        identical registered-full semantics.
        """
        capacity = self.capacity
        if capacity is not None and self._occupancy >= capacity:
            return False
        self._queue.append((self._sim._cycle + self.latency, item))
        self._occupancy += 1
        self.pushed_total += 1
        if not self._dirty:
            self._dirty = True
            sim = self._sim
            sim._dirty_channels.append(self)
            sim._quiescent_until = 0
        if self._push_listeners:
            now = self._sim._cycle
            for callback in self._push_listeners:
                callback(now, item)
        return True

    def amend_last_push(self, mutate) -> bool:
        """Apply ``mutate(item)`` to the item pushed last, this cycle.

        Fault injectors and similar decorators sometimes need to rewrite
        a payload *after* the producing component pushed it this cycle —
        e.g. poisoning a data beat's response code.  This is the public
        way to do that: it only touches an item pushed in the current
        cycle (its stamp is ``now + latency``; anything older may already
        be visible and cannot be amended) and returns ``False`` when
        there is no such item.

        A push is never visible in its own cycle, so consumers can never
        observe the un-amended item — on either kernel path.
        """
        queue = self._queue
        if not queue or queue[-1][0] != self._sim._cycle + self.latency:
            return False
        mutate(queue[-1][1])
        return True

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------

    def can_pop(self) -> bool:
        """Return ``True`` if an item is visible at the current cycle."""
        queue = self._queue
        return bool(queue) and queue[0][0] <= self._sim._cycle

    def pop(self) -> Any:
        """Remove and return the head item."""
        if not self.can_pop():
            raise ChannelError(
                f"pop from empty channel {self.name!r} at cycle "
                f"{self._sim.now}")
        __, item = self._queue.popleft()
        self._popped_this_cycle += 1
        self.popped_total += 1
        if not self._dirty:
            self._dirty = True
            sim = self._sim
            sim._dirty_channels.append(self)
            sim._quiescent_until = 0
        if self._pop_listeners:
            now = self._sim._cycle
            for callback in self._pop_listeners:
                callback(now, item)
        return item

    def try_pop(self) -> Any:
        """Pop and return the head item if visible, else ``None``.

        Single-check fast path for ``if can_pop(): pop()``.  Only usable
        where a ``None`` payload cannot occur (true for all AXI beat
        traffic, whose payloads are beat objects).
        """
        queue = self._queue
        if not queue or queue[0][0] > self._sim._cycle:
            return None
        __, item = queue.popleft()
        self._popped_this_cycle += 1
        self.popped_total += 1
        if not self._dirty:
            self._dirty = True
            sim = self._sim
            sim._dirty_channels.append(self)
            sim._quiescent_until = 0
        if self._pop_listeners:
            now = self._sim._cycle
            for callback in self._pop_listeners:
                callback(now, item)
        return item

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of items queued, visible or in flight (this cycle's
        pushes included)."""
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        """Start-of-cycle occupancy used for backpressure decisions."""
        return self._occupancy

    @property
    def is_idle(self) -> bool:
        """True when no item is queued or in flight."""
        return not self._queue

    def drain(self) -> List[Any]:
        """Pop every currently visible item (helper for sinks and tests)."""
        items = []
        while self.can_pop():
            items.append(self.pop())
        return items

    def clear(self) -> None:
        """Drop all contents immediately (used by reset logic)."""
        self._queue.clear()
        self._popped_this_cycle = 0
        self._occupancy = 0
        if not self._dirty:
            self._dirty = True
            sim = self._sim
            sim._dirty_channels.append(self)
            sim._quiescent_until = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Channel({self.name!r}, latency={self.latency}, "
                f"capacity={self.capacity}, queued={len(self._queue)})")
