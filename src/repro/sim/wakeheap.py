"""Lazily-invalidated min-heap of future wake events.

The fast kernel path used to compute every bulk-skip horizon with a full
scan over all channels and components (``Simulator._horizon``).  The
:class:`WakeHeap` replaces that scan with an event heap:

* when a sleep-capable component goes quiescent, its
  :meth:`~repro.sim.Component.next_event_cycle` hint is pushed as a heap
  entry;
* when a channel commits (or exposes, via a pop) a head item whose ready
  cycle lies more than one cycle in the future, the channel itself is
  pushed at that ready cycle;
* each polled cycle the kernel pops the due entries and wakes their
  subjects, and a frozen horizon is just the heap minimum (plus the
  fresh hints of the components that are still awake).

Entries are **lazy**: nothing is ever removed from the middle of the
heap.  Instead each subject tracks its earliest *live* entry cycle in a
side table; pushes that would land at or after an existing live entry
are elided, and popped entries that no longer match the side table are
dropped as stale.  This makes invalidation O(1) and keeps the heap free
of unbounded duplicate churn.

Waking a subject early (or spuriously) is always harmless — the woken
component merely ticks idle and goes back to sleep — so the heap never
needs to *guarantee* staleness detection, only to guarantee that no
genuine wake event is lost: an entry at cycle ``c`` for subject ``s``
survives until some entry for ``s`` at a cycle ``<= c`` has fired.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

_FOREVER = float("inf")


class WakeHeap:
    """Min-heap of ``(cycle, seq, subject)`` wake events.

    ``subject`` is opaque to the heap (the kernel pushes components and
    channels); ``seq`` is a monotonically increasing tiebreaker so that
    subjects never need to be comparable.
    """

    __slots__ = ("_heap", "_live", "_seq",
                 "pushes", "elided", "pops", "stale_drops")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Any]] = []
        #: subject -> earliest cycle for which a live entry exists
        self._live: Dict[Any, int] = {}
        self._seq = 0
        # accounting (mirrored into KernelSkipStats by the kernel)
        self.pushes = 0
        self.elided = 0
        self.pops = 0
        self.stale_drops = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ------------------------------------------------------------------

    def push(self, subject: Any, cycle: int) -> bool:
        """Schedule a wake for ``subject`` at ``cycle``.

        Returns ``True`` if an entry was actually added.  A push at or
        after the subject's existing live entry is elided — the earlier
        entry already guarantees a wake no later than this one, and the
        subject re-schedules itself when it fires.  A push *earlier*
        than the live entry goes in (this is how a hint that moves
        earlier after an external event is honoured); the superseded
        entry becomes stale and is dropped when it surfaces.
        """
        live = self._live
        known = live.get(subject)
        if known is not None and known <= cycle:
            self.elided += 1
            return False
        live[subject] = cycle
        self._seq += 1
        heappush(self._heap, (cycle, self._seq, subject))
        self.pushes += 1
        return True

    def invalidate(self, subject: Any) -> None:
        """Forget the subject's live entry without touching the heap.

        Any entries already queued for the subject become stale: they
        will surface as (harmless) spurious wakes or be dropped.  Used
        when a subject is woken by some other mechanism and will
        re-schedule itself with fresh information when it next sleeps.
        """
        self._live.pop(subject, None)

    def peek_cycle(self) -> float:
        """Earliest live entry cycle, or ``inf`` when empty.

        Stale heads are popped off on the way, so the returned value is
        a genuine future wake event (as of the entries' push times).
        """
        heap = self._heap
        live = self._live
        while heap:
            cycle, _, subject = heap[0]
            if live.get(subject) == cycle:
                return cycle
            heappop(heap)
            self.stale_drops += 1
        return _FOREVER

    def pop_due(self, cycle: int) -> List[Any]:
        """Pop and return every subject whose entry is due at ``cycle``.

        Stale entries encountered along the way are silently dropped.
        A subject appears at most once (duplicates cannot both be live).
        """
        due: List[Any] = []
        heap = self._heap
        live = self._live
        while heap and heap[0][0] <= cycle:
            entry_cycle, _, subject = heappop(heap)
            if live.get(subject) == entry_cycle:
                del live[subject]
                due.append(subject)
                self.pops += 1
            else:
                self.stale_drops += 1
        return due

    def clear(self) -> None:
        """Drop every entry (used when the kernel rebuilds its wiring)."""
        self._heap.clear()
        self._live.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WakeHeap(entries={len(self._heap)}, "
                f"live={len(self._live)}, pushes={self.pushes}, "
                f"stale_drops={self.stale_drops})")
