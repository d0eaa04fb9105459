"""The fast path's end-of-cycle channel commit.

The reference kernel commits every dirty channel through
:meth:`Channel._commit`, one method call per channel per cycle.  The fast
path hands its whole dirty list to :meth:`CommitCohorts.flush` once per
polled cycle instead.  The flush applies the same rule — a push staged in
cycle *t* becomes visible at ``t + latency`` — and also performs the two
kernel-side duties that piggyback on a commit, because that is when staged
work becomes observable:

* components *watching* a committed channel (see
  :meth:`~repro.sim.Component.wake_channels`) are woken, so sleepers are
  polled exactly on the first cycle the new state is visible;
* a committed head whose ready cycle lies more than one cycle in the
  future (only possible for ``latency > 1`` channels) is scheduled on
  the kernel's :class:`~repro.sim.wakeheap.WakeHeap` — latency-1
  traffic is covered by the commit-time watcher wake alone, so hot
  unit-latency channels never touch the heap.

Semantics are identical to calling ``Channel._commit`` on each dirty
channel; ``tests/test_commit_cohorts.py`` checks the flush against it
directly.
"""

from __future__ import annotations

from typing import List


class CommitCohorts:
    """The single commit body of the fast path, one per simulator.

    The flush stamps ready cycles in plain Python rather than through a
    vectorized staging buffer: the fast path rarely has more than a
    handful of dirty channels per cycle, too few to amortize an array
    round-trip.  The class keeps its name and module path, although it no
    longer groups channels into latency cohorts, because the end-to-end
    benchmark's layer tracer wraps ``repro.sim.commit.CommitCohorts.flush``
    by that name to time the ``sim.commit`` layer, and every fast-path
    commit goes through it.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim) -> None:
        self._sim = sim

    def flush(self, cycle: int, dirty: List) -> None:
        """Commit every channel in ``dirty`` and clear the list.

        Equivalent to ``for ch in dirty: ch._commit(cycle)`` plus the
        kernel duties described in the module docstring.
        """
        sim = self._sim
        stats = sim.skip_stats
        stats.commit_batches += 1
        stats.commit_channels += len(dirty)
        heap_push = sim._wakeheap.push
        wake = sim._wake_component
        # waking never puts a component to sleep, so one check suffices
        sleeping = True if sim._asleep else False
        next_cycle = cycle + 1
        for channel in dirty:
            staged = channel._staged
            queue = channel._queue
            if staged:
                ready = cycle + channel.latency
                if len(staged) == 1:
                    queue.append((ready, staged[0]))
                else:
                    queue.extend([(ready, item) for item in staged])
                staged.clear()
            channel._occupancy -= channel._popped_this_cycle
            channel._popped_this_cycle = 0
            channel._dirty = False
            if queue and queue[0][0] > next_cycle:
                if heap_push(channel, queue[0][0]):
                    stats.heap_pushes += 1
            if sleeping:
                for component in channel._watchers:
                    if component._k_asleep:
                        wake(component)
        dirty.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommitCohorts({self._sim.name!r})"
