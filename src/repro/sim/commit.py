"""The end-of-cycle step both kernel loops share.

A push stamps its item with its ready cycle when it is made, so nothing
is left to deliver at the end of a cycle: the step only frees the slots
that this cycle's pops released (registered-full semantics) and clears
the dirty flags.  Both ``Simulator._run_reference`` and
``Simulator._run_fast`` hand their whole dirty list to
:meth:`CommitCohorts.flush` once per cycle that has one, so there is one
end-of-cycle body.  The fast loop counts the batches in
:class:`~repro.sim.KernelSkipStats` itself.
"""

from __future__ import annotations

from typing import List


class CommitCohorts:
    """The per-cycle end-of-cycle entry point, one per simulator.

    The class keeps its name and module path, although it no longer
    groups channels into latency cohorts, because the end-to-end
    benchmark's layer tracer wraps ``repro.sim.commit.CommitCohorts.flush``
    by that name to time the ``sim.commit`` layer, and every end-of-cycle
    step of either kernel loop goes through it.
    """

    __slots__ = ()

    def flush(self, cycle: int, dirty: List) -> None:
        """Free the slots popped this cycle on every channel in ``dirty``,
        mark each clean and clear the list."""
        for channel in dirty:
            channel._occupancy -= channel._popped_this_cycle
            channel._popped_this_cycle = 0
            channel._dirty = False
        dirty.clear()
