"""The fast path's end-of-cycle channel commit.

The reference kernel commits every dirty channel through
:meth:`Channel._commit` inline.  The fast path hands its whole dirty list
to :meth:`CommitCohorts.flush` once per polled cycle instead, which
commits each channel through the same ``Channel._commit`` and counts the
batch in :class:`~repro.sim.KernelSkipStats`, so both kernels share one
commit body.
"""

from __future__ import annotations

from typing import List


class CommitCohorts:
    """The fast path's per-cycle commit entry point, one per simulator.

    The class keeps its name and module path, although it no longer
    groups channels into latency cohorts, because the end-to-end
    benchmark's layer tracer wraps ``repro.sim.commit.CommitCohorts.flush``
    by that name to time the ``sim.commit`` layer, and every fast-path
    commit goes through it.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim) -> None:
        self._sim = sim

    def flush(self, cycle: int, dirty: List) -> None:
        """Commit every channel in ``dirty`` and clear the list."""
        stats = self._sim.skip_stats
        stats.commit_batches += 1
        stats.commit_channels += len(dirty)
        for channel in dirty:
            channel._commit(cycle)
        dirty.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommitCohorts({self._sim.name!r})"
