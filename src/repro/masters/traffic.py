"""Synthetic traffic generators.

Two archetypes used throughout the evaluation and the isolation studies:

* :class:`GreedyTrafficGenerator` — a "bandwidth stealer": keeps the bus
  saturated with back-to-back jobs, optionally with very long bursts.  This
  is the misbehaving/low-criticality HA of the paper's motivation.
* :class:`PeriodicTrafficGenerator` — a well-behaved real-time HA: a fixed
  amount of traffic every period, with deadline-miss accounting.
"""

from __future__ import annotations

from typing import Optional

from ..sim.errors import ConfigurationError
from .engine import AxiMasterEngine, Job

#: the buffer every :class:`PeriodicTrafficGenerator` release reads
PERIODIC_ADDRESS = 0x5000_0000


class GreedyTrafficGenerator(AxiMasterEngine):
    """Saturating master: always keeps ``depth`` jobs in flight.

    Alternates reads and writes according to ``write_fraction`` over a
    circular address window.
    """

    def __init__(self, sim, name: str, link, job_bytes: int = 1 << 16,
                 window_base: int = 0x4000_0000,
                 window_bytes: int = 1 << 22,
                 depth: int = 2, write_fraction: float = 0.0,
                 **kwargs) -> None:
        super().__init__(sim, name, link, **kwargs)
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        self.job_bytes = job_bytes
        self.window_base = window_base
        self.window_bytes = window_bytes
        self.depth = depth
        self.write_fraction = write_fraction
        self._cursor = 0
        self._issued_jobs = 0
        self._writes_issued = 0
        self._inflight = 0
        self.enabled = True

    def _next_address(self) -> int:
        address = self.window_base + self._cursor
        self._cursor = (self._cursor + self.job_bytes) % self.window_bytes
        return address

    def _issue_one(self) -> None:
        self._issued_jobs += 1
        self._inflight += 1
        writes_due = int(self._issued_jobs * self.write_fraction)
        if self._writes_issued < writes_due:
            self._writes_issued += 1
            self.enqueue_write(self._next_address(), self.job_bytes,
                               label="greedy")
        else:
            self.enqueue_read(self._next_address(), self.job_bytes,
                              label="greedy")

    def _job_completed(self, job: Job, cycle: int) -> None:
        self._inflight -= 1
        if self.enabled:
            self._issue_one()

    def tick(self, cycle: int) -> bool:
        # replenishment normally happens in the job-completion hook;
        # this loop only fills the pipeline at start-up or after a
        # re-enable, so the steady-state cost is one comparison (the
        # explicit base-class call skips building a super() proxy in the
        # hottest tick of every bandwidth experiment).  It issues even
        # when the engine is inactive, before the ``active`` early-out.
        if self._inflight < self.depth and self.enabled:
            while self._inflight < self.depth:
                self._issue_one()
            AxiMasterEngine.tick(self, cycle)
            return False
        return AxiMasterEngine.tick(self, cycle)

    def reset(self) -> None:
        super().reset()
        self._inflight = 0


class PeriodicTrafficGenerator(AxiMasterEngine):
    """Real-time HA: a ``job_bytes`` read every ``period`` cycles.

    Every release reads the same buffer at :data:`PERIODIC_ADDRESS`.
    A new job is released at every period boundary; if the previous job is
    still running at its deadline (= next release), a deadline miss is
    recorded and the release is queued (no job is dropped — that matches a
    streaming accelerator with input buffering).
    """

    def __init__(self, sim, name: str, link, period: int,
                 job_bytes: int, **kwargs) -> None:
        super().__init__(sim, name, link, **kwargs)
        if period < 1:
            raise ConfigurationError("period must be >= 1 cycle")
        self.period = period
        self.job_bytes = job_bytes
        self.deadline_misses = 0
        self.releases = 0

    def tick(self, cycle: int) -> bool:
        if cycle % self.period:
            return super().tick(cycle)
        # a release happens at every period boundary, even if the engine
        # itself has nothing in flight
        if self.busy:
            self.deadline_misses += 1
        self.releases += 1
        self.enqueue_read(PERIODIC_ADDRESS, self.job_bytes,
                          label="periodic")
        super().tick(cycle)
        return False

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """The next period boundary is a guaranteed internal event."""
        next_release = cycle + self.period - (cycle % self.period)
        hint = super().next_event_cycle(cycle)
        if hint is not None and hint < next_release:
            return hint
        return next_release
