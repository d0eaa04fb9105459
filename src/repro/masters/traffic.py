"""Synthetic traffic generators.

Three archetypes used throughout the evaluation and the isolation studies:

* :class:`GreedyTrafficGenerator` — a "bandwidth stealer": keeps the bus
  saturated with back-to-back jobs, optionally with very long bursts.  This
  is the misbehaving/low-criticality HA of the paper's motivation.
* :class:`PeriodicTrafficGenerator` — a well-behaved real-time HA: a fixed
  amount of traffic every period, with deadline-miss accounting.
* :class:`RandomTrafficGenerator` — seeded stochastic arrivals for
  robustness testing.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..sim.errors import ConfigurationError
from .engine import AxiMasterEngine, Job

#: the buffer every :class:`PeriodicTrafficGenerator` release reads
PERIODIC_ADDRESS = 0x5000_0000
#: the address window :class:`RandomTrafficGenerator` draws pages from
RANDOM_WINDOW_BASE = 0x6000_0000
RANDOM_WINDOW_BYTES = 1 << 24


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
        self.on_job_complete(self._replenish)

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

    def _replenish(self, job: Job, cycle: int) -> None:
        self._inflight -= 1
        if self.enabled:
            self._issue_one()

    def tick(self, cycle: int) -> bool:
        # replenishment normally happens in the job-completion callback;
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

    @property
    def miss_ratio(self) -> float:
        """Fraction of releases that found the previous job unfinished."""
        return self.deadline_misses / self.releases if self.releases else 0.0


class RandomTrafficGenerator(AxiMasterEngine):
    """Stochastic master with geometric inter-arrival gaps (seeded).

    Each arrival enqueues a read or write of a random multiple of the bus
    width between ``min_bytes`` and ``max_bytes``, at a random 4 KiB page
    of the :data:`RANDOM_WINDOW_BYTES` window at
    :data:`RANDOM_WINDOW_BASE`.
    """

    def __init__(self, sim, name: str, link, arrival_probability: float,
                 min_bytes: int = 64, max_bytes: int = 4096,
                 write_probability: float = 0.5,
                 seed: int = 1, **kwargs) -> None:
        super().__init__(sim, name, link, **kwargs)
        if not 0.0 < arrival_probability <= 1.0:
            raise ConfigurationError(
                "arrival_probability must be in (0, 1]")
        self.arrival_probability = arrival_probability
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes
        self.write_probability = write_probability
        self._rng = random.Random(seed)
        self.arrivals = 0

    def _random_job(self) -> None:
        beat = self.link.data_bytes
        span = max(1, (self.max_bytes - self.min_bytes) // beat)
        nbytes = self.min_bytes + self._rng.randrange(span + 1) * beat
        nbytes = max(beat, (nbytes // beat) * beat)
        address = (RANDOM_WINDOW_BASE
                   + self._rng.randrange(RANDOM_WINDOW_BYTES // 4096) * 4096)
        self.arrivals += 1
        if self._rng.random() < self.write_probability:
            self.enqueue_write(address, nbytes, label="random")
        else:
            self.enqueue_read(address, nbytes, label="random")

    def tick(self, cycle: int) -> bool:
        if self._rng.random() < self.arrival_probability:
            self._random_job()
        super().tick(cycle)
        # never idle: every tick draws from the RNG stream
        return False


def mixed_fleet(sim, links: List) -> List[AxiMasterEngine]:
    """Convenience factory: one generator archetype per provided link.

    Cycles through greedy / periodic / random archetypes; used by stress
    tests that want N heterogeneous masters quickly.
    """
    fleet: List[AxiMasterEngine] = []
    for index, link in enumerate(links):
        archetype = index % 3
        if archetype == 0:
            fleet.append(GreedyTrafficGenerator(
                sim, f"greedy{index}", link, job_bytes=4096, depth=2))
        elif archetype == 1:
            fleet.append(PeriodicTrafficGenerator(
                sim, f"periodic{index}", link, period=2000,
                job_bytes=2048))
        else:
            fleet.append(RandomTrafficGenerator(
                sim, f"random{index}", link, arrival_probability=0.02,
                seed=7 + index))
    return fleet
