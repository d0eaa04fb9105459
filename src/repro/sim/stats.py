"""Statistics collectors used by monitors and benchmarks.

The collectors are deliberately dependency-free (standard library only)
so the core library stays importable anywhere; benchmarks may post-process
with whatever they like.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class OnlineStats:
    """Streaming count/min/max/mean (running mean).

    Suitable for millions of samples: O(1) memory, numerically stable.
    """

    __slots__ = ("count", "minimum", "maximum", "_mean")

    def __init__(self) -> None:
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._mean = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self._mean += (value - self._mean) / self.count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self._mean if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Summary as a plain dict (for reports and JSON dumps)."""
        return {
            "count": self.count,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": self.mean,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OnlineStats(count={self.count}, min={self.minimum}, "
                f"max={self.maximum}, mean={self.mean:.3f})")


class Histogram:
    """Fixed-bin-width integer histogram (e.g. of latencies in cycles)."""

    def __init__(self, bin_width: int = 1) -> None:
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        self.bin_width = bin_width
        self._bins: Dict[int, int] = {}
        self.stats = OnlineStats()

    def add(self, value: float) -> None:
        """Count one sample."""
        self.stats.add(value)
        index = int(value // self.bin_width)
        self._bins[index] = self._bins.get(index, 0) + 1

    def bins(self) -> List[tuple]:
        """Sorted ``(bin_lower_bound, count)`` pairs."""
        return [(index * self.bin_width, count)
                for index, count in sorted(self._bins.items())]

    def percentile(self, fraction: float) -> float:
        """Approximate percentile (bin lower bound containing the rank)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.stats.count == 0:
            return 0.0
        rank = fraction * self.stats.count
        seen = 0
        for lower, count in self.bins():
            seen += count
            if seen >= rank:
                return float(lower)
        return float(self.bins()[-1][0])


class KernelSkipStats:
    """Per-run accounting of the fast kernel path's skipped work.

    The counters describe *simulated* cycles and component ticks:

    * ``cycles_total`` — cycles advanced since the last :meth:`reset`.
    * ``cycles_polled`` — cycles executed the long way (every
      component ticked, dirty channels committed).
    * ``cycles_frozen`` — cycles crossed inside a frozen horizon, where
      nothing was ticked or committed at all.
    * ``ticks_run`` / ``ticks_skipped`` — polled ticks that may have
      acted versus polled ticks that reported idle (a return of exactly
      ``True``; see :meth:`~repro.sim.Component.tick`).  A tick reported
      idle still ran: "skipped" is the work the report let the kernel
      treat as a no-op.  Reports are read only after a cycle that
      committed nothing; the ticks of other polled cycles count as run.
    * ``horizon_scans`` — how many times the kernel froze the system and
      scanned the channel heads and component hints for a bulk-skip
      horizon.
    * ``ticks_slept`` / ``heap_pushes`` / ``heap_pops`` — always 0: the
      kernel puts no component to sleep and keeps no wake heap.  The
      counters stay only because code that reads them by name (the
      end-to-end benchmark's layer tracer) still expects them.
    * ``commit_batches`` / ``commit_channels`` — fast-path commit flushes
      (one per polled cycle with dirty channels, each a call of
      :meth:`~repro.sim.commit.CommitCohorts.flush`) and the total dirty
      channels committed across them.
    * ``tlm_epochs`` / ``tlm_cycles_skipped`` — transaction-level
      fast-forward epochs committed and the simulated cycles they crossed
      without cycle-by-cycle execution (``Simulator(tlm=True)`` only;
      disjoint from ``cycles_total``, which counts cycle-accurate work).
    * ``tlm_rollbacks`` — epochs that were predicted, speculatively
      executed, and then rolled back to replay cycle-accurately.
    * ``tlm_demotions`` — per-reason counts of epoch declines/demotions
      (e.g. ``"fault"``, ``"listener"``, ``"short-period"``).

    ``ticks_skipped`` deliberately excludes frozen cycles; the headline
    "work avoided" figure is ``work_avoided_fraction`` which folds both in.
    """

    __slots__ = ("cycles_total", "cycles_polled", "cycles_frozen",
                 "ticks_run", "ticks_skipped", "ticks_slept",
                 "horizon_scans", "heap_pushes", "heap_pops",
                 "commit_batches", "commit_channels", "tlm_epochs",
                 "tlm_cycles_skipped", "tlm_rollbacks", "tlm_demotions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.cycles_total = 0
        self.cycles_polled = 0
        self.cycles_frozen = 0
        self.ticks_run = 0
        self.ticks_skipped = 0
        self.ticks_slept = 0
        self.horizon_scans = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.commit_batches = 0
        self.commit_channels = 0
        # transaction-level fast-forward accounting (Simulator(tlm=True))
        self.tlm_epochs = 0
        self.tlm_cycles_skipped = 0
        self.tlm_rollbacks = 0
        self.tlm_demotions: Dict[str, int] = {}

    @property
    def work_avoided_fraction(self) -> float:
        """Fraction of potential component ticks that were not executed."""
        n_per_cycle = 0
        polled_ticks = self.ticks_run + self.ticks_skipped
        if self.cycles_polled:
            n_per_cycle = polled_ticks / self.cycles_polled
        potential = polled_ticks + self.cycles_frozen * n_per_cycle
        if potential <= 0:
            return 0.0
        return 1.0 - self.ticks_run / potential

    def as_dict(self) -> Dict[str, float]:
        """Counters as a plain dict (for reports and JSON dumps)."""
        return {
            "cycles_total": self.cycles_total,
            "cycles_polled": self.cycles_polled,
            "cycles_frozen": self.cycles_frozen,
            "ticks_run": self.ticks_run,
            "ticks_skipped": self.ticks_skipped,
            "ticks_slept": self.ticks_slept,
            "horizon_scans": self.horizon_scans,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "commit_batches": self.commit_batches,
            "commit_channels": self.commit_channels,
            "work_avoided_fraction": self.work_avoided_fraction,
            "tlm_epochs": self.tlm_epochs,
            "tlm_cycles_skipped": self.tlm_cycles_skipped,
            "tlm_rollbacks": self.tlm_rollbacks,
            "tlm_demotions": dict(self.tlm_demotions),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelSkipStats(cycles={self.cycles_total}, "
                f"frozen={self.cycles_frozen}, ticks_run={self.ticks_run}, "
                f"ticks_skipped={self.ticks_skipped})")


class PortFaultStats:
    """Per-port accounting of watchdog containment work.

    Kept by every :class:`~repro.hyperconnect.supervisor.TransactionSupervisor`
    in the same always-on, dependency-free style as
    :class:`KernelSkipStats`:

    * ``watchdog_trips`` / ``protocol_trips`` — containment entries, by
      trigger (transaction age timeout vs. illegal request at ingest).
    * ``orphans_completed`` — transactions the master had issued that were
      finished with synthesized error responses instead of real data.
    * ``synth_r_beats`` / ``synth_b_beats`` — synthesized response beats
      pushed upstream so masters never hang.
    * ``drained_requests`` / ``drained_w_beats`` — requests and write
      beats swallowed out of the decoupled port's eFIFO during
      containment.
    """

    __slots__ = ("watchdog_trips", "protocol_trips", "orphans_completed",
                 "synth_r_beats", "synth_b_beats", "drained_requests",
                 "drained_w_beats")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.watchdog_trips = 0
        self.protocol_trips = 0
        self.orphans_completed = 0
        self.synth_r_beats = 0
        self.synth_b_beats = 0
        self.drained_requests = 0
        self.drained_w_beats = 0

    @property
    def trips(self) -> int:
        """Total containment entries, whatever the trigger."""
        return self.watchdog_trips + self.protocol_trips

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for reports and JSON dumps)."""
        return {
            "watchdog_trips": self.watchdog_trips,
            "protocol_trips": self.protocol_trips,
            "orphans_completed": self.orphans_completed,
            "synth_r_beats": self.synth_r_beats,
            "synth_b_beats": self.synth_b_beats,
            "drained_requests": self.drained_requests,
            "drained_w_beats": self.drained_w_beats,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PortFaultStats(trips={self.trips}, "
                f"orphans={self.orphans_completed})")


class RateCounter:
    """Counts events and converts them to a per-second rate.

    Used for the paper's "rate per second" performance indexes (CHaiDNN
    frames per second, DMA jobs per second).
    """

    def __init__(self, clock_hz: float) -> None:
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        self.clock_hz = clock_hz
        self.events = 0
        self._first_cycle: Optional[int] = None
        self._last_cycle: Optional[int] = None

    def record(self, cycle: int) -> None:
        """Record one event completion at ``cycle``."""
        if self._first_cycle is None:
            self._first_cycle = cycle
        self._last_cycle = cycle
        self.events += 1

    def rate(self, window_cycles: Optional[int] = None) -> float:
        """Events per second over the observation window.

        If ``window_cycles`` is not given, the window spans from cycle 0 to
        the last recorded event.
        """
        if self.events == 0:
            return 0.0
        if window_cycles is None:
            window_cycles = self._last_cycle or 1
        if window_cycles <= 0:
            return 0.0
        return self.events * self.clock_hz / window_cycles
