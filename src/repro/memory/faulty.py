"""Fault-injecting slave models for robustness testing.

Safety-critical integration requires knowing how the fabric behaves when
the *slave* side misbehaves — error responses, stalls, dead silence.
These wrappers let the test-suite (and users validating their own HAs)
inject such faults deterministically.
"""

from __future__ import annotations

import random
from typing import Optional

from ..axi.types import Resp
from ..sim.errors import ConfigurationError
from .dram import MemorySubsystem


class FaultInjectingMemory(MemorySubsystem):
    """Memory subsystem with deterministic, seeded fault injection.

    Parameters (beyond :class:`MemorySubsystem`)
    --------------------------------------------
    error_rate:
        Probability that a served beat draws SLVERR.  Each served beat
        draws once, before it is pushed: a read beat carries its own
        response, and a write's B carries the worst response of its
        beats.
    error_window:
        Optional ``(base, end)`` address range; faults fire only on
        beats whose address lies inside it (models one bad device
        behind the decoder).
    stall_rate / stall_cycles:
        Probability of freezing the data pipeline for ``stall_cycles``
        before serving a beat (models controller hiccups / refresh).
    dead_after_beats:
        Deterministic hard failure: once this many beats have been
        served the data pipeline goes permanently silent (commands are
        still accepted and queue up, exactly like a wedged controller
        whose bus interface still acks).  :meth:`revive` undoes it.
    freeze_window:
        Deterministic transient failure: an absolute ``(start, end)``
        cycle range during which the data pipeline serves nothing.
        Unlike ``stall_rate`` this draws no randomness, so watchdog
        trip cycles are exactly reproducible.
    seed:
        All randomness is seeded — runs are reproducible.
    """

    def __init__(self, *args, error_rate: float = 0.0,
                 error_window: Optional[tuple] = None,
                 stall_rate: float = 0.0, stall_cycles: int = 20,
                 dead_after_beats: Optional[int] = None,
                 freeze_window: Optional[tuple] = None,
                 seed: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if len(self.links) != 1:
            raise ConfigurationError(
                "fault injection serves exactly one link")
        if not 0.0 <= error_rate <= 1.0:
            raise ConfigurationError("error_rate must be in [0, 1]")
        if not 0.0 <= stall_rate <= 1.0:
            raise ConfigurationError("stall_rate must be in [0, 1]")
        if stall_cycles < 1:
            raise ConfigurationError("stall_cycles must be >= 1")
        if dead_after_beats is not None and dead_after_beats < 0:
            raise ConfigurationError("dead_after_beats must be >= 0")
        if freeze_window is not None and freeze_window[0] >= freeze_window[1]:
            raise ConfigurationError(
                "freeze_window must be a (start, end) cycle range")
        self.error_rate = error_rate
        self.error_window = error_window
        self.stall_rate = stall_rate
        self.stall_cycles = stall_cycles
        self.dead_after_beats = dead_after_beats
        self.freeze_window = freeze_window
        self._rng = random.Random(seed)
        self._stalled_until = 0
        self.errors_injected = 0
        self.stalls_injected = 0

    def next_event_cycle(self, cycle: int):
        """Adds the end of an injected stall and the freeze-window
        *revive edge* to the base timers.

        Stalled and frozen advance attempts tick idle, so without these
        edges a fabric frozen alongside the memory would skip past
        them and silently never observe the revival — the targeted
        kernel-equivalence tests pin both."""
        horizon = super().next_event_cycle(cycle)
        stalled_until = self._stalled_until
        if self._current is not None and cycle < stalled_until:
            if horizon is None or stalled_until < horizon:
                horizon = stalled_until
        fw = self.freeze_window
        if fw is not None and cycle < fw[1]:
            edge = fw[1] if cycle >= fw[0] else fw[0]
            if horizon is None or edge < horizon:
                horizon = edge
        return horizon

    # ------------------------------------------------------------------

    @property
    def is_dead(self) -> bool:
        """True once the deterministic hard-failure threshold is reached."""
        return (self.dead_after_beats is not None
                and self.beats_served >= self.dead_after_beats)

    def revive(self) -> None:
        """Clear the hard-failure state (a power-cycle, in effect)."""
        self.dead_after_beats = None
        self.sim.wake()

    def _injected_response(self, command) -> Resp:
        """SLVERR with probability ``error_rate`` for a beat inside
        ``error_window``; beats outside it draw no randomness."""
        if self.error_rate > 0.0:
            window = self.error_window
            address = command.current_address()
            if ((window is None or window[0] <= address < window[1])
                    and self._rng.random() < self.error_rate):
                self.errors_injected += 1
                return Resp.SLVERR
        return Resp.OKAY

    def _advance(self, command, cycle: int) -> bool:
        if self.is_dead:
            return True
        if (self.freeze_window is not None
                and self.freeze_window[0] <= cycle < self.freeze_window[1]):
            return True
        if cycle < self._stalled_until:
            return True
        if (self.stall_rate > 0.0
                and self._rng.random() < self.stall_rate):
            self._stalled_until = cycle + self.stall_cycles
            self.stalls_injected += 1
            return False
        # an armed stall draws from the RNG on every attempt, so the
        # attempt acted even when no beat moved
        return super()._advance(command, cycle) and self.stall_rate == 0.0
