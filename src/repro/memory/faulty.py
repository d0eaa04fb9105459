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
        Probability that a served beat/response carries SLVERR.
    error_window:
        Optional ``(base, end)`` address range; faults fire only inside
        it (models one bad device behind the decoder).
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

    def _fault_applies(self, address: int) -> bool:
        if self.error_window is None:
            return True
        base, end = self.error_window
        return base <= address < end

    def _maybe_error(self, address: int) -> Resp:
        if (self.error_rate > 0.0 and self._fault_applies(address)
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
        before = self.beats_served
        idle = super()._advance(command, cycle)
        # fault the beat that was just emitted, if any; ``error_rate``
        # draws only then
        if self.beats_served > before:
            beat = command.beat   # INCR address of the beat just served
            resp = self._maybe_error(
                beat.address + (command.beat_index - 1) * beat.size_bytes)
            if resp is not Resp.OKAY:
                self._poison_last_emission(resp)
        # an armed stall draws from the RNG on every attempt, so the
        # attempt acted even when no beat moved
        return idle and self.stall_rate == 0.0

    def _poison_last_emission(self, resp: Resp) -> None:
        """Rewrite the response of the beat just pushed (R) or just
        scheduled (B)."""
        def _set_resp(beat):
            beat.resp = resp

        if self.link.r.amend_last_push(_set_resp):  # read beat this cycle
            return
        if self._pending_b:                        # write response due
            self._pending_b[-1][2].resp = resp
