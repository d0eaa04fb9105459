"""Misbehaving AXI masters for the fault-injection campaign.

The watchdog/containment subsystem exists because a *master* can violate
liveness just as thoroughly as a slave: stop accepting R beats and every
queue back to the memory controller fills; withhold W beats and the
write channel wedges behind the granted AW; issue a protocol-illegal
burst and an unchecked interconnect forwards the corruption downstream.
:class:`FaultInjectingMaster` models exactly these three behaviours on
top of the stock :class:`~repro.masters.engine.AxiMasterEngine`.

Determinism contract: the fault trigger is drawn **once** at
construction from a seeded RNG, never per cycle, so an idle tick stays a
true no-op and reference/fast kernel runs are bit-identical.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple, Union

from ..axi.burst import split_burst
from ..axi.port import AxiLink
from ..sim.errors import ConfigurationError
from .engine import AxiMasterEngine

#: supported misbehaviours
FAULT_MODES = ("none", "hung_r", "withheld_w", "illegal_burst")


class FaultInjectingMaster(AxiMasterEngine):
    """An :class:`AxiMasterEngine` that misbehaves on cue.

    Parameters
    ----------
    fault_mode:
        ``"hung_r"`` — after ``hang_after_beats`` R beats, stop accepting
        read data forever (ready held low).
        ``"withheld_w"`` — after ``hang_after_beats`` W beats, stop
        supplying write data forever (valid held low mid-burst).
        ``"illegal_burst"`` — skip burst legalization, so transfers that
        straddle a 4 KiB boundary are issued as single illegal bursts.
        ``"none"`` — behave exactly like the base engine.
    hang_after_beats:
        Beat count before the hang; either an exact int or an inclusive
        ``(lo, hi)`` range resolved once from ``seed``.
    persistent:
        When ``False`` (default) a hypervisor :meth:`reset` also clears
        the fault mode, modelling a transient upset fixed by reprogramming
        the accelerator.  ``True`` models a broken bitstream that refaults
        after every recovery attempt (exercises the retry bound).
    """

    def __init__(self, sim, name: str, link: AxiLink,
                 fault_mode: str = "none",
                 hang_after_beats: Union[int, Tuple[int, int]] = 16,
                 seed: int = 0, persistent: bool = False,
                 **engine_kwargs) -> None:
        super().__init__(sim, name, link, **engine_kwargs)
        if fault_mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault_mode {fault_mode!r}; "
                f"expected one of {FAULT_MODES}")
        self.fault_mode = fault_mode
        self.persistent = persistent
        if isinstance(hang_after_beats, tuple):
            lo, hi = hang_after_beats
            if not 0 <= lo <= hi:
                raise ConfigurationError(
                    f"bad hang_after_beats range {hang_after_beats}")
            # drawn exactly once: a per-cycle draw would make every tick act
            hang_after_beats = random.Random(seed).randint(lo, hi)
        if hang_after_beats < 0:
            raise ConfigurationError("hang_after_beats must be >= 0")
        self.hang_after_beats = hang_after_beats
        self._beats_seen = 0
        #: cycle at which the hang engaged (None = still behaving)
        self.hung_at: Optional[int] = None

    @property
    def is_hung(self) -> bool:
        """True once the injected hang has engaged."""
        return self.hung_at is not None

    # ------------------------------------------------------------------
    # the three misbehaviours
    # ------------------------------------------------------------------

    def _bursts_for(self, address: int, nbytes: int) -> List[tuple]:
        if self.fault_mode != "illegal_burst":
            return super()._bursts_for(address, nbytes)
        # skip legalize(): chunks keep the preferred length even when
        # that makes them straddle a 4 KiB boundary
        beat = self.link.data_bytes
        return list(split_burst(address, nbytes // beat, beat,
                                self.burst_len))

    def _collect_read_data(self, cycle: int) -> bool:
        if self.fault_mode == "hung_r":
            if self.hung_at is not None:
                return True  # ready low forever: R beats pile up behind us
            if self.link.r.can_pop():
                if self._beats_seen >= self.hang_after_beats:
                    self.hung_at = cycle
                    self.sim.wake()
                    return False
                self._beats_seen += 1
        return super()._collect_read_data(cycle)

    def _supply_write_data(self, cycle: int) -> bool:
        if self.fault_mode == "withheld_w":
            if self.hung_at is not None:
                return True
            would_supply = (cycle >= self._w_gap_until and self._write_data
                            and self.link.w.can_push())
            if would_supply:
                if self._beats_seen >= self.hang_after_beats:
                    self.hung_at = cycle
                    self.sim.wake()
                    return False
                self._beats_seen += 1
        return super()._supply_write_data(cycle)

    # ------------------------------------------------------------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if self.hung_at is not None and self.fault_mode == "withheld_w":
            return None  # the gap timer will never be acted upon
        return super().next_event_cycle(cycle)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Reset clears the hang; a non-persistent fault is cured."""
        super().reset()
        self.hung_at = None
        self._beats_seen = 0
        if not self.persistent:
            self.fault_mode = "none"
