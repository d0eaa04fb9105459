"""Central unit: common configuration and synchronous recharge.

The central unit owns the reservation-period counter and recharges the
budgets of *all* Transaction Supervisors in the same cycle ("the
reservation period is recharged for all the TS modules by the central unit
in a synchronous manner") and mirrors the global enable bit into the TSs.
"""

from __future__ import annotations

from typing import List

from ..sim.component import Component
from ..sim.errors import ConfigurationError
from .supervisor import TransactionSupervisor


class CentralUnit(Component):
    """Period counter + synchronous recharge + global enable."""

    def __init__(self, sim, name: str,
                 supervisors: List[TransactionSupervisor],
                 period: int) -> None:
        super().__init__(sim, name)
        if period < 1:
            raise ConfigurationError("reservation period must be >= 1")
        self.supervisors = supervisors
        self._period = period
        self._enabled = True
        #: absolute cycle of the next synchronous recharge (the paper's
        #: period counter, kept as a deadline so idle periods need no
        #: per-cycle countdown work)
        self._next_recharge = sim.now + period - 1
        self.recharges = 0

    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """Reservation period T in clock cycles."""
        return self._period

    @period.setter
    def period(self, value: int) -> None:
        if value < 1:
            raise ConfigurationError("reservation period must be >= 1")
        self._period = value
        # a shorter period takes effect no later than the new length
        self._next_recharge = min(self._next_recharge,
                                  self.sim.now + value - 1)
        self.sim.wake()

    @property
    def enabled(self) -> bool:
        """Global enable: when false, no TS forwards new requests."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._apply_enable()

    def _apply_enable(self) -> None:
        for supervisor in self.supervisors:
            supervisor.enabled = self._enabled
        self.sim.wake()

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        # between recharge deadlines the central unit does nothing
        if cycle < self._next_recharge:
            return True
        self._next_recharge = cycle + self._period
        self.recharges += 1
        for supervisor in self.supervisors:
            supervisor.recharge()
        return False

    def next_event_cycle(self, cycle: int) -> int:
        """The recharge deadline is a guaranteed internal event."""
        return self._next_recharge
