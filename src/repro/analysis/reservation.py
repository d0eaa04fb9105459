"""Reservation analysis: supply bounds of the budget/period mechanism.

The TS reservation (mechanism of [10]) grants each port a budget of ``B``
sub-transactions that recharges every period ``T``.  Each equalized
sub-transaction occupies ``s`` data-bus cycles, so a port behaves like a
periodic server of capacity ``B * s`` per ``T`` — the classic bounded-delay
resource model.  This module provides:

* :func:`supply_transactions` — minimum sub-transactions guaranteed in any
  window of length ``t`` (discrete supply bound function);
* :func:`bandwidth_fraction` — the long-run bus fraction the reservation
  pins;
* :func:`wcrt_transactions` — worst-case completion time of a stream of
  ``m`` sub-transactions under the reservation;
* :func:`budget_for_share` — the budget that reserves a bus fraction (the
  one formula the driver programs and the oracles bound ports with);
* :class:`ReservationAnalysis` — the above bundled per configuration,
  including the paper's HC-X-Y percentage notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check(budget: int, period: int, service: int) -> None:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if period < 1:
        raise ValueError("period must be >= 1")
    if service < 1:
        raise ValueError("service must be >= 1")
    if budget * service > period:
        raise ValueError(
            f"infeasible reservation: {budget} transactions x {service} "
            f"cycles do not fit in a period of {period} cycles")


def bandwidth_fraction(budget: int, period: int, service: int) -> float:
    """Long-run fraction of the data bus pinned by the reservation."""
    _check(budget, period, service)
    return budget * service / period


def supply_transactions(budget: int, period: int, window: int) -> int:
    """Minimum sub-transactions served in *any* window of ``window`` cycles.

    Worst case: the window opens right after the port consumed its whole
    budget at the start of a period, so the first ``period`` cycles may
    contribute nothing ("blackout"), after which every full period
    contributes ``budget`` transactions.
    """
    if budget < 0 or period < 1:
        raise ValueError("budget must be >= 0 and period >= 1")
    if window <= period:
        return 0
    full_periods = (window - period) // period
    return full_periods * budget


def wcrt_transactions(m: int, budget: int, period: int,
                      service: int) -> int:
    """Worst-case cycles to complete ``m`` sub-transactions.

    The stream needs ``ceil(m / budget)`` periods of budget.  In the worst
    case it arrives just after a recharge was fully consumed (initial
    blackout of up to ``period`` cycles); each subsequent period serves
    ``budget`` transactions, and within the final period the remaining
    transactions complete after their service time.

    The bound is exact for a work-conserving TS that issues its budget
    back-to-back at the start of each period (the adversarial pattern).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check(budget, period, service)
    if budget == 0:
        raise ValueError("a zero budget never completes work")
    full_periods = (m - 1) // budget     # periods fully consumed before last
    remainder = m - full_periods * budget
    blackout = period                     # initial worst-case wait
    return blackout + full_periods * period + remainder * service


def budget_for_share(fraction: float, period: int,
                     nominal_burst: int = 16) -> int:
    """Sub-transaction budget reserving ``fraction`` of the data bus.

    Each equalized sub-transaction moves ``nominal_burst`` beats and the
    bus streams one beat per cycle, so a period of T cycles offers
    ``T / nominal_burst`` transaction slots in total; a port always keeps
    at least one.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(
            f"bandwidth fraction must be in (0, 1], got {fraction}")
    return max(1, int(fraction * period / nominal_burst))


@dataclass(frozen=True)
class ReservationAnalysis:
    """Analysis bundle for one port's reservation configuration."""

    budget: int
    period: int
    nominal_burst: int
    command_overhead: int = 0

    @property
    def service(self) -> int:
        """Cycles one equalized sub-transaction occupies."""
        return self.nominal_burst + self.command_overhead

    @property
    def fraction(self) -> float:
        """Reserved bus fraction (the "X" of HC-X-Y, as 0..1)."""
        return bandwidth_fraction(self.budget, self.period, self.service)

    def guaranteed_bytes(self, window: int, beat_bytes: int) -> int:
        """Bytes guaranteed to move in any window of ``window`` cycles."""
        transactions = supply_transactions(self.budget, self.period, window)
        return transactions * self.nominal_burst * beat_bytes

    def wcrt_bytes(self, nbytes: int, beat_bytes: int) -> int:
        """Worst-case cycles to transfer ``nbytes``."""
        beats = math.ceil(nbytes / beat_bytes)
        m = math.ceil(beats / self.nominal_burst)
        return wcrt_transactions(m, self.budget, self.period, self.service)

    @classmethod
    def for_share(cls, fraction: float, period: int,
                  nominal_burst: int = 16) -> "ReservationAnalysis":
        """Build the configuration the driver programs for HC-X-Y."""
        return cls(budget=budget_for_share(fraction, period, nominal_burst),
                   period=period, nominal_burst=nominal_burst)
