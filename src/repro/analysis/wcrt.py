"""End-to-end worst-case response-time bounds for accelerator jobs.

Combines the three per-layer bounds into one job-level guarantee:

1. propagation through the interconnect (:mod:`.latency`),
2. arbitration interference at the crossbar (:mod:`.interference`),
3. reservation supply (:mod:`.reservation`),
4. in-order memory service.

The composite bound is intentionally *compositional and safe* rather than
tight: each sub-transaction is charged its full worst-case round — own
service, every competitor's equalized service, and the memory access
latency — with no pipelining credit.  The test-suite checks that simulated
response times under adversarial interference never exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..memory.dram import DramTiming
from .interference import transaction_service_cycles
from .latency import hyperconnect_propagation


@dataclass(frozen=True)
class HyperConnectWcrt:
    """Worst-case response time of one port's jobs through a HyperConnect.

    Parameters
    ----------
    n_ports:
        Total input ports of the interconnect.
    nominal_burst:
        Equalization burst size (beats) — bounds every competitor's
        transaction service time as well as our own.
    memory:
        Memory-subsystem timing.
    budget / period:
        The port's reservation, if any (``budget=None`` = unlimited, i.e.
        only arbitration interference applies).
    interferer_outstanding:
        Per-port outstanding-transaction limit enforced by the TS.  This
        is what bounds the *initial backlog*: when our first request
        arrives, every other port may already have this many equalized
        transactions queued in the in-order memory path.  Without the
        TS's outstanding equalization ([11]) this term would be unbounded
        — which is precisely the paper's predictability argument.
    """

    n_ports: int
    nominal_burst: int
    memory: DramTiming
    budget: Optional[int] = None
    period: Optional[int] = None
    interferer_outstanding: int = 8

    def __post_init__(self) -> None:
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if self.nominal_burst < 1:
            raise ValueError("nominal_burst must be >= 1")
        if self.interferer_outstanding < 0:
            raise ValueError("interferer_outstanding must be >= 0")
        if (self.budget is None) != (self.period is None):
            raise ValueError("budget and period must be given together")
        if self.budget is not None and (self.budget < 1 or self.period < 1):
            raise ValueError("budget and period must be >= 1")

    def _sub_transactions(self, beats: int) -> int:
        return math.ceil(beats / self.nominal_burst)

    def _round_cycles(self, is_read: bool) -> int:
        """Worst-case cycles one of our sub-transactions needs once
        granted the head of the port's queue: every other port may slip
        one equalized transaction ahead (EXBAR granularity 1), then ours
        is served by the in-order memory."""
        service = transaction_service_cycles(self.nominal_burst)
        interference = (self.n_ports - 1) * service
        access = (self.memory.read_latency if is_read
                  else self.memory.write_latency + self.memory.resp_latency)
        return interference + service + access

    def job_bound_cycles(self, total_beats: int,
                         is_read: bool = True) -> int:
        """Worst-case cycles for a job of ``total_beats`` beats."""
        if total_beats < 1:
            raise ValueError("total_beats must be >= 1")
        m = self._sub_transactions(total_beats)
        propagation = hyperconnect_propagation()
        prop = (propagation["AR"] + propagation["R"] if is_read
                else propagation["AW"] + propagation["W"]
                + propagation["B"])
        round_cycles = self._round_cycles(is_read)
        # one-time term: transactions other ports already had in flight
        # when our first request arrived (bounded by the TS limit)
        service = transaction_service_cycles(self.nominal_burst)
        backlog = ((self.n_ports - 1) * self.interferer_outstanding
                   * service)
        unreserved = prop + backlog + m * round_cycles
        if self.budget is None:
            return unreserved
        # With a reservation, issue times are additionally governed by the
        # supply bound.  The budget effective within one period is capped
        # by how many worst-case rounds fit in it (a TS cannot complete
        # more than that regardless of budget).
        effective_budget = max(1, min(self.budget,
                                      self.period // round_cycles or 1))
        full_periods = (m - 1) // effective_budget
        remainder = m - full_periods * effective_budget
        reserved = (prop + backlog
                    + self.period                 # initial blackout
                    + full_periods * self.period
                    + remainder * round_cycles)
        return max(unreserved, reserved)

    def job_bound_bytes(self, nbytes: int, beat_bytes: int,
                        is_read: bool = True) -> int:
        """Byte-level convenience wrapper around :meth:`job_bound_cycles`."""
        if nbytes < 1 or beat_bytes < 1:
            raise ValueError("nbytes and beat_bytes must be >= 1")
        return self.job_bound_cycles(math.ceil(nbytes / beat_bytes),
                                     is_read)
