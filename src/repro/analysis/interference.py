"""Worst-case interference bounds at the arbitration point.

The key predictability argument of the paper: the EXBAR's round-robin has
a **fixed granularity of one transaction** per TS module per round-cycle,
so a request can be delayed by at most ``N - 1`` competing transactions.
Interconnects with a variable granularity ``g`` (as observed for the
SmartConnect) admit ``g * (N - 1)`` interfering transactions in the worst
case.

With burst equalization the service time of each interfering transaction
is also bounded — by the nominal burst size — which turns the transaction
counts into hard cycle bounds.
"""

from __future__ import annotations

from dataclasses import dataclass


def interfering_transactions(n_ports: int, granularity: int = 1) -> int:
    """Worst-case competing transactions ahead of a newly arrived request.

    ``granularity`` is the arbiter's maximum consecutive grants per port
    (1 for the EXBAR; ``g`` for variable-granularity interconnects).
    """
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    return granularity * (n_ports - 1)


def transaction_service_cycles(burst_beats: int) -> int:
    """Data-bus cycles one transaction occupies (1 beat/cycle plus one
    command cycle)."""
    if burst_beats < 1:
        raise ValueError("burst_beats must be >= 1")
    return burst_beats + 1


def worst_case_grant_delay(n_ports: int, granularity: int,
                           interferer_burst_beats: int) -> int:
    """Worst-case cycles a request waits for its arbitration grant.

    Every interfering transaction must drain through the shared in-order
    memory path before the request's own grant becomes effective, so the
    bound is the interfering transaction count times the per-transaction
    service time.
    """
    return (interfering_transactions(n_ports, granularity)
            * transaction_service_cycles(interferer_burst_beats))


@dataclass(frozen=True)
class InterferenceModel:
    """Comparative interference bounds for an N-master system.

    ``equalized_burst`` applies to the HyperConnect column (interferers
    are equalized to the nominal burst); ``max_burst`` to the baseline
    column (interferers may present protocol-maximum bursts, since no
    equalization occurs).
    """

    n_ports: int
    equalized_burst: int = 16
    max_burst: int = 256
    baseline_granularity: int = 8

    def hyperconnect_bound(self) -> int:
        """Worst-case grant delay through the HyperConnect, cycles."""
        return worst_case_grant_delay(self.n_ports, 1, self.equalized_burst)

    def baseline_bound(self) -> int:
        """Worst-case grant delay through the baseline, cycles."""
        return worst_case_grant_delay(self.n_ports,
                                      self.baseline_granularity,
                                      self.max_burst)

    def bound_ratio(self) -> float:
        """Baseline bound / HyperConnect bound (pessimism factor)."""
        hc = self.hyperconnect_bound()
        if hc == 0:
            return 1.0
        return self.baseline_bound() / hc
