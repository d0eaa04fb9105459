"""Closed-form worst-case bounds for watchdog fault containment.

PR 2's watchdog turns a wedged port into a bounded disturbance: the
Transaction Supervisor detects the hang (``PORT_TIMEOUT``), decouples the
port, lets the already-granted sub-transactions drain through the shared
memory path, and synthesizes error completions for the orphans.  This
module states the *analytic* side of that claim, mirroring how
:mod:`.wcrt` and :mod:`.reservation` attack the response-time and supply
bounds: every term is compositional and safe rather than tight, and the
fault campaign (`tests/test_fault_campaign.py`, `repro.verify`, and
`benchmarks/bench_fault_campaign.py`) asserts measured behaviour against
it on both kernel paths.

Two quantities are bounded:

* **detection** — cycles from fault onset until the watchdog trips.  The
  TS deadline is ``oldest issue + timeout``, so detection is at most the
  programmed ``timeout_cycles`` (the oldest outstanding transaction may
  have been issued the cycle the fault hit).
* **drain** — cycles until the rogue port's already-granted traffic has
  left the shared path.  The outstanding-transaction limit ([11] in the
  paper) is what makes this finite: at most ``max_outstanding`` equalized
  reads plus as many writes can be in flight, each occupying the in-order
  memory for one equalized service slot, plus one memory access latency
  of each kind for the requests already inside the DRAM pipeline.

They compose into the extra delay a healthy neighbour can suffer, which
the isolation oracles of :mod:`repro.verify.oracles` enforce.  The
orphans' locally synthesized error completions are not charged: they
happen on the decoupled side of the port gate, so they never occupy the
shared path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.dram import DramTiming
from .interference import transaction_service_cycles
from .latency import hyperconnect_propagation


@dataclass(frozen=True)
class ContainmentBound:
    """Worst-case fault-containment latencies of a watchdog-armed port.

    Parameters
    ----------
    n_ports:
        Input ports of the HyperConnect under analysis.
    nominal_burst:
        Equalization burst size (beats); bounds every in-flight
        sub-transaction's service time.
    memory:
        Memory-subsystem timing (the drain tail is one worst-case access
        of each kind still inside the DRAM pipeline).
    timeout_cycles:
        The rogue port's programmed ``PORT_TIMEOUT``.
    rogue_outstanding:
        The rogue port's outstanding-transaction limit (TS
        ``max_outstanding``) — at most this many equalized reads *and*
        this many equalized writes were granted before the trip.
    period:
        Reservation replenishment period when bandwidth shares are armed
        (``None`` = free-for-all).  A healthy port may additionally sit
        out one full blackout window while its budget replenishes.
    """

    n_ports: int
    nominal_burst: int
    memory: DramTiming
    timeout_cycles: int
    rogue_outstanding: int = 8
    period: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if self.nominal_burst < 1:
            raise ValueError("nominal_burst must be >= 1")
        if self.timeout_cycles < 1:
            raise ValueError("timeout_cycles must be >= 1")
        if self.rogue_outstanding < 1:
            raise ValueError("rogue_outstanding must be >= 1")
        if self.period is not None and self.period < 1:
            raise ValueError("period must be >= 1 or None")

    # ------------------------------------------------------------------
    # component terms
    # ------------------------------------------------------------------

    @property
    def detection_cycles(self) -> int:
        """Fault onset -> watchdog trip (at most the programmed timeout)."""
        return self.timeout_cycles

    @property
    def drain_cycles(self) -> int:
        """Trip -> shared path clear of the rogue port's granted traffic."""
        service = transaction_service_cycles(self.nominal_burst)
        in_flight = 2 * self.rogue_outstanding * service
        pipeline_tail = (self.memory.read_latency
                         + self.memory.write_latency
                         + self.memory.resp_latency)
        return in_flight + pipeline_tail

    @property
    def propagation_slack(self) -> int:
        """Pipeline-register slack between trip and observable effects."""
        prop = hyperconnect_propagation()
        return prop["AR"] + prop["AW"] + prop["R"] + prop["B"]

    # ------------------------------------------------------------------
    # composite bounds
    # ------------------------------------------------------------------

    def healthy_port_delay_bound(self) -> int:
        """Worst-case *extra* completion delay one rogue port inflicts on
        a healthy neighbour's workload.

        Composition: until detection the rogue port behaves (at worst)
        like any compliant competitor — round-robin already charges that
        interference to :class:`~repro.analysis.wcrt.HyperConnectWcrt` —
        *except* that transactions granted to the wedged port occupy the
        shared path without retiring, so the healthy port may stall for
        the full detection window, then wait for the rogue traffic to
        drain, then refill the arbitration pipeline (one equalized round
        across all ports).  Synthesis is excluded: it runs behind the
        closed port gate.  With reservations armed the healthy port may
        additionally spend one full period in budget blackout before its
        first post-fault grant.
        """
        service = transaction_service_cycles(self.nominal_burst)
        refill = self.n_ports * service
        bound = (self.detection_cycles + self.drain_cycles + refill
                 + self.propagation_slack)
        if self.period is not None:
            bound += self.period
        return bound

    def multi_fault_delay_bound(self, n_faulted: int) -> int:
        """Worst-case extra delay when ``n_faulted`` ports fault together.

        Serialized composition: the containment windows are assumed not
        to overlap, so each faulted port charges its full single-fault
        healthy-port bound.  Concurrent faults can only shrink the total
        (detection windows elapse in parallel and the shared-path drains
        interleave), so the serialized sum is safe, not tight.  This is
        the per-tenant bound the isolation oracle applies to fault-storm
        scenarios (:func:`repro.verify.oracles.check_isolation`).
        """
        if n_faulted < 0:
            raise ValueError("n_faulted must be >= 0")
        return n_faulted * self.healthy_port_delay_bound()

    def cascade_slack(self, levels: int = 2) -> int:
        """Extra slack for ``levels`` cascaded HyperConnects.

        Each extra level adds one address-path traversal and one
        arbitration round at that level's EXBAR to every term measured at
        the leaf; containment itself stays local to the tripping level.
        """
        if levels < 1:
            raise ValueError("levels must be >= 1")
        service = transaction_service_cycles(self.nominal_burst)
        per_level = self.propagation_slack + self.n_ports * service
        return (levels - 1) * per_level
