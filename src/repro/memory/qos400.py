"""ARM QoS-400-style PS-side traffic regulator.

The paper's Related Work dismisses PS-side QoS blocks: "modern FPGA SoC
platforms integrate specific blocks to manage the QoS in AXI, such as the
ARM QoS-400 ... implemented in the PS of the SoC ... after requests for
transactions issued by different HAs in the FPGA enter the PS through the
FPGA-PS interface, there are no signals to distinguish them.  Therefore,
the QoS-400 does not allow controlling the bus bandwidth provided to each
individual HA."

This model exists to *demonstrate* that claim experimentally: it is a
faithful stand-in for an outstanding-transaction / transaction-rate
regulator at the PS boundary, and — crucially — it sees only what the
real block sees: an undifferentiated merged stream.  The ``port`` field
our simulation carries on beats is deliberately never read.  The
regulator can shape the *aggregate* (rate limiting, outstanding
limiting), but any setting throttles every HA behind the port alike.
"""

from __future__ import annotations

from typing import Optional

from ..axi.port import AxiLink
from ..sim.errors import ConfigurationError
from .psport import AxiPipe


class PsQosRegulator(AxiPipe):
    """Aggregate transaction regulator at the FPGA-PS boundary.

    Implements the two knobs such blocks offer:

    * ``max_outstanding`` — cap on address requests in flight past the
      regulator (reads + writes);
    * ``rate_budget`` / ``rate_period`` — token bucket: at most
      ``rate_budget`` transactions forwarded per ``rate_period`` cycles
      (``None`` disables rate limiting).

    Both apply to the merged stream; per-HA control is *impossible* from
    this vantage point, which is the paper's argument for supervising
    traffic on the FPGA side instead.
    """

    def __init__(self, sim, name: str, upstream: AxiLink,
                 downstream: AxiLink,
                 max_outstanding: Optional[int] = None,
                 rate_budget: Optional[int] = None,
                 rate_period: int = 1024) -> None:
        super().__init__(sim, name, upstream, downstream)
        if max_outstanding is not None and max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be >= 1")
        if rate_budget is not None and rate_budget < 1:
            raise ConfigurationError("rate_budget must be >= 1")
        if rate_period < 1:
            raise ConfigurationError("rate_period must be >= 1")
        self.max_outstanding = max_outstanding
        self.rate_budget = rate_budget
        self.rate_period = rate_period
        self._tokens = rate_budget if rate_budget is not None else 0
        self._countdown = rate_period
        self._outstanding = 0
        self.throttled_cycles = 0
        self.forwarded_transactions = 0

    # ------------------------------------------------------------------

    def _may_forward(self) -> bool:
        if (self.max_outstanding is not None
                and self._outstanding >= self.max_outstanding):
            return False
        if self.rate_budget is not None and self._tokens <= 0:
            return False
        return True

    def _account_forward(self) -> None:
        self._outstanding += 1
        self.forwarded_transactions += 1
        if self.rate_budget is not None:
            self._tokens -= 1

    def tick(self, cycle: int) -> bool:
        # token-bucket recharge: the countdown moves every cycle, so no
        # tick is a no-op (unlike the base pipe's stateless forwarding)
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.rate_period
            if self.rate_budget is not None:
                self._tokens = self.rate_budget
        # regulated address channels (one beat per channel per cycle)
        throttled = False
        for source, destination in ((self.upstream.ar, self.downstream.ar),
                                    (self.upstream.aw, self.downstream.aw)):
            if source.can_pop() and destination.can_push():
                if self._may_forward():
                    destination.push(source.pop())
                    self._account_forward()
                else:
                    throttled = True
        if throttled:
            self.throttled_cycles += 1
        # data/response channels pass through unregulated
        if self.upstream.w.can_pop() and self.downstream.w.can_push():
            self.downstream.w.push(self.upstream.w.pop())
        if self.downstream.r.can_pop() and self.upstream.r.can_push():
            beat = self.downstream.r.pop()
            if beat.last:
                self._outstanding = max(0, self._outstanding - 1)
            self.upstream.r.push(beat)
        if self.downstream.b.can_pop() and self.upstream.b.can_push():
            self._outstanding = max(0, self._outstanding - 1)
            self.upstream.b.push(self.downstream.b.pop())
        return False
