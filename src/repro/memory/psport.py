"""FPGA-PS interface helpers.

:class:`AxiPipe` is a transparent five-channel repeater: it forwards every
beat from one link to another at one beat per channel per cycle.  Each
traversed link contributes its channel latency, so a pipe between two
unit-latency links models one extra pipeline stage in both directions.

It is used to model the FPGA-PS port (a registered boundary between the
fabric and the PS) and, in tests, to build arbitrary pipeline depths.
"""

from __future__ import annotations

from ..axi.port import AxiLink
from ..sim.component import Component


class AxiPipe(Component):
    """Transparent pipeline stage between two AXI links.

    ``upstream`` faces the master (the pipe pops its AR/AW/W and pushes its
    R/B); ``downstream`` faces the slave.
    """

    def __init__(self, sim, name: str, upstream: AxiLink,
                 downstream: AxiLink) -> None:
        super().__init__(sim, name)
        self.upstream = upstream
        self.downstream = downstream
        # (source, destination) pairs in forwarding direction
        self._forward = (
            (upstream.ar, downstream.ar),
            (upstream.aw, downstream.aw),
            (upstream.w, downstream.w),
            (downstream.r, upstream.r),
            (downstream.b, upstream.b),
        )

    def tick(self, cycle: int) -> bool:
        # stateless: idle unless some pair forwarded
        idle = True
        for source, destination in self._forward:
            if source.can_pop() and destination.can_push():
                destination.push(source.pop())
                idle = False
        return idle


class FpgaPsPort(AxiPipe):
    """The FPGA-PS slave interface of the SoC.

    Functionally a registered boundary; kept as its own class so that
    system builders and diagrams can name it, and so that platform models
    can attach port-specific width or counting logic later.
    """

    def __init__(self, sim, name: str, fabric_side: AxiLink,
                 ps_side: AxiLink) -> None:
        super().__init__(sim, name, upstream=fabric_side,
                         downstream=ps_side)
