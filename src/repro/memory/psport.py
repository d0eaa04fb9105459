"""FPGA-PS interface helpers.

:class:`AxiPipe` is a transparent five-channel repeater: it forwards every
beat from one link to another at one beat per channel per cycle.  Each
traversed link contributes its channel latency, so a pipe between two
unit-latency links models one extra pipeline stage in both directions.

It models the FPGA-PS port (a registered boundary between the fabric
and the PS), is the base of the QoS-400 regulator
(:class:`~repro.memory.qos400.PsQosRegulator`), and builds arbitrary
pipeline depths in tests.
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
