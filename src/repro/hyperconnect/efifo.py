"""eFIFO: the buffered AXI interfaces of the HyperConnect.

Each HyperConnect slave port is an *efficient FIFO* module: five proactive
(always ready to receive when not full) circular buffers, one per AXI
channel, each adding exactly one clock cycle of latency.  In this model the
buffers are the registered :class:`~repro.sim.Channel` queues of an
:class:`EFifoLink` — a drop-in :class:`~repro.axi.port.AxiLink` whose
master-to-slave channels are gated by a :class:`PortGate`.

The gate implements the paper's *decoupling from the memory subsystem*:
when a port is decoupled, "the AXI handshake signals on all the AXI
channels are kept low, not allowing the HA connected to them to exchange
data".  In simulation terms: the gated channels refuse pushes from the HA
(``can_push`` is false, like a de-asserted READY), and the HyperConnect
side stops popping/pushing on the port entirely.
"""

from __future__ import annotations

from typing import Optional

from ..axi.port import AxiLink
from ..sim.channel import Channel


class PortGate:
    """Shared coupled/decoupled state of one HyperConnect input port."""

    __slots__ = ("coupled",)

    def __init__(self, coupled: bool = True) -> None:
        self.coupled = coupled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PortGate(coupled={self.coupled})"


class GatedChannel(Channel):
    """A channel whose producer handshake is gated.

    When the gate is open (coupled) it behaves exactly like a plain
    channel; when closed, ``can_push`` is false — the producer sees a
    de-asserted READY and stalls, exchanging no data.
    """

    __slots__ = ("gate",)

    def __init__(self, sim, name: str, gate: PortGate, latency: int = 1,
                 capacity: Optional[int] = 16) -> None:
        super().__init__(sim, name, latency, capacity)
        self.gate = gate

    def can_push(self, count: int = 1) -> bool:
        if not self.gate.coupled:
            return False
        return super().can_push(count)

    def try_push(self, item) -> bool:
        if not self.gate.coupled:
            return False
        return super().try_push(item)


class EFifoLink(AxiLink):
    """The eFIFO module of one HyperConnect slave port.

    An :class:`~repro.axi.port.AxiLink` whose HA-driven channels (AR, AW,
    W) are :class:`GatedChannel` instances sharing one :class:`PortGate`.
    The return channels (R, B) are plain: the HyperConnect simply stops
    pushing on them while the port is decoupled, which together with the
    gated request channels fully disconnects the HA.

    Queue depths default to the paper's slim design point (shallow address
    queues, data queues sized for a nominal burst in flight).
    """

    #: channel roles driven by the hardware accelerator
    _GATED_ROLES = ("AR", "AW", "W")

    def __init__(self, sim, name: str, data_bytes: int = 16,
                 version=None, latency: int = 1,
                 addr_depth: Optional[int] = 4,
                 data_depth: Optional[int] = 32,
                 coupled: bool = True) -> None:
        self.gate = PortGate(coupled)
        kwargs = {}
        if version is not None:
            kwargs["version"] = version
        super().__init__(sim, name, data_bytes=data_bytes, latency=latency,
                         addr_depth=addr_depth, data_depth=data_depth,
                         **kwargs)

    def _make_channel(self, role: str, latency: int,
                      capacity: Optional[int]) -> Channel:
        if role in self._GATED_ROLES:
            return GatedChannel(self.sim, f"{self.name}.{role}", self.gate,
                                latency, capacity)
        return Channel(self.sim, f"{self.name}.{role}", latency, capacity)

    # ------------------------------------------------------------------

    @property
    def coupled(self) -> bool:
        """True while the port may exchange data with the HyperConnect."""
        return self.gate.coupled

    def decouple(self) -> None:
        """Disconnect the HA (handshake signals held low).

        Wakes the fast kernel path: gate flips change the quiescence of
        every component watching this port (supervisor, EXBAR, the HA
        itself), so any cached bulk-skip horizon must be recomputed.
        """
        self.gate.coupled = False
        self.sim.wake()

    def couple(self) -> None:
        """Reconnect the HA."""
        self.gate.coupled = True
        self.sim.wake()
