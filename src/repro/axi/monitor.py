"""Passive measurement probe.

The simulation-world equivalent of the paper's custom FPGA timer:
:class:`PropagationProbe` attaches to two channels and measures, beat by
beat and without perturbing the traffic, the delay between a beat's
appearance on the upstream channel and its (or its split descendant's)
appearance on the downstream one — this is what produces the
per-channel latencies of Fig. 3(a).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.channel import Channel
from ..sim.stats import OnlineStats
from .payloads import AddrBeat, RespBeat


def _match_key(item) -> int:
    """Identity key used to pair a beat across two channels.

    Address beats are keyed by their *origin* (pre-split) request so that a
    probe spanning the Transaction Supervisor still pairs correctly.  Write
    responses are re-created at the merge point, so they are keyed by the
    origin of the (sub-)write they acknowledge.  Data beats are forwarded
    as the same Python objects, so plain identity works.
    """
    if isinstance(item, AddrBeat):
        return id(item.origin())
    if isinstance(item, RespBeat) and item.addr_beat is not None:
        return id(item.addr_beat.origin())
    return id(item)


class PropagationProbe:
    """Measures push-to-push delay of beats between two channels.

    Parameters
    ----------
    channel_in / channel_out:
        Upstream and downstream observation points.  Entry is stamped when
        the beat is *pushed* upstream (the producer asserting VALID); exit
        is stamped when the beat is *popped* downstream (the consumer
        completing the handshake) — so a chain of k unit-latency stages
        measures k cycles, matching the paper's channel-latency
        definition.  When a burst is split in between, the first
        sub-burst's arrival defines the latency (what a hardware timer
        would see).
    exit_on:
        ``"pop"`` (default, see above) or ``"push"`` to stamp the exit at
        the downstream push instead.
    max_samples:
        Stop collecting after this many matched samples (keeps memory
        bounded on long runs).
    """

    def __init__(self, channel_in: Channel, channel_out: Channel,
                 max_samples: Optional[int] = None,
                 exit_on: str = "pop") -> None:
        if exit_on not in ("pop", "push"):
            raise ValueError("exit_on must be 'pop' or 'push'")
        self.stats = OnlineStats()
        self.max_samples = max_samples
        self._entry: Dict[int, int] = {}
        channel_in.subscribe_push(self._on_in)
        if exit_on == "pop":
            channel_out.subscribe_pop(self._on_out)
        else:
            channel_out.subscribe_push(self._on_out)

    def _active(self) -> bool:
        return (self.max_samples is None
                or self.stats.count < self.max_samples)

    def _on_in(self, cycle: int, item) -> None:
        if not self._active():
            return
        self._entry.setdefault(_match_key(item), cycle)

    def _on_out(self, cycle: int, item) -> None:
        if not self._active():
            return
        entered = self._entry.pop(_match_key(item), None)
        if entered is not None:
            self.stats.add(cycle - entered)

    @property
    def latency_max(self) -> Optional[float]:
        """Worst observed propagation latency in cycles."""
        return self.stats.maximum

    @property
    def latency_mean(self) -> float:
        """Mean observed propagation latency in cycles."""
        return self.stats.mean
