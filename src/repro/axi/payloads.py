"""Wire-level AXI payload objects.

Four kinds of objects travel on the simulated channels:

* :class:`AddrBeat` — one AR or AW request (a whole burst's address phase);
* :class:`WriteBeat` — one W data beat;
* :class:`DataBeat` — one R data beat;
* :class:`RespBeat` — one B write response.

The :class:`AddrBeat` a master pushes is also that master's only record
of the request: it carries the cycle the master issued it (``issued``,
the start of the engine's per-burst latency) and, for writes, the
payload the W beats are cut from (``data``).  Channel timing is observed
from outside, by probes subscribed to the channels
(:mod:`repro.axi.monitor`).  When the Transaction Supervisor splits a
burst into nominal-size sub-bursts, the sub-``AddrBeat`` objects keep a
``parent`` reference to the original request so that data can be merged
back and probes can attribute latency to the original request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .types import BurstType, ChannelName, Resp


@dataclass(slots=True)
class AddrBeat:
    """One AR/AW request: the address phase of a burst."""

    channel: ChannelName           # ChannelName.AR or ChannelName.AW
    txn_id: int                    # AXI ID (unique per master in-flight)
    address: int
    length: int                    # beats
    size_bytes: int
    burst: BurstType = BurstType.INCR
    port: Optional[int] = None     # interconnect input-port index
    parent: Optional["AddrBeat"] = None   # original beat if this is a split
    #: True when this is the last (or only) sub-burst of its original
    #: request — the merge logic re-asserts RLAST / forwards B only here.
    final_sub: bool = True
    #: accumulated response of already-merged sub-bursts (kept on the
    #: origin beat; "worst response wins")
    resp_acc: Resp = Resp.OKAY
    #: cycle the issuing master pushed this request (None until issued)
    issued: Optional[int] = None
    #: write payload of the whole burst (None = timing-only beats)
    data: Optional[bytes] = None

    def origin(self) -> "AddrBeat":
        """The original (pre-split) request this beat derives from."""
        beat = self
        while beat.parent is not None:
            beat = beat.parent
        return beat

    @property
    def is_read(self) -> bool:
        """True for AR beats."""
        return self.channel is ChannelName.AR

    def split_child(self, address: int, length: int,
                    final_sub: bool) -> "AddrBeat":
        """Create a nominal-size sub-request of this burst."""
        return AddrBeat(
            channel=self.channel,
            txn_id=self.txn_id,
            address=address,
            length=length,
            size_bytes=self.size_bytes,
            burst=self.burst,
            port=self.port,
            parent=self,
            final_sub=final_sub,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " (split)" if self.parent is not None else ""
        return (f"AddrBeat({self.channel.value} id={self.txn_id} "
                f"addr=0x{self.address:x} len={self.length}{tag})")


@dataclass(slots=True)
class WriteBeat:
    """One W data beat."""

    last: bool
    data: Optional[bytes] = None
    addr_beat: Optional[AddrBeat] = None  # the (sub-)AW this beat belongs to


@dataclass(slots=True)
class DataBeat:
    """One R data beat."""

    last: bool
    txn_id: int = 0
    data: Optional[bytes] = None
    resp: Resp = Resp.OKAY
    addr_beat: Optional[AddrBeat] = None  # the (sub-)AR this beat answers


@dataclass(slots=True)
class RespBeat:
    """One B write response."""

    txn_id: int = 0
    resp: Resp = Resp.OKAY
    addr_beat: Optional[AddrBeat] = None  # the (sub-)AW this acknowledges


def make_read_request(address: int, length: int, size_bytes: int,
                      txn_id: int = 0,
                      burst: BurstType = BurstType.INCR) -> AddrBeat:
    """Build the AR beat of a read burst."""
    return AddrBeat(ChannelName.AR, txn_id, address, length, size_bytes,
                    burst)


def make_write_request(address: int, length: int, size_bytes: int,
                       txn_id: int = 0, burst: BurstType = BurstType.INCR,
                       data: Optional[bytes] = None) -> AddrBeat:
    """Build the AW beat of a write burst carrying payload ``data``."""
    return AddrBeat(ChannelName.AW, txn_id, address, length, size_bytes,
                    burst, data=data)
