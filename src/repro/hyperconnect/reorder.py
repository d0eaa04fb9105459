"""In-order adapter: HyperConnect support for out-of-order platforms.

The paper leaves out-of-order completion "as a future work to make the
AXI HyperConnect compatible with future platforms".  This module
implements that feature as a self-contained pipeline stage placed between
the HyperConnect's master port and an out-of-order memory subsystem
(:class:`repro.memory.ooo.OutOfOrderMemory`):

* every forwarded read/write is re-tagged with a unique AXI ID, so the
  downstream controller is free to reorder across transactions while the
  AXI per-ID rule keeps each transaction intact;
* returning R and B beats are buffered per ID and released upstream in
  the original grant order, restoring exactly the in-order contract the
  HyperConnect's routing information relies on.

The adapter is transparent: same links, same beat objects (address beats
are shallow-copied so upstream bookkeeping never sees the re-tagged IDs),
one cycle of latency in each direction (its queues are registered
channels like every other stage).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List

from ..axi.idgen import IdAllocator
from ..axi.payloads import AddrBeat, DataBeat, RespBeat
from ..axi.port import AxiLink
from ..sim.component import Component
from ..sim.errors import ConfigurationError


class InOrderAdapter(Component):
    """Re-tagging, re-ordering bridge between two AXI links.

    Parameters
    ----------
    upstream:
        Link whose master side is driven by the HyperConnect (in-order
        world).
    downstream:
        Link served by the (possibly out-of-order) memory subsystem.
    id_bits:
        Width of the tracking-ID space; bounds outstanding transactions.
    buffer_beats:
        Total R beats the reorder buffer may hold.  Admission control
        reserves buffer space *before* forwarding a read downstream, so
        an overtaken oldest transaction can always land its data — the
        classic reorder-buffer deadlock is impossible by construction.
        Must be at least the largest forwarded burst length (the nominal
        burst, after HyperConnect equalization).
    """

    def __init__(self, sim, name: str, upstream: AxiLink,
                 downstream: AxiLink, id_bits: int = 6,
                 buffer_beats: int = 256) -> None:
        super().__init__(sim, name)
        if buffer_beats < 1:
            raise ConfigurationError("buffer_beats must be >= 1")
        self.upstream = upstream
        self.downstream = downstream
        self.buffer_beats = buffer_beats
        self._ids = IdAllocator(id_bits)
        #: grant-order bookkeeping: [tracking_id, original_id, beats_left]
        self._read_order: Deque[list] = deque()
        self._write_order: Deque[list] = deque()
        #: out-of-order arrivals, keyed by tracking id
        self._read_buffers: Dict[int, List[DataBeat]] = {}
        self._resp_buffers: Dict[int, RespBeat] = {}
        self._buffered_beats = 0
        #: buffer space promised to forwarded-but-unreleased reads
        self._reserved_beats = 0
        #: beats that arrived for a transaction other than the oldest
        #: outstanding one while the oldest had produced nothing yet —
        #: direct evidence the downstream served out of order
        self.out_of_order_arrivals = 0

    # ------------------------------------------------------------------
    # request path (upstream -> downstream)
    # ------------------------------------------------------------------

    # Each step below returns ``True`` when it did nothing, so the tick
    # can report idle (see :meth:`Component.tick`).

    def _forward_request(self, source, destination,
                         order: Deque[list]) -> bool:
        if not source.can_pop() or not destination.can_push():
            return True
        if not self._ids.available():
            return True
        beat: AddrBeat = source.front()
        is_read = order is self._read_order
        if is_read:
            if beat.length > self.buffer_beats:
                raise ConfigurationError(
                    f"{self.name}: burst of {beat.length} beats exceeds "
                    f"the reorder buffer ({self.buffer_beats} beats); "
                    f"raise buffer_beats or lower the nominal burst")
            if self._reserved_beats + beat.length > self.buffer_beats:
                return True  # admission control: no space promised yet
            self._reserved_beats += beat.length
        tracking_id = self._ids.allocate()
        retagged = dataclasses.replace(beat, txn_id=tracking_id)
        source.pop()
        destination.push(retagged)
        order.append([tracking_id, beat.txn_id, beat.length, beat])
        return False

    # ------------------------------------------------------------------
    # return path (downstream -> upstream), in original order
    # ------------------------------------------------------------------

    def _ingest_read_data(self) -> bool:
        if not self.downstream.r.can_pop():
            return True
        if self._buffered_beats >= self.buffer_beats:
            return True
        beat: DataBeat = self.downstream.r.pop()
        if (self._read_order and beat.txn_id != self._read_order[0][0]
                and not self._read_buffers.get(self._read_order[0][0])):
            self.out_of_order_arrivals += 1
        self._read_buffers.setdefault(beat.txn_id, []).append(beat)
        self._buffered_beats += 1
        return False

    def _release_read_data(self) -> bool:
        if not self._read_order or not self.upstream.r.can_push():
            return True
        tracking_id, original_id, beats_left, request = self._read_order[0]
        buffered = self._read_buffers.get(tracking_id)
        if not buffered:
            return True
        beat = buffered.pop(0)
        self._buffered_beats -= 1
        beat.txn_id = original_id
        beat.addr_beat = request
        self.upstream.r.push(beat)
        self._reserved_beats -= 1
        entry = self._read_order[0]
        entry[2] -= 1
        if entry[2] == 0:
            self._read_order.popleft()
            self._read_buffers.pop(tracking_id, None)
            self._ids.release(tracking_id)
        return False

    def _ingest_write_response(self) -> bool:
        if not self.downstream.b.can_pop():
            return True
        response: RespBeat = self.downstream.b.front()
        if response.txn_id in self._resp_buffers:
            return True  # cannot happen with unique ids; defensive
        self.downstream.b.pop()
        self._resp_buffers[response.txn_id] = response
        return False

    def _release_write_response(self) -> bool:
        if not self._write_order or not self.upstream.b.can_push():
            return True
        tracking_id, original_id, __, request = self._write_order[0]
        response = self._resp_buffers.pop(tracking_id, None)
        if response is None:
            return True
        response.txn_id = original_id
        response.addr_beat = request
        self.upstream.b.push(response)
        self._write_order.popleft()
        self._ids.release(tracking_id)
        return False

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        idle = self._forward_request(self.upstream.ar, self.downstream.ar,
                                     self._read_order)
        idle &= self._forward_request(self.upstream.aw, self.downstream.aw,
                                      self._write_order)
        # write data needs no re-tagging: it follows AW order on both
        # sides (the OoO controller never reorders writes)
        if self.upstream.w.can_pop() and self.downstream.w.can_push():
            self.downstream.w.push(self.upstream.w.pop())
            idle = False
        idle &= self._ingest_read_data()
        idle &= self._release_read_data()
        idle &= self._ingest_write_response()
        idle &= self._release_write_response()
        return idle

    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Transactions forwarded downstream and not yet fully released."""
        return self._ids.in_flight

    def idle(self) -> bool:
        """True when nothing is tracked or buffered."""
        return (not self._read_order and not self._write_order
                and self._buffered_beats == 0
                and not self._resp_buffers)
