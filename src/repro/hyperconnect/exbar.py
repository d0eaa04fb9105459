"""EXBAR: the efficient crossbar of the AXI HyperConnect.

The EXBAR solves conflicts between the address requests propagated by the
Transaction Supervisors using **round-robin arbitration with a fixed
granularity of one transaction per TS module per round-cycle** — the
property that bounds per-transaction interference to ``N - 1`` competing
transactions (versus ``g * (N - 1)`` for interconnects with variable
granularity ``g``).

It also keeps the *routing information* — the order in which requests were
granted — in circular buffers, and uses it to route the R, W and B channels
**proactively**: data and response beats are moved directly between the
master-side queues and the per-port eFIFO queues with no additional
latency, exactly matching the paper's latency budget (one cycle through
the EXBAR on address requests, zero on data/response channels).

Merge duties performed while routing (burst equalization bookkeeping):

* R: RLAST is cleared on the last beat of non-final sub-bursts so the HA
  sees a single seamless burst;
* W: beats from the granted port are re-chunked with WLAST per sub-burst;
* B: responses of non-final sub-writes are absorbed (their response code
  folded into the origin's accumulator); only the final sub-write's B —
  carrying the merged "worst" response — reaches the HA.

Decoupling safety: if a port is decoupled while its sub-transactions are
in flight, returning R/B beats are dropped (and counted) and owed W beats
are injected as null flush beats, so a misbehaving HA can never deadlock
the shared path — an isolation property the hypervisor relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..axi.payloads import RespBeat, WriteBeat
from ..axi.port import AxiLink
from ..sim.channel import Channel
from ..sim.component import Component
from .efifo import EFifoLink
from .supervisor import TransactionSupervisor


class Exbar(Component):
    """The crossbar and proactive data-path router.

    Parameters
    ----------
    supervisors:
        The per-port TS modules (completion notifications flow back to
        them so outstanding counters stay accurate).
    ts_ar / ts_aw:
        Per-port registered channels carrying sub-requests from the TSs.
    ha_links:
        Per-port eFIFO links (data-path endpoints on the HA side).
    out_ar / out_aw:
        Registered single-stage channels towards the master eFIFO; their
        latency is the EXBAR's address-path latency.
    master_link:
        The HyperConnect's master-side link (data-path endpoint towards
        the FPGA-PS interface).
    """

    def __init__(self, sim, name: str,
                 supervisors: List[TransactionSupervisor],
                 ts_ar: List[Channel], ts_aw: List[Channel],
                 ha_links: List[EFifoLink],
                 out_ar: Channel, out_aw: Channel,
                 master_link: AxiLink) -> None:
        super().__init__(sim, name)
        if not (len(supervisors) == len(ts_ar) == len(ts_aw)
                == len(ha_links)):
            raise ValueError("per-port argument lists must align")
        self.supervisors = supervisors
        self.ts_ar = ts_ar
        self.ts_aw = ts_aw
        self.ha_links = ha_links
        self.out_ar = out_ar
        self.out_aw = out_aw
        self.master_link = master_link
        self.n_ports = len(supervisors)
        #: the per-port TS queue deques, captured once so a tick can skip
        #: an arbitration scan with one any() when every queue is empty;
        #: sound because Channel._queue is only ever changed in place
        self._ar_queues = tuple(channel._queue for channel in ts_ar)
        self._aw_queues = tuple(channel._queue for channel in ts_aw)
        self._rr_ar = 0
        self._rr_aw = 0
        #: routing information (circular buffers in the RTL): grant order
        #: of sub-reads / sub-writes, consumed by the R / W+B routers.
        #: ``port`` and ``final_sub`` are snapshotted at grant time: when
        #: HyperConnects cascade, the downstream level's TS re-stamps both
        #: fields on the same AddrBeat object, so routing must not re-read
        #: them from the beat later.
        self._route_r: Deque[list] = deque()
        self._route_w: Deque[list] = deque()
        self._route_b: Deque[list] = deque()
        self.grants_ar = 0
        self.grants_aw = 0
        self.dropped_beats = 0   # beats destined to a decoupled port
        self.flush_beats = 0     # null W beats injected for decoupled ports

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        # Round-robin arbitration (one grant per address channel, fixed
        # granularity of one transaction) is written out inline and the
        # routing sub-steps are gated on their routing buffers: this tick
        # runs every cycle of every saturated-bandwidth experiment, so
        # call economy here is measurable end to end.  The arbitration
        # pointers only move on a grant and the routing buffers only
        # change when a beat transfers, so a tick without either is idle.
        idle = True
        n_ports = self.n_ports
        out = self.out_ar
        if any(self._ar_queues) and (out.capacity is None
                                     or out._occupancy < out.capacity):
            ts_ar = self.ts_ar
            port = self._rr_ar
            scan = n_ports
            while scan:
                scan -= 1
                channel = ts_ar[port]
                queue = channel._queue
                if queue and queue[0][0] <= cycle:
                    beat = channel.pop()
                    out.push(beat)
                    # granularity 1: the pointer moves past the granted
                    # port
                    port += 1
                    self._rr_ar = port if port < n_ports else 0
                    self.grants_ar += 1
                    self._route_r.append(
                        [beat.port, beat, beat.length, beat.final_sub])
                    idle = False
                    break
                port += 1
                if port >= n_ports:
                    port = 0
        out = self.out_aw
        if any(self._aw_queues) and (out.capacity is None
                                     or out._occupancy < out.capacity):
            ts_aw = self.ts_aw
            port = self._rr_aw
            scan = n_ports
            while scan:
                scan -= 1
                channel = ts_aw[port]
                queue = channel._queue
                if queue and queue[0][0] <= cycle:
                    beat = channel.pop()
                    out.push(beat)
                    port += 1
                    self._rr_aw = port if port < n_ports else 0
                    self.grants_aw += 1
                    self._route_w.append([beat.port, beat, beat.length])
                    self._route_b.append([beat.port, beat.final_sub, beat])
                    idle = False
                    break
                port += 1
                if port >= n_ports:
                    port = 0
        # the master-side guard of each router is hoisted here so a cycle
        # with nothing to move costs attribute tests instead of calls
        master = self.master_link
        if self._route_w:
            out = master.w
            if ((out.capacity is None or out._occupancy < out.capacity)
                    and not self._route_write_data(cycle)):
                idle = False
        if self._route_r:
            queue = master.r._queue
            if (queue and queue[0][0] <= cycle
                    and not self._route_read_data(cycle)):
                idle = False
        if self._route_b:
            queue = master.b._queue
            if (queue and queue[0][0] <= cycle
                    and not self._route_write_responses(cycle)):
                idle = False
        return idle

    # ------------------------------------------------------------------
    # proactive data-path routing
    # ------------------------------------------------------------------

    def _route_write_data(self, cycle: int) -> bool:
        """Move one W beat from the granted port to the master side.

        Caller guarantees ``self._route_w`` is non-empty and the master W
        channel has room; the remaining channel guards are inlined (see
        the tick docstring).  Like each router, returns ``True`` when no
        beat moved.
        """
        master_w = self.master_link.w
        entry = self._route_w[0]
        port, sub, beats_left = entry
        link = self.ha_links[port]
        if not link.gate.coupled:
            # flush: complete the owed sub-burst with null beats so the
            # memory subsystem (and every other port) is never blocked by
            # a decoupled HA
            beat = WriteBeat(last=beats_left == 1, data=None, addr_beat=sub)
            self.flush_beats += 1
        else:
            beat = link.w.try_pop()
            if beat is None:
                return True
            beat.last = beats_left == 1
            beat.addr_beat = sub
        master_w.push(beat)
        entry[2] -= 1
        if entry[2] == 0:
            self._route_w.popleft()
        return False

    def _route_read_data(self, cycle: int) -> bool:
        """Route one R beat from the master side to its port.

        Caller guarantees ``self._route_r`` is non-empty and the master R
        head is visible this cycle.
        """
        master_r = self.master_link.r
        beat = master_r._queue[0][1]
        entry = self._route_r[0]
        port, sub, beats_left, final_sub = entry
        link = self.ha_links[port]
        if link.gate.coupled:
            r = link.r
            if r.capacity is not None and r._occupancy >= r.capacity:
                return True  # backpressure towards the memory side
            master_r.pop()
            if beat.last and not final_sub:
                beat.last = False   # seam between merged sub-bursts
            beat.addr_beat = sub
            r.push(beat)
        else:
            master_r.pop()
            self.dropped_beats += 1
        entry[2] -= 1
        if entry[2] == 0:
            self._route_r.popleft()
            self.supervisors[port].note_read_complete()
        return False

    def _route_write_responses(self, cycle: int) -> bool:
        """Consume one B response, merging per the equalization rules.

        Caller guarantees ``self._route_b`` is non-empty and the master B
        head is visible this cycle.
        """
        master_b = self.master_link.b
        response = master_b._queue[0][1]
        port, final_sub, sub = self._route_b[0]
        link = self.ha_links[port]
        origin = sub.origin()
        if final_sub and link.gate.coupled:
            if not link.b.can_push():
                return True
            master_b.pop()
            merged = origin.resp_acc.merged_with(response.resp)
            link.b.push(RespBeat(txn_id=origin.txn_id, resp=merged,
                                 addr_beat=origin))
        else:
            master_b.pop()
            origin.resp_acc = origin.resp_acc.merged_with(response.resp)
            if final_sub:
                self.dropped_beats += 1
        self._route_b.popleft()
        self.supervisors[port].note_write_complete()
        return False

    # ------------------------------------------------------------------

    @property
    def routing_backlog(self) -> int:
        """Entries currently held in the routing-information buffers."""
        return len(self._route_r) + len(self._route_w) + len(self._route_b)
