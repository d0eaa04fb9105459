"""Transaction Supervisor (TS): per-port bandwidth and access management.

The TS is "the core module of the AXI HyperConnect concerning bandwidth and
memory access management".  One TS instance supervises one input port and
implements, per the paper:

* **burst equalization** (mechanism of [11]): incoming read/write requests
  are split into sub-requests of a *nominal burst size*; the returning data
  and responses are merged back transparently (the merge itself is carried
  out on the proactive data paths, see :mod:`repro.hyperconnect.exbar`);
* **outstanding-transaction limiting** ([11]): at most a programmable
  number of sub-transactions of each port are in flight;
* **bandwidth reservation** (mechanism of [10]): each port holds a budget
  of sub-transactions that is consumed on every issued sub-request and
  recharged synchronously every reservation period by the central unit;
* **decoupling**: a decoupled port's requests are neither popped nor
  forwarded (the eFIFO gate additionally holds the HA-side handshake low).

The TS adds exactly one cycle of latency on each address request — its
output channel is a single registered stage — and zero latency on the
R/W/B channels, which it manages proactively via routing metadata.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..axi.burst import split_burst
from ..axi.checker import ProtocolError, check_addr_beat
from ..axi.payloads import AddrBeat, DataBeat, RespBeat
from ..axi.types import BurstType, Resp
from ..sim.channel import Channel
from ..sim.component import Component
from ..sim.errors import ConfigurationError
from ..sim.events import PortFaultEvent
from ..sim.stats import PortFaultStats
from .efifo import EFifoLink


@dataclass
class PortConfig:
    """Runtime-reconfigurable parameters of one input port.

    Written through the register file; read by the TS every cycle.
    """

    nominal_burst: int = 16
    max_outstanding: int = 8
    #: sub-transactions per reservation period; ``None`` = unlimited
    budget: Optional[int] = None
    #: watchdog: max cycles an issued sub-transaction may stay
    #: outstanding before the port is contained; ``None`` disables the
    #: watchdog (and the ingest-time protocol guard armed with it)
    timeout_cycles: Optional[int] = None
    #: region filter (grant enforcement on the data plane): any
    #: request whose burst footprint leaves
    #: ``[region_base, region_base + region_bytes)`` trips containment
    #: with DECERR.  ``region_bytes == 0`` disables the filter, which is
    #: the default so untenanted systems behave exactly as before.
    region_base: int = 0
    region_bytes: int = 0
    #: region-filter retargets (REGION_PAGES writes), read back
    #: through the REGION_EPOCH register
    region_epoch: int = 0
    #: counters exposed through the read-only ISSUED_* registers
    issued_read: int = field(default=0)
    issued_write: int = field(default=0)

    def validate(self) -> None:
        """Raise on inconsistent values (driver-level guard)."""
        if self.nominal_burst < 1:
            raise ConfigurationError("nominal_burst must be >= 1")
        if self.max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError("budget must be >= 0 or None")
        if self.timeout_cycles is not None and self.timeout_cycles < 1:
            raise ConfigurationError("timeout_cycles must be >= 1 or None")
        if self.region_base < 0 or self.region_bytes < 0:
            raise ConfigurationError(
                "region_base/region_bytes must be >= 0")


def drain_and_complete_orphans(link, inflight_reads, inflight_writes,
                               synth_resp, stats) -> bool:
    """One containment cycle on a decoupled port: drain, then synthesize.

    Pure with respect to its arguments — it touches only the given eFIFO
    ``link``, the ``[origin, beats_owed]`` read queue / origin write queue,
    and the :class:`~repro.sim.stats.PortFaultStats` counters — so it can
    be unit-tested without building a HyperConnect (and reused by any
    future containment host).  Semantics:

    * swallow every request and W beat still visible in the eFIFO (they
      were accepted before the gate closed); newly drained requests join
      the orphan queues;
    * synthesize at most one R beat and one B response per call, carrying
      ``synth_resp``, so the upstream master's protocol state machine
      finishes every burst it started — with an error, but without
      hanging.

    Returns ``True`` when the call changed nothing (the idle report of
    the containment tick that calls it).
    """
    idle = True
    while link.ar.can_pop():
        beat = link.ar.pop()
        inflight_reads.append([beat, beat.length])
        stats.drained_requests += 1
        idle = False
    while link.aw.can_pop():
        beat = link.aw.pop()
        inflight_writes.append(beat)
        stats.drained_requests += 1
        idle = False
    while link.w.can_pop():
        link.w.pop()
        stats.drained_w_beats += 1
        idle = False
    if inflight_reads and link.r.can_push():
        origin, owed = inflight_reads[0]
        link.r.push(DataBeat(last=owed == 1, txn_id=origin.txn_id,
                             resp=synth_resp, addr_beat=origin))
        stats.synth_r_beats += 1
        if owed == 1:
            stats.orphans_completed += 1
        idle = False
    if inflight_writes and link.b.can_push():
        origin = inflight_writes[0]
        link.b.push(RespBeat(txn_id=origin.txn_id,
                             resp=synth_resp, addr_beat=origin))
        stats.synth_b_beats += 1
        stats.orphans_completed += 1
        idle = False
    return idle


class TransactionSupervisor(Component):
    """Supervises one HyperConnect input port.

    Parameters
    ----------
    ha_link:
        The port's :class:`~repro.hyperconnect.efifo.EFifoLink` (HA side).
    out_ar / out_aw:
        Registered single-stage channels towards the EXBAR; their one
        cycle of latency is the TS's address-path latency.
    config:
        Shared :class:`PortConfig` (also mutated via the register file).
    """

    def __init__(self, sim, name: str, port_index: int,
                 ha_link: EFifoLink, out_ar: Channel, out_aw: Channel,
                 config: Optional[PortConfig] = None) -> None:
        super().__init__(sim, name)
        self.port_index = port_index
        self.ha_link = ha_link
        self.out_ar = out_ar
        self.out_aw = out_aw
        self.config = config if config is not None else PortConfig()
        self.config.validate()
        #: sub-requests produced by the splitter, awaiting issue
        self._pending_ar: Deque[AddrBeat] = deque()
        self._pending_aw: Deque[AddrBeat] = deque()
        #: in-flight sub-transactions (issued, not yet completed)
        self.outstanding_reads = 0
        self.outstanding_writes = 0
        #: remaining reservation budget in the current period
        self.budget_remaining: Optional[int] = self.config.budget
        #: global enable flag mirrored from the central unit
        self.enabled = True
        self.splits_performed = 0
        #: issue cycles of forwarded sub-transactions, completion order
        #: (head = oldest; the watchdog deadline derives from it)
        self._read_issue_cycles: Deque[int] = deque()
        self._write_issue_cycles: Deque[int] = deque()
        #: ingested origin requests still owed data/responses by this
        #: port, in ingest order: reads as ``[origin, beats_owed]``,
        #: writes as origins (each owed exactly one B).  Maintained by
        #: push subscriptions on the return channels, so genuine and
        #: synthesized deliveries are accounted uniformly.
        self._inflight_reads: Deque[list] = deque()
        self._inflight_writes: Deque[AddrBeat] = deque()
        #: W-emission ledger: ``[txn_id, beats_not_yet_pushed]`` per
        #: upstream write, in AW-push order.  AXI write data is not
        #: interleaved, so W pushes decrement the head entry.  The ledger
        #: exists for revocation: when a planned quiesce synthesizes a B
        #: before the engine has emitted every W beat, the shortfall is
        #: remembered so the late beats can be swallowed after recouple
        #: instead of wedging the port (nothing downstream routes them).
        self._w_expected: Deque[list] = deque()
        #: future W pushes that belong to revocation-retired writes
        self._w_skip_push = 0
        #: residual W beats already in the eFIFO awaiting swallow
        self._w_residue = 0
        #: containment state: once a watchdog or protocol trip fires the
        #: port is decoupled and the TS switches to orphan completion
        self.faulted = False
        self._synth_resp = Resp.SLVERR
        self.fault_stats = PortFaultStats()
        #: lifetime count of hypervisor-initiated revocation quiesces
        #: (deliberately NOT part of fault_stats: a revocation is a
        #: planned transition, not a fault, and must not perturb the
        #: pinned fault-stat digests)
        self.revocations = 0
        #: True between begin_revocation and clear_fault/reset: gates the
        #: residue capture so watchdog/protocol containment is untouched
        self._revoking = False
        ha_link.r.subscribe_push(self._on_r_push)
        ha_link.b.subscribe_push(self._on_b_push)
        ha_link.aw.subscribe_push(self._on_aw_push)
        ha_link.w.subscribe_push(self._on_w_push)

    # ------------------------------------------------------------------
    # orphan accounting (return-channel push subscriptions)
    # ------------------------------------------------------------------

    def _on_r_push(self, cycle: int, beat) -> None:
        """One R beat reached the HA; the oldest read owes one fewer."""
        if self._inflight_reads:
            entry = self._inflight_reads[0]
            entry[1] -= 1
            if entry[1] <= 0:
                self._inflight_reads.popleft()

    def _on_b_push(self, cycle: int, beat) -> None:
        """One B response reached the HA; the oldest write is answered."""
        if self._inflight_writes:
            origin = self._inflight_writes.popleft()
            if self._revoking:
                self._note_retired_write(origin.txn_id)

    def _on_aw_push(self, cycle: int, beat) -> None:
        """The engine started a write burst; it owes ``length`` W beats."""
        self._w_expected.append([beat.txn_id, beat.length])

    def _on_w_push(self, cycle: int, beat) -> None:
        """One W beat entered the eFIFO from the engine.

        If retired writes still owe pushes, this beat is theirs (the W
        stream is in order) and must be swallowed rather than routed;
        otherwise it advances the oldest live write's ledger entry.
        """
        if self._w_skip_push > 0:
            self._w_skip_push -= 1
            self._w_residue += 1
            return
        if self._w_expected:
            entry = self._w_expected[0]
            entry[1] -= 1
            if entry[1] <= 0:
                self._w_expected.popleft()

    def _note_retired_write(self, txn_id) -> None:
        """A revocation answered this write early: remember the W beats
        the engine has not pushed yet, so they can be swallowed when
        they arrive after recouple (decoupling gates the engine's
        pushes, so waiting for them before commit would deadlock)."""
        for index, entry in enumerate(self._w_expected):
            if entry[0] == txn_id:
                if entry[1] > 0:
                    self._w_skip_push += entry[1]
                del self._w_expected[index]
                return

    # ------------------------------------------------------------------
    # central-unit interface
    # ------------------------------------------------------------------

    def recharge(self) -> None:
        """Synchronous budget recharge at the reservation period boundary.

        Called by the central unit from *its* tick, which reports acting,
        so the fast path cannot freeze over the cycle of the recharge.
        """
        self.budget_remaining = self.config.budget

    def note_read_complete(self) -> None:
        """A sub-read's last data beat was delivered (EXBAR callback)."""
        if self.outstanding_reads <= 0:
            raise ConfigurationError(
                f"{self.name}: read completion with none outstanding")
        self.outstanding_reads -= 1
        if self._read_issue_cycles:
            self._read_issue_cycles.popleft()

    def note_write_complete(self) -> None:
        """A sub-write's response arrived (EXBAR callback)."""
        if self.outstanding_writes <= 0:
            raise ConfigurationError(
                f"{self.name}: write completion with none outstanding")
        self.outstanding_writes -= 1
        if self._write_issue_cycles:
            self._write_issue_cycles.popleft()

    # ------------------------------------------------------------------

    @property
    def coupled(self) -> bool:
        """Mirrors the eFIFO gate state."""
        return self.ha_link.coupled

    def _consume_budget(self) -> None:
        if self.budget_remaining is not None:
            self.budget_remaining -= 1

    def _split(self, beat: AddrBeat) -> Deque[AddrBeat]:
        """Equalize one request to the nominal burst size."""
        nominal = self.config.nominal_burst
        beat.port = self.port_index
        if beat.length <= nominal:
            beat.final_sub = True
            return deque((beat,))
        pieces = split_burst(beat.address, beat.length, beat.size_bytes,
                             nominal)
        self.splits_performed += 1
        return deque(
            beat.split_child(addr, length, final_sub=index == len(pieces) - 1)
            for index, (addr, length) in enumerate(pieces))

    # ------------------------------------------------------------------
    # watchdog and containment
    # ------------------------------------------------------------------

    def _watchdog_deadline(self) -> Optional[int]:
        """Absolute cycle at which the oldest sub-transaction times out.

        ``None`` when the watchdog is disarmed or nothing is in flight.
        Deadlines derive from stored issue cycles, so a runtime change of
        ``timeout_cycles`` re-times every pending deadline.
        """
        timeout = self.config.timeout_cycles
        if timeout is None:
            return None
        deadline = None
        if self._read_issue_cycles:
            deadline = self._read_issue_cycles[0] + timeout
        if self._write_issue_cycles:
            candidate = self._write_issue_cycles[0] + timeout
            if deadline is None or candidate < deadline:
                deadline = candidate
        return deadline

    def _guard_request(self, beat: AddrBeat) -> Optional[str]:
        """Ingest-time protocol check (armed together with the watchdog)."""
        if self.config.timeout_cycles is None:
            return None
        try:
            check_addr_beat(beat, self.ha_link.version,
                            self.ha_link.data_bytes)
        except ProtocolError as exc:
            return str(exc)
        return None

    def _check_region(self, beat: AddrBeat) -> Optional[str]:
        """Stage-2 grant check: the burst footprint must stay inside the
        port's granted region.  Armed whenever ``region_bytes > 0``
        (independently of the watchdog — the hypervisor programs grants
        even on ports it does not watchdog)."""
        span = self.config.region_bytes
        if span == 0:
            return None
        if beat.burst is BurstType.FIXED:
            footprint = beat.size_bytes
        else:
            footprint = beat.length * beat.size_bytes
        base = self.config.region_base
        if beat.address < base or beat.address + footprint > base + span:
            return (f"access [0x{beat.address:x}, "
                    f"0x{beat.address + footprint:x}) outside granted "
                    f"region [0x{base:x}, 0x{base + span:x})")
        return None

    def _trip(self, cycle: int, kind: str, resp: Resp, age: int = 0,
              detail: str = "") -> None:
        """Enter containment: decouple, discard pending, raise the event.

        Sub-transactions already forwarded to the EXBAR are *not*
        cancelled — the EXBAR's decoupled-port routing drops/flushes
        their beats so the shared path drains at full speed, and the
        completion callbacks keep the outstanding counters exact.  The
        origins they derive from stay in the in-flight queues and are
        completed with synthesized error responses by
        :meth:`_containment_tick`.
        """
        self.faulted = True
        self._synth_resp = resp
        if kind == "watchdog_timeout":
            self.fault_stats.watchdog_trips += 1
        else:
            self.fault_stats.protocol_trips += 1
        self._pending_ar.clear()
        self._pending_aw.clear()
        self.ha_link.decouple()
        self.sim.events.publish(PortFaultEvent(
            cycle=cycle, source=self.name, port=self.port_index,
            kind=kind, age=age,
            outstanding_reads=self.outstanding_reads,
            outstanding_writes=self.outstanding_writes,
            detail=detail))

    def begin_revocation(self) -> None:
        """Enter containment for a hypervisor-initiated grant revocation.

        Same drain machinery as a watchdog trip — decouple, discard
        pending requests, complete orphans with synthesized ``DECERR``
        (the evicted tenant's view of its vanished grant) — but it is a
        planned transition, not a fault: no :class:`PortFaultEvent` is
        published (recovery agents must not auto-retry a deliberate
        revocation) and no trip counter moves.  A port already in
        containment stays on its fault path; the revocation rides the
        drain that is already underway.
        """
        if self.faulted:
            return
        self.faulted = True
        self._synth_resp = Resp.DECERR
        self.revocations += 1
        self._revoking = True
        self._pending_ar.clear()
        self._pending_aw.clear()
        self.ha_link.decouple()
        self.sim.wake()

    def _containment_tick(self, cycle: int) -> bool:
        """Drain the decoupled port and complete its orphans (delegates
        to the pure :func:`drain_and_complete_orphans` helper); ``True``
        when nothing moved."""
        idle = self._swallow_residual_w()
        return drain_and_complete_orphans(
            self.ha_link, self._inflight_reads, self._inflight_writes,
            self._synth_resp, self.fault_stats) and idle

    def _swallow_residual_w(self) -> bool:
        """Discard W beats owed by revocation-retired writes.

        Their B was synthesized during the quiesce; once the engine is
        recoupled it finishes pushing the burst it had started, and no
        consumer exists for those beats (the EXBAR only pops W for
        routed sub-writes) — without this they wedge the port forever.
        Returns ``True`` when no beat was swallowed.
        """
        idle = True
        while self._w_residue > 0 and self.ha_link.w.can_pop():
            self.ha_link.w.pop()
            self._w_residue -= 1
            self.fault_stats.drained_w_beats += 1
            idle = False
        return idle

    @property
    def drained(self) -> bool:
        """True once containment has fully run its course.

        Nothing outstanding downstream (the EXBAR finished dropping and
        flushing), nothing owed upstream, nothing pending or queued in
        the eFIFO: the port can be reset and re-coupled without any stale
        beat ever reaching a fresh engine.  A port wedged on a dead slave
        never drains — recovery policies give up and leave it
        quarantined, which is the correct end state.
        """
        return (self.outstanding_reads == 0
                and self.outstanding_writes == 0
                and not self._inflight_reads
                and not self._inflight_writes
                and not self._pending_ar
                and not self._pending_aw
                and self.ha_link.ar.is_idle
                and self.ha_link.aw.is_idle
                and self.ha_link.w.is_idle)

    def clear_fault(self) -> None:
        """Leave containment (hypervisor recovery, after :meth:`reset`)."""
        self.faulted = False
        self._revoking = False
        self.sim.wake()

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        # decoupled/disabled supervisors are fully idle; otherwise the TS
        # acts when it can ingest or forward.  A budget-stalled tick is
        # idle: only the central unit's recharge (its next_event_cycle)
        # or a configuration write, which wakes the kernel, can release
        # it.  A faulted TS acts while the eFIFO still holds anything or
        # orphans remain to be answered; a due watchdog deadline is
        # itself an action.
        if self.faulted:
            return self._containment_tick(cycle)
        link = self.ha_link
        if not link.gate.coupled or not self.enabled:
            return True
        idle = not self._w_residue or self._swallow_residual_w()
        # the reference kernel ticks every port's TS every cycle, so an
        # idle tick must stay O(1): the watchdog deadline is inlined
        # (same test as _watchdog_deadline) and a TS with nothing pending
        # and nothing queued returns after one check
        timeout = self.config.timeout_cycles
        if timeout is not None:
            reads = self._read_issue_cycles
            writes = self._write_issue_cycles
            if ((reads and cycle >= reads[0] + timeout)
                    or (writes and cycle >= writes[0] + timeout)):
                self._trip(cycle, "watchdog_timeout", Resp.SLVERR,
                           age=timeout)
                self._containment_tick(cycle)
                return False
        if not (self._pending_ar or self._pending_aw
                or link.ar._queue or link.aw._queue):
            return idle
        # ingest at most one new request per channel per cycle, keeping the
        # pending queues shallow (the eFIFO provides the real buffering)
        queue = link.ar._queue
        if not self._pending_ar and queue and queue[0][0] <= cycle:
            idle = False
            beat = link.ar.pop()
            kind = "protocol_violation"
            violation = self._guard_request(beat)
            if violation is None:
                violation = self._check_region(beat)
                if violation is not None:
                    kind = "region_violation"
            self._inflight_reads.append([beat, beat.length])
            if violation is not None:
                self._trip(cycle, kind, Resp.DECERR, detail=violation)
                self._containment_tick(cycle)
                return False
            self._pending_ar = self._split(beat)
        queue = link.aw._queue
        if not self._pending_aw and queue and queue[0][0] <= cycle:
            idle = False
            beat = link.aw.pop()
            kind = "protocol_violation"
            violation = self._guard_request(beat)
            if violation is None:
                violation = self._check_region(beat)
                if violation is not None:
                    kind = "region_violation"
            self._inflight_writes.append(beat)
            if violation is not None:
                self._trip(cycle, kind, Resp.DECERR, detail=violation)
                self._containment_tick(cycle)
                return False
            self._pending_aw = self._split(beat)
        # forward at most one sub-request per address channel per cycle,
        # subject to a free output slot, the outstanding limit and the
        # reservation budget (the output test first: a waiting port most
        # often sits behind a full stage)
        if self._pending_ar:
            out = self.out_ar
            budget = self.budget_remaining
            if ((out.capacity is None or out._occupancy < out.capacity)
                    and self.outstanding_reads < self.config.max_outstanding
                    and (budget is None or budget > 0)):
                sub = self._pending_ar.popleft()
                out.push(sub)
                self.outstanding_reads += 1
                self._read_issue_cycles.append(cycle)
                self._consume_budget()
                self.config.issued_read += 1
                idle = False
        if self._pending_aw:
            out = self.out_aw
            budget = self.budget_remaining
            if ((out.capacity is None or out._occupancy < out.capacity)
                    and self.outstanding_writes < self.config.max_outstanding
                    and (budget is None or budget > 0)):
                sub = self._pending_aw.popleft()
                out.push(sub)
                self.outstanding_writes += 1
                self._write_issue_cycles.append(cycle)
                self._consume_budget()
                self.config.issued_write += 1
                idle = False
        return idle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """The watchdog deadline is the TS's only internal alarm.

        Absolute-cycle based, so frozen-horizon bulk skips on the fast
        path stop exactly at the trip cycle.
        """
        if self.faulted or not self.coupled or not self.enabled:
            return None
        return self._watchdog_deadline()

    def reset(self) -> None:
        self._pending_ar.clear()
        self._pending_aw.clear()
        self.outstanding_reads = 0
        self.outstanding_writes = 0
        self.budget_remaining = self.config.budget
        self._read_issue_cycles.clear()
        self._write_issue_cycles.clear()
        self._inflight_reads.clear()
        self._inflight_writes.clear()
        self._w_expected.clear()
        self._w_skip_push = 0
        self._w_residue = 0
        self.faulted = False
        self._revoking = False
        self.sim.wake()
