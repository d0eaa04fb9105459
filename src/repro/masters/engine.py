"""Generic AXI master engine.

Every hardware accelerator model in this library (DMA, traffic generators,
the CHaiDNN-like accelerator) is built on :class:`AxiMasterEngine`: a
clocked component that turns byte-level *jobs* ("read N bytes from X",
"write N bytes to Y", "copy N bytes from X to Y") into protocol-legal AXI
bursts, issues them with a configurable number of outstanding transactions,
supplies/collects the data beats, and records per-transaction and per-job
timing.

The engine obeys the AXI rules the rest of the system depends on:

* bursts never cross 4 KiB boundaries and never exceed the protocol's
  maximum length (:func:`repro.axi.burst.legalize`);
* W beats are supplied in AW issue order with WLAST delimiting each burst;
* IDs are allocated from a fixed-width pool and released on completion;
* reads are matched to AR order (the modelled memory is in-order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..axi.burst import legalize, split_burst
from ..axi.idgen import IdAllocator
from ..axi.payloads import (
    AddrBeat,
    WriteBeat,
    make_read_request,
    make_write_request,
)
from ..axi.port import AxiLink
from ..axi.types import Resp
from ..sim.component import Component
from ..sim.errors import ConfigurationError
from ..sim.stats import OnlineStats

#: hoisted enum member: the R/B collectors test every beat's response
#: against OKAY by identity before paying the ``is_error`` property call
_RESP_OKAY = Resp.OKAY


@dataclass
class Job:
    """One byte-level transfer request handed to a master engine.

    Invariant: a finished job (``completed`` set) is never written
    again.  :meth:`AxiMasterEngine._maybe_finish` returns early for it,
    and every other writer reaches a job through a live queue entry
    (``_jobs``, ``_active_jobs`` or the issue/outstanding queues, which
    only hold unfinished jobs).  The TLM snapshot relies on this to save
    live jobs only.
    """

    kind: str                  # "read", "write" or "copy"
    address: int               # source (read/copy) or destination (write)
    nbytes: int
    dest: Optional[int] = None     # copy destination
    data: Optional[bytes] = None   # write payload (None = timing-only)
    label: str = ""
    started: Optional[int] = None
    completed: Optional[int] = None
    read_bytes_done: int = 0
    write_bytes_done: int = 0
    result: Optional[bytearray] = None   # assembled read data, if collected
    copy_issued_beats: int = 0     # copy beats already re-issued as writes

    @property
    def latency(self) -> Optional[int]:
        """Cycles from first address issue to completion."""
        if self.started is None or self.completed is None:
            return None
        return self.completed - self.started


class AxiMasterEngine(Component):
    """Burst-issuing AXI master.

    Parameters
    ----------
    sim, name:
        Simulation bookkeeping.
    link:
        The AXI link whose master side this engine drives.
    burst_len:
        Preferred burst length in beats; long transfers are chopped into
        bursts of this size (further legalized against 4 KiB boundaries).
        This is the knob that differentiates "well-behaved" masters
        (16-beat bursts) from greedy ones (256-beat bursts) in the
        fairness experiments.
    max_outstanding:
        Maximum address requests in flight (issued, not yet completed).
    collect_data:
        Keep the data bytes of read jobs in ``job.result`` (requires the
        memory model to carry real data).  Off by default: timing studies
        do not need payloads and run much faster without them.
    """

    def __init__(self, sim, name: str, link: AxiLink,
                 burst_len: int = 16, max_outstanding: int = 8,
                 id_bits: int = 4, collect_data: bool = False,
                 w_beat_gap: int = 0) -> None:
        super().__init__(sim, name)
        if burst_len < 1:
            raise ConfigurationError("burst_len must be >= 1")
        if max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be >= 1")
        self.link = link
        self.burst_len = burst_len
        self.max_outstanding = max_outstanding
        self.collect_data = collect_data
        #: idle cycles inserted between W beats (0 = stream at full rate).
        #: Latency-measurement experiments use a non-zero gap so the W
        #: path is observed without self-inflicted queueing.
        self.w_beat_gap = w_beat_gap
        #: first cycle at which the next W beat may be supplied (absolute,
        #: so idle gap cycles need no per-cycle countdown work)
        self._w_gap_until = 0
        self._ids = IdAllocator(id_bits)
        self._jobs: Deque[Job] = deque()
        self._active_jobs: List[Job] = []
        #: address beats ready to issue: (beat, job)
        self._issue_queue: Deque[tuple] = deque()
        #: reads awaiting data, in AR order: [beat, beats_left, job]
        self._outstanding_reads: Deque[list] = deque()
        #: writes awaiting B, in AW order: (beat, job)
        self._outstanding_writes: Deque[tuple] = deque()
        #: len(_outstanding_reads) + len(_outstanding_writes), maintained
        #: incrementally: the outstanding limit is checked every cycle
        self._n_outstanding = 0
        #: W beats to supply, in AW order
        self._write_data: Deque[WriteBeat] = deque()
        #: copy staging: bytes read but not yet re-issued as writes
        self._copy_buffer: Deque[tuple] = deque()
        self.read_latency = OnlineStats()   # per-burst AR->last R
        self.write_latency = OnlineStats()  # per-burst AW->B
        self.job_latency = OnlineStats()
        self.jobs_completed: List[Job] = []
        self.bytes_read = 0
        self.bytes_written = 0
        #: error responses observed on R and B (SLVERR/DECERR beats)
        self.error_responses = 0
        self._active = True
        self._completion_callbacks: List[Callable[[Job, int], None]] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """When False the engine is completely tri-stated: it neither
        issues nor consumes beats.  Clear it when the accelerator has
        been swapped out by dynamic partial reconfiguration and a new
        engine drives the same port.
        """
        return self._active

    @active.setter
    def active(self, value: bool) -> None:
        self._active = bool(value)
        self.sim.wake()

    def enqueue_read(self, address: int, nbytes: int,
                     label: str = "") -> Job:
        """Queue a read of ``nbytes`` from ``address``."""
        job = Job("read", address, self._check_size(nbytes), label=label)
        self._jobs.append(job)
        self.sim.wake()
        return job

    def enqueue_write(self, address: int, nbytes: int,
                      data: Optional[bytes] = None,
                      label: str = "") -> Job:
        """Queue a write of ``nbytes`` to ``address``.

        ``data`` is optional; without it the engine sends timing-only
        beats (payload ``None``).
        """
        if data is not None and len(data) != nbytes:
            raise ConfigurationError(
                f"write data length {len(data)} != nbytes {nbytes}")
        job = Job("write", address, self._check_size(nbytes), data=data,
                  label=label)
        self._jobs.append(job)
        self.sim.wake()
        return job

    def enqueue_copy(self, source: int, dest: int, nbytes: int,
                     label: str = "") -> Job:
        """Queue a copy: read from ``source``, write the data to ``dest``."""
        job = Job("copy", source, self._check_size(nbytes), dest=dest,
                  label=label)
        self._jobs.append(job)
        self.sim.wake()
        return job

    def on_job_complete(self, callback: Callable[[Job, int], None]) -> None:
        """Register ``callback(job, cycle)`` to run at job completion."""
        self._completion_callbacks.append(callback)

    @property
    def busy(self) -> bool:
        """True while any job is queued or in flight."""
        return bool(self._jobs or self._active_jobs or self._issue_queue
                    or self._outstanding_reads or self._outstanding_writes
                    or self._write_data)

    @property
    def outstanding(self) -> int:
        """Issued address requests still awaiting data/response.

        Liveness tests assert this reaches zero: whatever faults the
        fabric contains, every issued transaction must be answered.
        """
        return len(self._outstanding_reads) + len(self._outstanding_writes)

    def _check_size(self, nbytes: int) -> int:
        beat = self.link.data_bytes
        if nbytes < 1 or nbytes % beat:
            raise ConfigurationError(
                f"transfer size must be a positive multiple of the bus "
                f"width ({beat} B), got {nbytes}")
        return nbytes

    # ------------------------------------------------------------------
    # burst preparation
    # ------------------------------------------------------------------

    def _bursts_for(self, address: int, nbytes: int) -> List[tuple]:
        """Chop a linear transfer into (addr, beats) bursts."""
        beat = self.link.data_bytes
        pieces = []
        for chunk_addr, chunk_beats in split_burst(
                address, nbytes // beat, beat, self.burst_len):
            pieces.extend(legalize(chunk_addr, chunk_beats, beat,
                                   self.link.version))
        return pieces

    def _prepare_job(self, job: Job, cycle: int) -> None:
        """Expand a job into issueable address beats."""
        beat = self.link.data_bytes
        if job.kind in ("read", "copy"):
            for addr, beats in self._bursts_for(job.address, job.nbytes):
                self._issue_queue.append(
                    (make_read_request(addr, beats, beat), job))
        if job.kind == "write":
            offset = 0
            for addr, beats in self._bursts_for(job.address, job.nbytes):
                chunk = None
                if job.data is not None:
                    chunk = job.data[offset:offset + beats * beat]
                self._issue_queue.append(
                    (make_write_request(addr, beats, beat, data=chunk), job))
                offset += beats * beat
        self._active_jobs.append(job)

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        if not self._active:
            return True
        idle = True
        # start queued jobs (keeping the issue queue shallow: one job's
        # bursts at a time plus the next job for pipelining)
        if self._jobs:
            while self._jobs and len(self._issue_queue) < 2 * self.burst_len:
                self._prepare_job(self._jobs.popleft(), cycle)
                idle = False
        # each sub-step call is gated on the cheap part of its own guard,
        # so an idle step costs attribute tests instead of a call (the
        # guards repeat inside the sub-steps, which subclasses override);
        # a port waiting at its outstanding limit or behind a full
        # channel is the common idle case.  Every sub-step returns True
        # when it did nothing
        link = self.link
        issue_queue = self._issue_queue
        if issue_queue and self._n_outstanding < self.max_outstanding:
            out = link.ar if issue_queue[0][0].is_read else link.aw
            if ((out.capacity is None or out._occupancy < out.capacity)
                    and not self._issue_addresses(cycle)):
                idle = False
        if self._write_data and cycle >= self._w_gap_until:
            out = link.w
            if ((out.capacity is None or out._occupancy < out.capacity)
                    and not self._supply_write_data(cycle)):
                idle = False
        queue = link.r._queue
        if (queue and queue[0][0] <= cycle
                and not self._collect_read_data(cycle)):
            idle = False
        queue = link.b._queue
        if (queue and queue[0][0] <= cycle
                and not self._collect_write_responses(cycle)):
            idle = False
        if self._copy_buffer and not self._drain_copy_buffer(cycle):
            idle = False
        return idle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """The W-beat gap timer is the engine's only internal alarm."""
        if self._active and self._write_data and cycle < self._w_gap_until:
            return self._w_gap_until
        return None

    # -- address issue --------------------------------------------------

    def _issue_addresses(self, cycle: int) -> bool:
        issued_ar = issued_aw = False
        scan = len(self._issue_queue)
        while scan and (not issued_ar or not issued_aw):
            scan -= 1
            if not self._issue_queue:
                break
            request, job = self._issue_queue[0]
            if self._n_outstanding >= self.max_outstanding:
                break
            if not self._ids.available():
                break
            if request.is_read:
                if issued_ar or not self.link.ar.can_push():
                    break
                self._issue_queue.popleft()
                request.txn_id = self._ids.allocate()
                request.issued = cycle
                if job.started is None:
                    job.started = cycle
                self.link.ar.push(request)
                self._outstanding_reads.append(
                    [request, request.length, job])
                self._n_outstanding += 1
                issued_ar = True
            else:
                if issued_aw or not self.link.aw.can_push():
                    break
                self._issue_queue.popleft()
                request.txn_id = self._ids.allocate()
                request.issued = cycle
                if job.started is None:
                    job.started = cycle
                self.link.aw.push(request)
                self._outstanding_writes.append((request, job))
                self._n_outstanding += 1
                self._queue_write_beats(request)
                issued_aw = True
        return not (issued_ar or issued_aw)

    def _queue_write_beats(self, request: AddrBeat) -> None:
        beat_bytes = request.size_bytes
        payload = request.data
        for index in range(request.length):
            chunk = None
            if payload is not None:
                chunk = payload[index * beat_bytes:(index + 1) * beat_bytes]
            self._write_data.append(WriteBeat(
                last=index == request.length - 1,
                data=chunk,
                addr_beat=request,
            ))

    # -- data movement ---------------------------------------------------

    def _supply_write_data(self, cycle: int) -> bool:
        if cycle < self._w_gap_until:
            return True
        write_data = self._write_data
        if write_data and self.link.w.try_push(write_data[0]):
            write_data.popleft()
            self._w_gap_until = cycle + self.w_beat_gap + 1
            return False
        return True

    def _collect_read_data(self, cycle: int) -> bool:
        # inlined Channel.try_pop: one beat per cycle at full bandwidth
        # runs through here, so the pop is spelled out (the R channel is
        # never gated — only the HA-driven AR/AW/W sides are)
        r = self.link.r
        queue = r._queue
        if not queue or queue[0][0] > cycle:
            return True
        __, beat = queue.popleft()
        r._popped_this_cycle += 1
        r.popped_total += 1
        if not r._dirty:
            r._dirty = True
            sim = r._sim
            sim._dirty_channels.append(r)
            sim._quiescent_until = 0
        if r._pop_listeners:
            for callback in r._pop_listeners:
                callback(cycle, beat)
        if not self._outstanding_reads:
            raise ConfigurationError(
                f"{self.name}: R beat with no outstanding read")
        entry = self._outstanding_reads[0]
        request, beats_left, job = entry
        resp = beat.resp
        if resp is not _RESP_OKAY and resp.is_error:
            self.error_responses += 1
        entry[1] = beats_left - 1
        self.bytes_read += request.size_bytes
        job.read_bytes_done += request.size_bytes
        if self.collect_data and beat.data is not None:
            if job.result is None:
                job.result = bytearray()
            job.result.extend(beat.data)
        if job.kind == "copy":
            self._copy_buffer.append((job, beat.data))
        if entry[1] == 0:
            self._outstanding_reads.popleft()
            self._n_outstanding -= 1
            self._ids.release(request.txn_id)
            self.read_latency.add(cycle - request.issued)
            if job.kind == "read":
                self._maybe_finish(job, cycle)
        return False

    def _collect_write_responses(self, cycle: int) -> bool:
        response = self.link.b.try_pop()
        if response is None:
            return True
        if not self._outstanding_writes:
            raise ConfigurationError(
                f"{self.name}: B response with no outstanding write")
        request, job = self._outstanding_writes.popleft()
        self._n_outstanding -= 1
        self._ids.release(request.txn_id)
        resp = response.resp
        if resp is not _RESP_OKAY and resp.is_error:
            self.error_responses += 1
        self.write_latency.add(cycle - request.issued)
        self.bytes_written += request.length * request.size_bytes
        job.write_bytes_done += request.length * request.size_bytes
        self._maybe_finish(job, cycle)
        return False

    # -- copy jobs ---------------------------------------------------------

    def _drain_copy_buffer(self, cycle: int) -> bool:
        """Turn buffered read beats of copy jobs into write bursts;
        ``True`` when no burst was ready.

        R data arrives in AR order and a job's reads are issued
        together, so the head job's beats sit together at the front of
        the buffer: its next chunk is ready exactly when the buffer's
        ``chunk``-th entry belongs to it.
        """
        idle = True
        beat_bytes = self.link.data_bytes
        buffer = self._copy_buffer
        while buffer:
            job = buffer[0][0]
            total_beats = job.nbytes // beat_bytes
            written = job.copy_issued_beats
            remaining = total_beats - written
            chunk = min(self.burst_len, remaining)
            if len(buffer) < chunk or buffer[chunk - 1][0] is not job:
                break
            data_parts = []
            for _ in range(chunk):
                __, data = buffer.popleft()
                data_parts.append(data)
            address = (job.dest or 0) + written * beat_bytes
            payload = None
            if all(part is not None for part in data_parts):
                payload = b"".join(data_parts)
            for sub_addr, sub_beats in legalize(
                    address, chunk, beat_bytes, self.link.version):
                self._issue_queue.append((make_write_request(
                    sub_addr, sub_beats, beat_bytes, data=payload), job))
                payload = None  # only attach once; sub-splits are rare
            job.copy_issued_beats = written + chunk
            idle = False
        return idle

    # -- reset -------------------------------------------------------------

    def reset(self) -> None:
        """Hard reset: drop all queued and in-flight work.

        Models the accelerator being reprogrammed (dynamic partial
        reconfiguration) or reset after a fault: protocol state is gone.
        Callers must only re-couple a previously decoupled port after
        resetting the engine behind it, exactly as a real DPR flow resets
        the swapped region.  Statistics are preserved.
        """
        self._jobs.clear()
        self._active_jobs.clear()
        self._issue_queue.clear()
        self._outstanding_reads.clear()
        self._outstanding_writes.clear()
        self._n_outstanding = 0
        self._write_data.clear()
        self._copy_buffer.clear()
        self._w_gap_until = 0
        self._ids = IdAllocator(self._ids.capacity.bit_length() - 1)
        self.sim.wake()

    # -- completion --------------------------------------------------------

    def _maybe_finish(self, job: Job, cycle: int) -> None:
        if job.completed is not None:
            return
        if job.kind == "read":
            done = job.read_bytes_done >= job.nbytes
        elif job.kind == "write":
            done = job.write_bytes_done >= job.nbytes
        else:  # copy
            done = (job.read_bytes_done >= job.nbytes
                    and job.write_bytes_done >= job.nbytes)
        if not done:
            return
        job.completed = cycle
        if job in self._active_jobs:
            self._active_jobs.remove(job)
        self.jobs_completed.append(job)
        if job.latency is not None:
            self.job_latency.add(job.latency)
        self._job_completed(job, cycle)
        for callback in self._completion_callbacks:
            callback(job, cycle)

    def _job_completed(self, job: Job, cycle: int) -> None:
        """Subclass hook run at job completion, before the callbacks
        registered with :meth:`on_job_complete`.

        A hook, not a registered callback: an engine holding its own
        bound method would be a reference cycle that outlives its
        simulator until the garbage collector finds it.
        """
