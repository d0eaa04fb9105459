"""In-order DRAM controller model.

The paper relies on one property of real FPGA SoC memory subsystems
(UG585/UG1085): transactions that enter the PS through an FPGA-PS port are
served **in order**.  This model reproduces that behaviour with a unified
command queue, a single shared data bus (one beat per cycle), and pipelined
command processing: while one burst streams its data, the access latency of
the next command overlaps — so back-to-back requests sustain full bus
bandwidth, but an isolated request pays the full access latency.

Fig. 1 of the paper shows the PS exposing *several* FPGA-PS slave ports
(HP0..HP3 on Zynq devices), all funnelling into that one controller, so
the model serves one link or a list of them: round-robin ingest into the
shared command queue, one write-data FIFO per port, and data and
responses routed back to the link each command arrived on.  A single
link is simply the one-port case.

Timing is configurable through :class:`DramTiming`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple, Union

from ..axi.burst import beat_addresses
from ..axi.payloads import AddrBeat, DataBeat, RespBeat, WriteBeat
from ..axi.port import AxiLink
from ..axi.types import BurstType, Resp
from ..sim.component import Component
from ..sim.errors import ConfigurationError
from ..sim.stats import OnlineStats
from .store import MemoryAccessFault, MemoryStore


@dataclass(frozen=True)
class DramTiming:
    """Latency parameters of the memory subsystem, in PL clock cycles.

    ``read_latency`` is the delay from a read command reaching the
    controller to its first data beat (covers FPGA-PS port traversal,
    controller queueing and CAS); calibrated in :mod:`repro.platforms` so
    the paper's Fig. 3(b) improvement percentages emerge.
    """

    read_latency: int = 37
    write_latency: int = 12
    resp_latency: int = 4

    def __post_init__(self) -> None:
        if min(self.read_latency, self.write_latency, self.resp_latency) < 1:
            raise ConfigurationError("DRAM latencies must be >= 1 cycle")


@dataclass(slots=True)
class _Command:
    """One queued burst command."""

    is_read: bool
    beat: AddrBeat
    arrival: int
    beats_left: int
    #: index of the served link the command arrived on (R/B go back there)
    port: int = 0
    data_start: Optional[int] = None
    #: per-beat addresses for non-INCR bursts (FIXED repeats, WRAP wraps);
    #: None for the common INCR case, where the address just increments
    addresses: Optional[list] = None
    #: beats served so far
    beat_index: int = 0
    #: a beat of this command faulted in the backing store; the write
    #: response (and subsequent read beats) carry DECERR instead of OKAY
    error: bool = False

    def current_address(self) -> int:
        if self.addresses is not None:
            return self.addresses[self.beat_index]
        return self.beat.address + self.beat_index * self.beat.size_bytes


class MemorySubsystem(Component):
    """The PS-side slave: FPGA-PS interface + DRAM controller + DRAM.

    Parameters
    ----------
    sim, name:
        Simulation bookkeeping.
    link:
        The AXI link whose slave side this component serves (it pops
        AR/AW/W and pushes R/B), or a list of them, one per FPGA-PS port.
        Ports are ingested round-robin from a pointer that rotates every
        cycle, so none has structural priority when the command queue is
        scarce.
    timing:
        :class:`DramTiming` latency parameters.
    store:
        Optional :class:`MemoryStore` for functional data; when ``None``
        the model is timing-only (data fields stay ``None``), which is much
        faster for long bandwidth experiments.
    command_depth:
        Capacity of the controller's command queue.  When it is full the
        controller stops accepting AR/AW beats, back-pressuring the
        interconnect — this is where upstream arbitration contention
        becomes observable.
    """

    def __init__(self, sim, name: str,
                 link: Union[AxiLink, Sequence[AxiLink]],
                 timing: DramTiming = DramTiming(),
                 store: Optional[MemoryStore] = None,
                 command_depth: int = 16) -> None:
        super().__init__(sim, name)
        links = list(link) if isinstance(link, (list, tuple)) else [link]
        if not links:
            raise ConfigurationError("at least one link required")
        if command_depth < 1:
            raise ConfigurationError("command_depth must be >= 1")
        self.links = links
        #: the first served link (the only one on a single-port controller)
        self.link = links[0]
        self.timing = timing
        self.store = store
        self.command_depth = command_depth
        self._n_ports = n_ports = len(links)
        #: per-cycle ingest order starting at port ``cycle % n_ports``:
        #: ``(port, link, ar_queue, aw_queue, w_queue)``.  The pointer
        #: comes from the cycle number rather than a counter so bulk-
        #: skipped idle cycles cannot desynchronize it; the rotations and
        #: channel queues (whose identity never changes) are precomputed
        #: because this tick runs every cycle
        ports = [(port, served, served.ar._queue, served.aw._queue,
                  served.w._queue) for port, served in enumerate(links)]
        self._orders = [ports[first:] + ports[:first]
                        for first in range(n_ports)]
        self._commands: Deque[_Command] = deque()
        self._current: Optional[_Command] = None
        #: per-port write-data FIFOs (W beats follow AW order per port)
        self._write_beats: List[Deque[WriteBeat]] = [
            deque() for _ in links]
        #: (due cycle, port, response)
        self._pending_b: List[Tuple[int, int, RespBeat]] = []
        self._bus_free_at = 0
        self.queue_delay = OnlineStats()
        self.reads_served = 0
        self.writes_served = 0
        self.beats_served = 0
        self.per_port_beats = [0] * n_ports
        #: beats that faulted in the backing store and answered DECERR
        self.decode_errors = 0

    # ------------------------------------------------------------------

    def _start_command(self, command: _Command, cycle: int) -> None:
        base = (self.timing.read_latency if command.is_read
                else self.timing.write_latency)
        command.data_start = max(command.arrival + base, self._bus_free_at)
        if command.beat.burst is not BurstType.INCR:
            command.addresses = beat_addresses(
                command.beat.address, command.beat.length,
                command.beat.size_bytes, command.beat.burst)
        self.queue_delay.add(cycle - command.arrival)

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        commands = self._commands
        idle = True
        # 1. per port, ingest at most one address beat per channel while
        #    the command queue has room (AR before AW: a fixed,
        #    documented tie-break for determinism), then one write-data
        #    beat.  The channel-head visibility guards are inlined: this
        #    tick runs every cycle of every bandwidth experiment.
        for port, link, ar, aw, w in self._orders[cycle % self._n_ports]:
            if (ar or aw) and len(commands) < self.command_depth:
                if ar and ar[0][0] <= cycle:
                    beat = link.ar.pop()
                    commands.append(
                        _Command(True, beat, cycle, beat.length, port))
                    idle = False
                if (aw and aw[0][0] <= cycle
                        and len(commands) < self.command_depth):
                    beat = link.aw.pop()
                    commands.append(
                        _Command(False, beat, cycle, beat.length, port))
                    idle = False
            if w and w[0][0] <= cycle:
                self._write_beats[port].append(link.w.pop())
                idle = False
        # 2. pick the next command, in arrival order, when idle
        current = self._current
        if current is None and commands:
            current = self._current = commands.popleft()
            self._start_command(current, cycle)
            idle = False
        # 3. stream one data beat of the current command
        if current is not None and not self._advance(current, cycle):
            idle = False
        # 4. emit one due write response per cycle
        pending = self._pending_b
        if pending and pending[0][0] <= cycle:
            b = self.links[pending[0][1]].b
            if b.can_push():
                b.push(pending.pop(0)[2])
                return False
        return idle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Access-latency expiry and due write responses are the internal
        timers that can wake an otherwise frozen memory model."""
        horizon: Optional[int] = None
        command = self._current
        if command is not None and cycle < command.data_start:
            horizon = command.data_start
        if self._pending_b:
            due = self._pending_b[0][0]
            if due > cycle and (horizon is None or due < horizon):
                horizon = due
        return horizon

    # ------------------------------------------------------------------

    def _advance(self, command: _Command, cycle: int) -> bool:
        """Stream one data beat of ``command``; ``True`` when none moved
        (still in its access-latency window, backpressured, or waiting
        for write data)."""
        if cycle < command.data_start:
            return True
        port = command.port
        if command.is_read:
            r = self.links[port].r
            if r.capacity is not None and r._occupancy >= r.capacity:
                return True  # backpressured: the bus slot is lost
            data = None
            resp = Resp.OKAY
            if self.store is not None:
                try:
                    data = self.store.read(command.current_address(),
                                           command.beat.size_bytes)
                except MemoryAccessFault:
                    # address decode miss: the beat answers
                    # DECERR with no data; the exception never escapes
                    # the kernel
                    command.error = True
                    self.decode_errors += 1
                    resp = Resp.DECERR
            command.beats_left -= 1
            r.push(DataBeat(
                last=command.beats_left == 0,
                txn_id=command.beat.txn_id,
                data=data,
                resp=resp,
                addr_beat=command.beat,
            ))
        else:
            queue = self._write_beats[port]
            if not queue:
                return True  # write data not here yet
            wbeat = queue.popleft()
            if self.store is not None and wbeat.data is not None:
                try:
                    self.store.write(command.current_address(), wbeat.data)
                except MemoryAccessFault:
                    # drop the faulting beat; the burst's single write
                    # response reports DECERR for the whole transaction
                    command.error = True
                    self.decode_errors += 1
            command.beats_left -= 1
            if command.beats_left == 0:
                self._pending_b.append((
                    cycle + self.timing.resp_latency, port,
                    RespBeat(txn_id=command.beat.txn_id,
                             resp=(Resp.DECERR if command.error
                                   else Resp.OKAY),
                             addr_beat=command.beat),
                ))
        command.beat_index += 1
        self.beats_served += 1
        self.per_port_beats[port] += 1
        if command.beats_left == 0:
            if command.is_read:
                self.reads_served += 1
            else:
                self.writes_served += 1
            self._bus_free_at = cycle + 1
            self._current = None
        return False

    # ------------------------------------------------------------------

    def idle(self) -> bool:
        """True when no command is queued, active, or awaiting response."""
        return (self._current is None and not self._commands
                and not self._pending_b and not any(self._write_beats))
