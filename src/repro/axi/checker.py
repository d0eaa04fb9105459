"""AXI protocol checking.

Two layers are provided:

* pure validation functions (:func:`check_addr_beat`) that components call
  on beats they are about to issue — catching illegal bursts at the source;
* :class:`LinkChecker`, a passive monitor that subscribes to an
  :class:`~repro.axi.port.AxiLink` and verifies the streaming rules the
  paper's system relies on: W beats must match AW bursts in order and
  count, WLAST/RLAST must delimit bursts exactly, every AW gets exactly one
  B, and (for in-order systems, which is what FPGA SoC memory controllers
  implement) R bursts answer AR requests in issue order.

The checker is how the test-suite asserts that the HyperConnect is
"completely transparent to both the HAs and the memory subsystem" — i.e.
standard-compliant on both sides.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..sim.errors import ReproError
from .burst import crosses_4kb
from .payloads import AddrBeat, DataBeat, RespBeat, WriteBeat
from .port import AxiLink
from .types import AxiVersion, BurstType, check_beat_size, check_burst_length


class ProtocolError(ReproError):
    """An AXI protocol rule was violated."""


def check_addr_beat(beat: AddrBeat, version: AxiVersion = AxiVersion.AXI4,
                    bus_bytes: Optional[int] = None) -> None:
    """Validate an address beat against the AXI rules.

    Raises :class:`ProtocolError` on: illegal beat size, beat wider than the
    bus, illegal burst length for the protocol version/burst type, 4 KiB
    boundary crossing, or unaligned WRAP start.
    """
    try:
        check_beat_size(beat.size_bytes)
        check_burst_length(beat.length, version, beat.burst)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    if bus_bytes is not None and beat.size_bytes > bus_bytes:
        raise ProtocolError(
            f"beat size {beat.size_bytes} exceeds bus width {bus_bytes}")
    if crosses_4kb(beat.address, beat.length, beat.size_bytes, beat.burst):
        raise ProtocolError(
            f"burst at 0x{beat.address:x} ({beat.length} beats of "
            f"{beat.size_bytes} B) crosses a 4 KiB boundary")
    if beat.burst is BurstType.WRAP and beat.address % beat.size_bytes:
        raise ProtocolError(
            f"WRAP burst start 0x{beat.address:x} not aligned to beat size")


class LinkChecker:
    """Passive protocol monitor for one AXI link.

    Violations never interrupt the run: they are recorded in
    :attr:`violations`, and :meth:`assert_clean` raises if any were
    seen.  R bursts must answer ARs in issue order, which holds for the
    in-order systems modelled here.
    """

    def __init__(self, link: AxiLink) -> None:
        self.link = link
        self.violations: List[str] = []
        # expected W beats, in AW order: (addr_beat, beats_remaining)
        self._pending_writes: Deque[list] = deque()
        # W beats observed before their AW (legal in AXI: write data may
        # appear at an interface ahead of its address)
        self._early_w: Deque[WriteBeat] = deque()
        # AWs awaiting their B response
        self._awaiting_b = 0
        # ARs awaiting their R burst, in order: (addr_beat, beats_remaining)
        self._pending_reads: Deque[list] = deque()
        link.ar.subscribe_push(self._on_ar)
        link.aw.subscribe_push(self._on_aw)
        link.w.subscribe_push(self._on_w)
        link.r.subscribe_push(self._on_r)
        link.b.subscribe_push(self._on_b)

    # ------------------------------------------------------------------

    def _check_addr(self, beat: AddrBeat) -> None:
        try:
            check_addr_beat(beat, self.link.version, self.link.data_bytes)
        except ProtocolError as exc:
            self.violations.append(str(exc))

    # ------------------------------------------------------------------

    def _on_ar(self, cycle: int, beat: AddrBeat) -> None:
        self._check_addr(beat)
        self._pending_reads.append([beat, beat.length])

    def _on_aw(self, cycle: int, beat: AddrBeat) -> None:
        self._check_addr(beat)
        self._pending_writes.append([beat, beat.length])
        self._awaiting_b += 1
        while self._early_w and self._pending_writes:
            self._match_w(self._early_w.popleft(), cycle)

    def _on_w(self, cycle: int, beat: WriteBeat) -> None:
        if not self._pending_writes:
            # write data ahead of its address: buffer until the AW shows up
            self._early_w.append(beat)
            return
        self._match_w(beat, cycle)

    def _match_w(self, beat: WriteBeat, cycle: int) -> None:
        head = self._pending_writes[0]
        head[1] -= 1
        if head[1] == 0:
            if not beat.last:
                self.violations.append(
                    f"missing WLAST on final beat of burst "
                    f"0x{head[0].address:x} at cycle {cycle}")
            self._pending_writes.popleft()
        elif beat.last:
            self.violations.append(
                f"early WLAST ({head[1]} beats still due) on burst "
                f"0x{head[0].address:x} at cycle {cycle}")
            self._pending_writes.popleft()

    def _on_r(self, cycle: int, beat: DataBeat) -> None:
        if not self._pending_reads:
            self.violations.append(
                f"R beat at cycle {cycle} with no outstanding AR")
            return
        head = self._pending_reads[0]
        head[1] -= 1
        if head[1] == 0:
            if not beat.last:
                self.violations.append(
                    f"missing RLAST on final beat of burst "
                    f"0x{head[0].address:x} at cycle {cycle}")
            self._pending_reads.popleft()
        elif beat.last:
            self.violations.append(
                f"early RLAST ({head[1]} beats still due) on burst "
                f"0x{head[0].address:x} at cycle {cycle}")
            self._pending_reads.popleft()

    def _on_b(self, cycle: int, beat: RespBeat) -> None:
        if self._awaiting_b <= 0:
            self.violations.append(
                f"B response at cycle {cycle} with no outstanding AW")
            return
        self._awaiting_b -= 1

    # ------------------------------------------------------------------

    def assert_clean(self) -> None:
        """Raise :class:`ProtocolError` if any violation was recorded.

        Also flags W beats that never found a matching AW — legal while
        in flight, but orphans once the traffic has drained.
        """
        if self._early_w:
            self.violations.append(
                f"{len(self._early_w)} W beats without a matching AW")
            self._early_w.clear()
        if self.violations:
            raise ProtocolError(
                f"{self.link.name}: {len(self.violations)} protocol "
                f"violations; first: {self.violations[0]}")
