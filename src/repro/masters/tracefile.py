"""Bus-trace capture and replay.

Records the request stream an accelerator emits on its port and replays
it later as a synthetic master.  This is how one evaluates interconnect
configurations against *captured* workloads — e.g. record one CHaiDNN
frame, then sweep reservation settings replaying the identical traffic —
and how external traces (from real hardware probes) can be imported: the
format is one JSON object per line with ``cycle``, ``kind``, ``address``
and ``beats`` fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Union

from ..axi.payloads import AddrBeat
from ..axi.port import AxiLink
from ..sim.errors import ConfigurationError
from .engine import AxiMasterEngine


@dataclass(frozen=True)
class TraceRecord:
    """One recorded request (a whole burst)."""

    cycle: int
    kind: str       # "read" or "write"
    address: int
    beats: int

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ConfigurationError(
                f"trace record kind must be read/write, got {self.kind!r}")
        if self.beats < 1 or self.cycle < 0:
            raise ConfigurationError("invalid trace record")


class BusTraceRecorder:
    """Captures the AR/AW request stream of one link."""

    def __init__(self, link: AxiLink) -> None:
        self.link = link
        self.records: List[TraceRecord] = []
        link.ar.subscribe_push(self._on_ar)
        link.aw.subscribe_push(self._on_aw)

    def _on_ar(self, cycle: int, beat: AddrBeat) -> None:
        self.records.append(TraceRecord(cycle, "read", beat.address,
                                        beat.length))

    def _on_aw(self, cycle: int, beat: AddrBeat) -> None:
        self.records.append(TraceRecord(cycle, "write", beat.address,
                                        beat.length))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace as JSON lines."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(asdict(record)) + "\n")
        return path


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a JSON-lines trace file."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        fields = json.loads(line)
        records.append(TraceRecord(**fields))
    return records


class TraceReplayMaster(AxiMasterEngine):
    """Replays a recorded request stream with its original pacing.

    Each record is released at its recorded cycle offset (relative to
    :meth:`start`); earlier-than-possible releases simply queue, so
    replaying through a slower configuration back-pressures naturally —
    exactly like the original accelerator would.
    """

    def __init__(self, sim, name: str, link, trace: List[TraceRecord],
                 **kwargs) -> None:
        super().__init__(sim, name, link, **kwargs)
        self.trace = sorted(trace, key=lambda record: record.cycle)
        self._cursor = 0
        self._start_cycle = None
        self.replays_completed = 0

    def _job_completed(self, job, cycle) -> None:
        if job.label == "replay":
            self.replays_completed += 1

    def start(self) -> None:
        """Begin replay at the current cycle."""
        self._start_cycle = self.sim.now
        self.sim.wake()

    @property
    def done(self) -> bool:
        """True when every record has been issued and completed."""
        return (self._start_cycle is not None
                and self._cursor >= len(self.trace)
                and not self.busy)

    def tick(self, cycle: int) -> bool:
        idle = True
        if self._start_cycle is not None:
            elapsed = cycle - self._start_cycle
            while (self._cursor < len(self.trace)
                   and self.trace[self._cursor].cycle <= elapsed):
                record = self.trace[self._cursor]
                self._cursor += 1
                nbytes = record.beats * self.link.data_bytes
                if record.kind == "read":
                    self.enqueue_read(record.address, nbytes,
                                      label="replay")
                else:
                    self.enqueue_write(record.address, nbytes,
                                       label="replay")
                idle = False
        return super().tick(cycle) and idle

    def _next_release(self) -> "int | None":
        """Absolute cycle of the next trace-record release, if any."""
        if self._start_cycle is None or self._cursor >= len(self.trace):
            return None
        return self._start_cycle + self.trace[self._cursor].cycle

    def next_event_cycle(self, cycle: int) -> "int | None":
        """The next scheduled release is a guaranteed internal event."""
        hint = super().next_event_cycle(cycle)
        release = self._next_release()
        if release is not None and release > cycle:
            if hint is None or release < hint:
                return release
        return hint
