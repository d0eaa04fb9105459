"""Generic phased hardware-accelerator model.

Most real HAs alternate between *memory phases* (DMA-in of inputs/weights,
DMA-out of results) and *compute phases* (the datapath crunches on local
BRAM and the bus is quiet).  :class:`PhasedAccelerator` models exactly
that: a repeating sequence of :class:`Phase` steps driven by the generic
AXI master engine.  The CHaiDNN model is built on top of it.

It also models the SW-task interaction of Section II: the accelerator is
*started* (the SW-task writing its control registers through the PS-FPGA
interface), runs asynchronously, and raises a completion interrupt per
frame (represented by the completion callback / counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.errors import ConfigurationError
from ..sim.stats import OnlineStats, RateCounter
from .engine import AxiMasterEngine, Job


@dataclass(frozen=True)
class Phase:
    """One step of an accelerator's processing pipeline.

    ``kind`` is ``"read"``, ``"write"`` or ``"compute"``; memory phases
    carry ``nbytes`` (+ ``address``), compute phases carry ``cycles``.
    """

    kind: str
    nbytes: int = 0
    address: int = 0
    cycles: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write", "compute"):
            raise ConfigurationError(
                f"phase kind must be read/write/compute, got {self.kind!r}")
        if self.kind == "compute" and self.cycles < 1:
            raise ConfigurationError("compute phase needs cycles >= 1")
        if self.kind != "compute" and self.nbytes < 1:
            raise ConfigurationError("memory phase needs nbytes >= 1")


class PhasedAccelerator(AxiMasterEngine):
    """Hardware accelerator running a repeating list of phases.

    One pass over all phases is a *frame* (the paper's CHaiDNN performance
    index is frames per second).  The accelerator starts idle; call
    :meth:`start`.

    Parameters
    ----------
    phases:
        The per-frame phase list.
    frames:
        Number of frames to process; ``None`` repeats until :meth:`stop`.

    Each phase starts when the previous one has finished: a memory
    phase's job must complete before the next phase begins.
    """

    def __init__(self, sim, name: str, link,
                 phases: List[Phase], frames: Optional[int] = None,
                 **kwargs) -> None:
        super().__init__(sim, name, link, **kwargs)
        if not phases:
            raise ConfigurationError("phase list must not be empty")
        self.phases = list(phases)
        self.frames_target = frames
        self.frames_completed = 0
        self.frame_rate = RateCounter(sim.clock_hz)
        self.frame_latency = OnlineStats()
        self._running = False
        self._phase_index = 0
        #: cycle at which the current compute phase ends (absolute, so
        #: compute stretches need no per-cycle countdown work)
        self._compute_until = 0
        self._frame_started: Optional[int] = None
        self._waiting_job: Optional[Job] = None
        self._frame_callbacks: List[Callable[[int, int], None]] = []

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin processing (the SW-task's request for acceleration)."""
        self._running = True
        self.sim.wake()

    def stop(self) -> None:
        """Stop after the current frame."""
        self.frames_target = self.frames_completed + 1

    def on_frame_complete(self,
                          callback: Callable[[int, int], None]) -> None:
        """Register ``callback(frame_index, cycle)`` per completed frame."""
        self._frame_callbacks.append(callback)

    @property
    def done(self) -> bool:
        """True once the requested number of frames has completed."""
        return (self.frames_target is not None
                and self.frames_completed >= self.frames_target)

    # ------------------------------------------------------------------

    def _job_completed(self, job: Job, cycle: int) -> None:
        if job is self._waiting_job:
            self._waiting_job = None

    def _advance(self, cycle: int) -> bool:
        """Start the next phase (and, past the last one, the next frame).

        Returns ``True`` when the machine could not move: blocked on a
        memory job or mid-compute.
        """
        if self._waiting_job is not None or cycle < self._compute_until:
            return True
        if self._phase_index == len(self.phases):
            self._finish_frame(cycle)
            if not self._running:
                return False
        if self._frame_started is None:
            self._frame_started = cycle
        phase = self.phases[self._phase_index]
        self._phase_index += 1
        if phase.kind == "compute":
            self._compute_until = cycle + phase.cycles
        elif phase.kind == "read":
            self._waiting_job = self.enqueue_read(
                phase.address, phase.nbytes,
                label=phase.label or "phase-read")
        else:
            self._waiting_job = self.enqueue_write(
                phase.address, phase.nbytes,
                label=phase.label or "phase-write")
        return False

    def _finish_frame(self, cycle: int) -> None:
        self.frames_completed += 1
        self.frame_rate.record(cycle)
        if self._frame_started is not None:
            self.frame_latency.add(cycle - self._frame_started)
        for callback in self._frame_callbacks:
            callback(self.frames_completed, cycle)
        self._phase_index = 0
        self._frame_started = None
        if self.done:
            self._running = False

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        idle = not self._running or self._advance(cycle)
        return super().tick(cycle) and idle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Compute-phase completion is a guaranteed internal event."""
        hint = super().next_event_cycle(cycle)
        if (self._running and self._waiting_job is None
                and cycle < self._compute_until):
            if hint is None or self._compute_until < hint:
                return self._compute_until
        return hint
