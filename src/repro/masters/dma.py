"""Xilinx AXI DMA-like master model.

The paper uses Xilinx AXI DMA engines as representative hardware
accelerators "because they can mimic the behavior on the bus of many HAs
and because they are capable of saturating the maximum memory bandwidth".
:class:`AxiDma` reproduces that role: a job-programmable engine that can
stream maximal back-to-back bursts, plus an optional repeating workload
(read X MiB / write X MiB per round, as in the Fig. 4/5 case study) whose
completion rate per second is the paper's DMA performance index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.errors import ConfigurationError
from ..sim.stats import RateCounter
from .engine import AxiMasterEngine, Job


@dataclass(frozen=True)
class DmaDescriptor:
    """One element of a DMA workload: a read or a write of ``nbytes``."""

    kind: str          # "read" or "write"
    address: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ConfigurationError(
                f"descriptor kind must be 'read' or 'write', "
                f"got {self.kind!r}")
        if self.nbytes < 1:
            raise ConfigurationError("descriptor nbytes must be positive")


class AxiDma(AxiMasterEngine):
    """AXI DMA engine with a repeating descriptor workload.

    Use the inherited :meth:`enqueue_read` / :meth:`enqueue_write` /
    :meth:`enqueue_copy` for one-shot jobs, or :meth:`program` +
    :meth:`start` for the paper's repeated-round workloads.

    Attributes
    ----------
    rounds_completed:
        Number of full passes over the programmed descriptor list.
    round_rate:
        :class:`~repro.sim.stats.RateCounter` over round completions —
        the "number of times the DMA is capable of completing its work in
        a second" index from the case study.

    The DMA adds no per-cycle behaviour of its own (round bookkeeping runs
    inside the job-completion hook, i.e. within engine ticks), so the
    engine tick's idle report applies unchanged: an idle DMA costs the
    fast kernel path nothing.
    """

    def __init__(self, sim, name: str, link, burst_len: int = 16,
                 max_outstanding: int = 8, **kwargs) -> None:
        super().__init__(sim, name, link, burst_len=burst_len,
                         max_outstanding=max_outstanding, **kwargs)
        self._descriptors: List[DmaDescriptor] = []
        self._repeat = False
        self._round_jobs_pending = 0
        self.rounds_completed = 0
        self.round_rate = RateCounter(sim.clock_hz)
        self.round_latencies: List[int] = []
        self._round_started: Optional[int] = None

    # ------------------------------------------------------------------

    def program(self, descriptors: List[DmaDescriptor],
                repeat: bool = False) -> None:
        """Load a descriptor workload (does not start it)."""
        if not descriptors:
            raise ConfigurationError("descriptor list must not be empty")
        self._descriptors = list(descriptors)
        self._repeat = repeat

    def start(self) -> None:
        """Begin executing the programmed workload."""
        if not self._descriptors:
            raise ConfigurationError("no descriptors programmed")
        self._launch_round()

    def stop(self) -> None:
        """Stop re-launching rounds (in-flight jobs still complete)."""
        self._repeat = False

    # ------------------------------------------------------------------

    def _launch_round(self) -> None:
        self._round_started = self.sim.now
        self._round_jobs_pending = len(self._descriptors)
        for descriptor in self._descriptors:
            if descriptor.kind == "read":
                self.enqueue_read(descriptor.address, descriptor.nbytes,
                                  label="dma-round-read")
            else:
                self.enqueue_write(descriptor.address, descriptor.nbytes,
                                   label="dma-round-write")

    def _job_completed(self, job: Job, cycle: int) -> None:
        if not job.label.startswith("dma-round"):
            return
        self._round_jobs_pending -= 1
        if self._round_jobs_pending > 0:
            return
        self.rounds_completed += 1
        self.round_rate.record(cycle)
        if self._round_started is not None:
            self.round_latencies.append(cycle - self._round_started)
        if self._repeat:
            self._launch_round()


def standard_case_study_dma(sim, name: str, link, nbytes: int,
                            burst_len: int = 16) -> AxiDma:
    """The case-study DMA: read ``nbytes``, then write ``nbytes`` back.

    This is HA_DMA of Sections VI-C: "set to read 4 MB of data from the
    memory subsystem and write back other 4 MB of data" — e.g. mimicking a
    video/audio processing engine.  Buffers are placed in two disjoint
    halves of a scratch region.
    """
    dma = AxiDma(sim, name, link, burst_len=burst_len)
    dma.program([
        DmaDescriptor("read", 0x1000_0000, nbytes),
        DmaDescriptor("write", 0x2000_0000, nbytes),
    ], repeat=True)
    return dma
