"""Reusable experiment harnesses for the paper's evaluation.

Each function reproduces the measurement procedure of one part of
Section VI on the simulated platform, parameterized by interconnect kind.
The benchmark scripts in ``benchmarks/`` and the shape tests in
``tests/test_end_to_end.py`` both call these, so the numbers reported by
either always come from the same procedure.  Each procedure closes its
simulator once the run ends (:meth:`repro.sim.Simulator.close`), so the
system it built is freed as soon as the result is returned.

Workload scaling: the paper's case study moves 4 MiB per DMA round and
runs full GoogleNet frames.  Cycle-accurate simulation of minutes of
traffic is unnecessary to reproduce the *shapes* (rate ratios between
configurations), so the harnesses accept a ``scale`` knob that shrinks
both workloads proportionally; ratios are preserved.  EXPERIMENTS.md
records the scales used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..axi.monitor import PropagationProbe
from ..masters.chaidnn import ChaiDnnAccelerator
from ..masters.dma import AxiDma, standard_case_study_dma
from ..platforms.zynq import ZCU102, Platform
from .builder import SocSystem

#: paper's case-study DMA payload (4 MiB in + 4 MiB out per round)
CASE_STUDY_DMA_BYTES = 4 << 20
#: HyperConnect reservation period T of the case study, cycles
CASE_STUDY_PERIOD = 2048
#: HA_DMA burst length: "more greedy in accessing the bus" than the
#: 16-beat CHaiDNN, so through a variable-granularity round-robin with
#: no equalization it takes most of the bandwidth.  64 beats (4x the
#: CHaiDNN burst) reproduces the starvation shape within simulation
#: windows short enough for repeated benchmarking.
CASE_STUDY_DMA_BURST_LEN = 64


@dataclass(frozen=True)
class ChannelLatencies:
    """Per-channel propagation latency through an interconnect, cycles."""

    ar: int
    aw: int
    r: int
    w: int
    b: int

    def as_dict(self) -> Dict[str, int]:
        return {"AR": self.ar, "AW": self.aw, "R": self.r, "W": self.w,
                "B": self.b}

    @property
    def read_total(self) -> int:
        """d_AR + d_R: total added to every read transaction."""
        return self.ar + self.r

    @property
    def write_total(self) -> int:
        """d_AW + d_W + d_B: total added to every write transaction."""
        return self.aw + self.w + self.b


def measure_channel_latencies(interconnect: str,
                              platform: Platform = ZCU102,
                              fast: bool = True) -> ChannelLatencies:
    """Fig. 3(a) procedure: per-channel propagation in isolation.

    One DMA issues a read and a write; probes time each beat from its
    appearance on the HA-side channel to its consumption on the PS side
    (and vice versa for the return channels).  The W channel is measured
    with spaced-out beats so the interconnect pipeline is observed
    without producer-side queueing (see the engine's ``w_beat_gap``).
    ``fast`` picks the kernel path (see :meth:`SocSystem.build`).
    """
    soc = SocSystem.build(platform, interconnect=interconnect, n_ports=2,
                          fast=fast)
    probes = {
        "AR": PropagationProbe(soc.port(0).ar, soc.master_link.ar),
        "AW": PropagationProbe(soc.port(0).aw, soc.master_link.aw),
        "W": PropagationProbe(soc.port(0).w, soc.master_link.w),
        "R": PropagationProbe(soc.master_link.r, soc.port(0).r),
        "B": PropagationProbe(soc.master_link.b, soc.port(0).b),
    }
    dma = AxiDma(soc.sim, "probe-dma", soc.port(0), w_beat_gap=16)
    dma.enqueue_read(0x1000_0000, 16 * platform.hp_data_bytes)
    dma.enqueue_write(0x2000_0000, 16 * platform.hp_data_bytes)
    try:
        soc.run_until_quiescent()
    finally:
        soc.sim.close()
    return ChannelLatencies(
        ar=int(probes["AR"].latency_max),
        aw=int(probes["AW"].latency_max),
        r=int(probes["R"].latency_max),
        w=int(probes["W"].stats.minimum),   # steady-state (no queueing)
        b=int(probes["B"].latency_max),
    )


def measure_access_time(interconnect: str, nbytes: int,
                        platform: Platform = ZCU102,
                        fast: bool = True) -> int:
    """Fig. 3(b) procedure: memory access time for one transfer size.

    A single DMA reads ``nbytes`` through an otherwise idle system; the
    result is the cycles from the first AR to the last R beat (the
    paper's "maximum memory access time" — max equals the single
    measurement here because the system is deterministic in isolation).
    ``fast`` picks the kernel path (see :meth:`SocSystem.build`).
    """
    soc = SocSystem.build(platform, interconnect=interconnect, n_ports=2,
                          fast=fast)
    dma = AxiDma(soc.sim, "dma", soc.port(0))
    job = dma.enqueue_read(0x1000_0000, nbytes)
    try:
        soc.run_until_quiescent(max_cycles=50_000_000)
    finally:
        soc.sim.close()
    assert job.latency is not None
    return job.latency


@dataclass(frozen=True)
class CaseStudyResult:
    """Outcome of one case-study run (Fig. 4 / Fig. 5 procedure)."""

    chaidnn_fps: float
    dma_rate: float
    chaidnn_frames: int
    dma_rounds: int
    window_cycles: int
    #: the kernel's skip/fast-forward counters for the run
    #: (:meth:`repro.sim.stats.KernelSkipStats.as_dict`) — how the
    #: window was actually executed: cycles skipped by the fast path,
    #: TLM epochs committed, demotion reasons.  Benchmarks surface
    #: these in their JSON sidecars.  Excluded from equality: it
    #: describes the execution strategy, not the result, and differs
    #: between equivalent kernel modes by design.
    skip_stats: Optional[Dict[str, object]] = field(default=None,
                                                    compare=False)


def run_case_study(interconnect: str,
                   run_chaidnn: bool = True,
                   run_dma: bool = True,
                   shares: Optional[Dict[int, float]] = None,
                   scale: float = 1 / 64,
                   window_cycles: int = 400_000,
                   platform: Platform = ZCU102,
                   fast: bool = True,
                   tlm: bool = False) -> CaseStudyResult:
    """Sections VI-C procedure: CHaiDNN (port 0) + greedy DMA (port 1).

    ``shares`` maps port index to a reserved bandwidth fraction (the
    HC-X-Y configurations); only valid with the HyperConnect.  ``scale``
    shrinks both workloads equally (CHaiDNN layer bytes/MACs and the DMA
    round payload), preserving rate *ratios* between configurations.
    HA_DMA issues :data:`CASE_STUDY_DMA_BURST_LEN`-beat bursts.
    ``fast`` picks the kernel path (see :meth:`SocSystem.build`).
    """
    soc = SocSystem.build(platform, interconnect=interconnect, n_ports=2,
                          period=CASE_STUDY_PERIOD, fast=fast, tlm=tlm)
    chaidnn = None
    dma = None
    if run_chaidnn:
        chaidnn = ChaiDnnAccelerator(soc.sim, "chaidnn", soc.port(0),
                                     scale=scale)
        chaidnn.start()
    if run_dma:
        beat = platform.hp_data_bytes
        dma_bytes = max(4096, int(CASE_STUDY_DMA_BYTES * scale))
        dma_bytes = (dma_bytes // beat) * beat   # bus-width aligned
        dma = standard_case_study_dma(soc.sim, "ha-dma", soc.port(1),
                                      dma_bytes,
                                      burst_len=CASE_STUDY_DMA_BURST_LEN)
        dma.start()
    if shares:
        if soc.driver is None:
            raise ValueError(
                "bandwidth shares require the HyperConnect; the "
                "SmartConnect has no reservation mechanism (the paper's "
                "point)")
        soc.driver.set_bandwidth_shares(shares)
    try:
        soc.sim.run(window_cycles)
    finally:
        soc.sim.close()
    return CaseStudyResult(
        chaidnn_fps=(chaidnn.frame_rate.rate(window_cycles)
                     if chaidnn else 0.0),
        dma_rate=dma.round_rate.rate(window_cycles) if dma else 0.0,
        chaidnn_frames=chaidnn.frames_completed if chaidnn else 0,
        dma_rounds=dma.rounds_completed if dma else 0,
        window_cycles=window_cycles,
        skip_stats=soc.sim.skip_stats.as_dict(),
    )
