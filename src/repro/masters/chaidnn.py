"""CHaiDNN-like DNN accelerator model (quantized GoogleNet workload).

The paper's case study accelerates the quantized GoogleNet network shipped
with Xilinx CHaiDNN.  We cannot run the CHaiDNN bitstream, so this module
reproduces its *bus behaviour*: a layer-by-layer pipeline where each layer
reads its weights and input feature map from DRAM, computes for a number of
cycles proportional to its MAC count, and writes its output feature map
back — i.e. alternating memory and compute phases whose aggregate traffic
and compute match GoogleNet's published shape (~6.9 MB of INT8 weights,
~1.6 G MACs, a few MB of feature maps per frame).

Only this envelope matters for Fig. 4/5: the accelerator needs a bounded
share of memory bandwidth to sustain its frame rate, and a greedy DMA can
steal that share through an unsupervised interconnect.

The byte counts below are per-stage aggregates of the standard GoogleNet
(Inception v1) topology at 224x224 input, INT8 quantized.  A ``scale``
parameter shrinks the workload proportionally so long simulations stay
cheap; frame *rate ratios* between interconnect configurations are
preserved under scaling (both compute and memory shrink alike).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.errors import ConfigurationError
from .accelerator import Phase, PhasedAccelerator


@dataclass(frozen=True)
class LayerSpec:
    """One (aggregated) GoogleNet stage."""

    name: str
    weight_bytes: int
    ifmap_bytes: int
    ofmap_bytes: int
    macs: int


#: Aggregated quantized-GoogleNet stage table (INT8 bytes, MAC counts).
GOOGLENET_LAYERS: List[LayerSpec] = [
    LayerSpec("conv1_7x7_s2", 9_408, 150_528, 802_816, 118_013_952),
    LayerSpec("conv2_3x3", 323_584, 200_704, 401_408, 360_464_384),
    LayerSpec("inception_3a", 163_696, 200_704, 200_704, 128_668_672),
    LayerSpec("inception_3b", 388_736, 200_704, 339_456, 304_901_120),
    LayerSpec("inception_4a", 376_176, 84_864, 92_928, 73_725_952),
    LayerSpec("inception_4b", 449_160, 92_928, 100_352, 88_482_816),
    LayerSpec("inception_4c", 510_104, 100_352, 100_352, 100_026_368),
    LayerSpec("inception_4d", 605_376, 100_352, 103_488, 118_752_256),
    LayerSpec("inception_4e", 868_352, 103_488, 163_072, 170_301_440),
    LayerSpec("inception_5a", 1_043_456, 40_768, 40_768, 51_126_272),
    LayerSpec("inception_5b", 1_444_080, 40_768, 50_176, 70_778_880),
    LayerSpec("classifier", 1_024_000, 50_176, 1_000, 1_024_000),
]


#: datapath throughput: CHaiDNN's DSP array sustains on the order of
#: 1024 INT8 MACs per PL cycle in its large configuration
MACS_PER_CYCLE = 1024
#: DRAM placement of the weights and of the ping-pong feature-map buffers
WEIGHT_BASE = 0x7000_0000
FMAP_BASE = 0x7800_0000


def googlenet_total_macs() -> int:
    """Total multiply-accumulates per frame."""
    return sum(layer.macs for layer in GOOGLENET_LAYERS)


def googlenet_total_weight_bytes() -> int:
    """Total INT8 weight bytes per frame."""
    return sum(layer.weight_bytes for layer in GOOGLENET_LAYERS)


class ChaiDnnAccelerator(PhasedAccelerator):
    """HA_CHaiDNN: the CHaiDNN accelerator subsystem as a bus master.

    Inherits :class:`PhasedAccelerator`'s idle report unchanged: during
    compute phases the model ticks idle with a
    ``next_event_cycle`` hint at the phase end, so the fast kernel path
    skips the long MAC-bound stretches (the dominant fraction of a
    frame) in bulk.

    It runs :data:`GOOGLENET_LAYERS` at :data:`MACS_PER_CYCLE`, with
    weights at :data:`WEIGHT_BASE` and ping-pong feature-map buffers at
    :data:`FMAP_BASE`, issuing 16-beat bursts with at most 4 outstanding.

    Parameters
    ----------
    scale:
        Linear workload scale in (0, 1]: byte counts and compute cycles
        are multiplied by it.  ``1.0`` is the full network.
    frames:
        Number of frames to process; ``None`` repeats until stopped.
    """

    def __init__(self, sim, name: str, link, scale: float = 1.0,
                 frames: Optional[int] = None, **kwargs) -> None:
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        self.scale = scale
        phases = self._build_phases(link.data_bytes)
        super().__init__(sim, name, link, phases, frames=frames,
                         burst_len=16, max_outstanding=4, **kwargs)

    # ------------------------------------------------------------------

    def _round_bytes(self, nbytes: int, beat: int) -> int:
        scaled = max(beat, int(nbytes * self.scale))
        return ((scaled + beat - 1) // beat) * beat

    def _build_phases(self, beat: int) -> List[Phase]:
        phases: List[Phase] = []
        weight_cursor = WEIGHT_BASE
        ping, pong = FMAP_BASE, FMAP_BASE + (1 << 23)
        for layer in GOOGLENET_LAYERS:
            weights = self._round_bytes(layer.weight_bytes, beat)
            ifmap = self._round_bytes(layer.ifmap_bytes, beat)
            ofmap = self._round_bytes(layer.ofmap_bytes, beat)
            compute = max(1, int(layer.macs * self.scale
                                 // MACS_PER_CYCLE))
            phases.append(Phase("read", nbytes=weights,
                                address=weight_cursor,
                                label=f"{layer.name}:weights"))
            phases.append(Phase("read", nbytes=ifmap, address=ping,
                                label=f"{layer.name}:ifmap"))
            phases.append(Phase("compute", cycles=compute,
                                label=f"{layer.name}:compute"))
            phases.append(Phase("write", nbytes=ofmap, address=pong,
                                label=f"{layer.name}:ofmap"))
            weight_cursor += ((weights + 4095) // 4096) * 4096
            ping, pong = pong, ping
        return phases

    # ------------------------------------------------------------------

    @property
    def fps(self) -> float:
        """Frames per second over the observation window."""
        return self.frame_rate.rate()

    def traffic_bytes_per_frame(self) -> int:
        """Total DRAM traffic (reads + writes) per frame."""
        return sum(phase.nbytes for phase in self.phases
                   if phase.kind != "compute")

    def compute_cycles_per_frame(self) -> int:
        """Total datapath-busy cycles per frame."""
        return sum(phase.cycles for phase in self.phases
                   if phase.kind == "compute")
