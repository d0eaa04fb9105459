"""Hardware-accelerator (bus master) models."""

from .accelerator import Phase, PhasedAccelerator
from .chaidnn import (
    GOOGLENET_LAYERS,
    ChaiDnnAccelerator,
    LayerSpec,
    googlenet_total_macs,
    googlenet_total_weight_bytes,
)
from .dma import AxiDma, DmaDescriptor, standard_case_study_dma
from .engine import AxiMasterEngine, Job
from .faulty import FAULT_MODES, FaultInjectingMaster
from .tracefile import (
    BusTraceRecorder,
    TraceRecord,
    TraceReplayMaster,
    load_trace,
)
from .traffic import (
    GreedyTrafficGenerator,
    PeriodicTrafficGenerator,
    RandomTrafficGenerator,
    mixed_fleet,
)

__all__ = [
    "Phase",
    "PhasedAccelerator",
    "GOOGLENET_LAYERS",
    "ChaiDnnAccelerator",
    "LayerSpec",
    "googlenet_total_macs",
    "googlenet_total_weight_bytes",
    "AxiDma",
    "DmaDescriptor",
    "standard_case_study_dma",
    "AxiMasterEngine",
    "Job",
    "FAULT_MODES",
    "FaultInjectingMaster",
    "BusTraceRecorder",
    "TraceRecord",
    "TraceReplayMaster",
    "load_trace",
    "GreedyTrafficGenerator",
    "PeriodicTrafficGenerator",
    "RandomTrafficGenerator",
    "mixed_fleet",
]
