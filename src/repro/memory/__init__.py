"""PS-side memory substrate: backing store, DRAM controller, FPGA-PS port."""

from .dram import DramTiming, MemorySubsystem
from .faulty import FaultInjectingMemory
from .psport import AxiPipe
from .qos400 import PsQosRegulator
from .store import MemoryAccessFault, MemoryStore, TranslationFault

__all__ = [
    "DramTiming",
    "MemorySubsystem",
    "FaultInjectingMemory",
    "AxiPipe",
    "PsQosRegulator",
    "MemoryAccessFault",
    "MemoryStore",
    "TranslationFault",
]
