"""PS-side memory substrate: backing store, DRAM controller, FPGA-PS QoS regulator."""

from .dram import DramTiming, MemorySubsystem
from .faulty import FaultInjectingMemory
from .qos400 import PsQosRegulator
from .store import MemoryAccessFault, MemoryStore, TranslationFault

__all__ = [
    "DramTiming",
    "MemorySubsystem",
    "FaultInjectingMemory",
    "PsQosRegulator",
    "MemoryAccessFault",
    "MemoryStore",
    "TranslationFault",
]
