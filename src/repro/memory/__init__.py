"""PS-side memory substrate: backing store, DRAM controller, FPGA-PS port."""

from .buddy import AllocationError, BuddyAllocator
from .dram import DramTiming, MemorySubsystem
from .faulty import FaultInjectingMemory
from .ooo import OutOfOrderMemory
from .psport import AxiPipe
from .qos400 import PsQosRegulator
from .store import MemoryAccessFault, MemoryStore, TranslationFault

__all__ = [
    "AllocationError",
    "BuddyAllocator",
    "DramTiming",
    "MemorySubsystem",
    "FaultInjectingMemory",
    "OutOfOrderMemory",
    "AxiPipe",
    "PsQosRegulator",
    "MemoryAccessFault",
    "MemoryStore",
    "TranslationFault",
]
