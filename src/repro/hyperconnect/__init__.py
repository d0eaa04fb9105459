"""The AXI HyperConnect: the paper's primary contribution."""

from .central import CentralUnit
from .driver import HyperConnectDriver
from .efifo import EFifoLink, GatedChannel, PortGate
from .exbar import Exbar
from .hyperconnect import HyperConnect, MasterEFifo
from .regs import (
    BUDGET_UNLIMITED,
    ControlSlave,
    RegisterAccessError,
    RegisterFile,
    port_register,
)
from .supervisor import (
    PortConfig,
    TransactionSupervisor,
    drain_and_complete_orphans,
)

__all__ = [
    "CentralUnit",
    "HyperConnectDriver",
    "EFifoLink",
    "GatedChannel",
    "PortGate",
    "Exbar",
    "HyperConnect",
    "MasterEFifo",
    "BUDGET_UNLIMITED",
    "ControlSlave",
    "RegisterAccessError",
    "RegisterFile",
    "port_register",
    "PortConfig",
    "TransactionSupervisor",
    "drain_and_complete_orphans",
]
