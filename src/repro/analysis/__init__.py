"""Closed-form predictability analysis of the AXI HyperConnect."""

from .containment import ContainmentBound
from .interference import (
    InterferenceModel,
    interfering_transactions,
    transaction_service_cycles,
    worst_case_grant_delay,
)
from .latency import (
    AccessTimeModel,
    hyperconnect_propagation,
    improvement,
    read_propagation,
    smartconnect_propagation,
    write_propagation,
)
from .reservation import (
    ReservationAnalysis,
    bandwidth_fraction,
    budget_for_share,
    supply_transactions,
    wcrt_transactions,
)
from .wcrt import HyperConnectWcrt

__all__ = [
    "ContainmentBound",
    "InterferenceModel",
    "interfering_transactions",
    "transaction_service_cycles",
    "worst_case_grant_delay",
    "AccessTimeModel",
    "hyperconnect_propagation",
    "improvement",
    "read_propagation",
    "smartconnect_propagation",
    "write_propagation",
    "ReservationAnalysis",
    "bandwidth_fraction",
    "budget_for_share",
    "supply_transactions",
    "wcrt_transactions",
    "HyperConnectWcrt",
]
