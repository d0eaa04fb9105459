"""Synchronous cycle-based simulation kernel.

This package is the foundation of the reproduction: a deterministic,
order-independent clocked simulator in which hardware modules are
:class:`Component` subclasses connected by registered FIFO
:class:`Channel` links.
"""

from .channel import Channel, UNBOUNDED
from .commit import CommitCohorts
from .component import Component
from .errors import (
    ChannelError,
    ConfigurationError,
    ReproError,
    SimulationError,
)
from .events import (EventBus, GrantRevocationEvent, PortFaultEvent,
                     PortRecoveryEvent)
from .kernel import Simulator
from .stats import (
    Histogram,
    KernelSkipStats,
    OnlineStats,
    PortFaultStats,
    RateCounter,
)
from .trace import TraceEvent, Tracer

__all__ = [
    "Channel",
    "UNBOUNDED",
    "Component",
    "ChannelError",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "EventBus",
    "GrantRevocationEvent",
    "PortFaultEvent",
    "PortRecoveryEvent",
    "Simulator",
    "Histogram",
    "KernelSkipStats",
    "OnlineStats",
    "PortFaultStats",
    "RateCounter",
    "TraceEvent",
    "Tracer",
    "CommitCohorts",
]
