"""Execution domains of the mixed-criticality framework.

Each application of Section IV is a *domain*: a software system in the PS
(possibly its own guest OS) plus a set of hardware accelerators on the
fabric.  Domains are independently developed, carry a criticality level,
and must be isolated from one another by the hypervisor — in the PS by
standard memory virtualization, on the fabric by the AXI HyperConnect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.errors import ConfigurationError


class Criticality(enum.IntEnum):
    """Coarse criticality classes (ordered: higher = more critical)."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous physical address range granted to a domain."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError("region size must be positive")
        if self.base < 0:
            raise ConfigurationError("region base must be non-negative")

    @property
    def end(self) -> int:
        """First address past the region."""
        return self.base + self.size

    def contains(self, address: int, count: int = 1) -> bool:
        """True if ``[address, address+count)`` lies inside the region."""
        return self.base <= address and address + count <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True if the two regions share any address."""
        return self.base < other.end and other.base < self.end


@dataclass
class Domain:
    """One application: software + accelerators + resource policy."""

    name: str
    criticality: Criticality = Criticality.LOW
    #: DRAM regions this domain's HAs may touch
    regions: List[MemoryRegion] = field(default_factory=list)
    #: fraction of fabric memory bandwidth the integrator reserved (None =
    #: no reservation; best effort)
    bandwidth_share: Optional[float] = None
    #: HyperConnect ports bound to this domain's accelerators
    ports: List[int] = field(default_factory=list)

    def add_region(self, base: int, size: int) -> MemoryRegion:
        """Grant a memory region, rejecting overlap within the domain."""
        region = MemoryRegion(base, size)
        for existing in self.regions:
            if existing.overlaps(region):
                raise ConfigurationError(
                    f"domain {self.name!r}: region 0x{base:x}+0x{size:x} "
                    f"overlaps existing 0x{existing.base:x}")
        self.regions.append(region)
        return region

    def may_access(self, address: int, count: int = 1) -> bool:
        """True if the domain is allowed to touch the address range."""
        return any(region.contains(address, count)
                   for region in self.regions)
