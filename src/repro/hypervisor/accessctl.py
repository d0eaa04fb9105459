"""Control-plane access control (the memory-virtualization stand-in).

"The hypervisor is in charge of granting access from each application to
the corresponding HAs only (via standard memory virtualization)": guests
reach their own accelerators' control registers, and nothing else — in
particular, never the HyperConnect's control interface, which belongs to
the hypervisor alone.

This module models that second-stage translation at the granularity the
experiments need: per-domain allowed ranges, explicit deny of the
HyperConnect register window, and an audit trail of violations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from ..sim.errors import ReproError
from .domain import Domain, MemoryRegion

#: default audit-trail depth; fault storms can deny millions of accesses,
#: so the record list is a ring buffer with a separate total counter
DEFAULT_AUDIT_DEPTH = 1024


class AccessViolation(ReproError):
    """A domain attempted an access outside its granted ranges."""


@dataclass(frozen=True)
class ViolationRecord:
    """Audit entry for a denied access."""

    domain: str
    address: int
    count: int
    reason: str


@dataclass(frozen=True)
class TransitionRecord:
    """Audit entry for a grant-table transition (grant / revoke).

    Tenant-churn campaigns replay a scripted revoke/re-grant sequence
    and compare the resulting trail byte-for-byte against a golden
    file, so the record is JSON-native via :meth:`as_dict`.
    """

    kind: str          # "grant" | "revoke"
    domain: str
    base: int
    size: int
    cycle: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "domain": self.domain,
            "base": self.base,
            "size": self.size,
            "cycle": self.cycle,
        }


class AccessControl:
    """Second-stage access control over the control plane.

    Parameters
    ----------
    hyperconnect_window:
        The HyperConnect control-register range; always denied to guests
        regardless of their grants (defence in depth).
    audit_depth:
        Maximum retained :class:`ViolationRecord` entries.  Older entries
        are evicted (ring buffer); :attr:`total_violations` keeps the
        lifetime count so fault-storm campaigns with millions of denials
        cannot grow memory without bound.
    """

    def __init__(self, hyperconnect_window: MemoryRegion,
                 audit_depth: int = DEFAULT_AUDIT_DEPTH) -> None:
        if audit_depth < 1:
            raise ValueError("audit_depth must be >= 1")
        self.hyperconnect_window = hyperconnect_window
        #: most recent denied accesses (bounded ring buffer)
        self.violations: Deque[ViolationRecord] = deque(maxlen=audit_depth)
        #: lifetime denial count (survives ring-buffer eviction)
        self.total_violations = 0
        #: most recent grant-table transitions (bounded ring buffer)
        self.transitions: Deque[TransitionRecord] = deque(maxlen=audit_depth)
        #: lifetime transition count (survives ring-buffer eviction)
        self.total_transitions = 0

    def grant(self, domain: Domain, region: MemoryRegion,
              cycle: Optional[int] = None) -> None:
        """Allow ``domain`` to access ``region`` (control registers of its
        own HAs, its DRAM buffers, ...) by adding it to the domain's
        regions."""
        if region.overlaps(self.hyperconnect_window):
            raise AccessViolation(
                f"cannot grant {domain.name!r} a region overlapping the "
                f"HyperConnect control window")
        domain.add_region(region.base, region.size)
        self._record("grant", domain.name, region, cycle)

    def revoke(self, domain: Domain, region: MemoryRegion,
               cycle: Optional[int] = None) -> None:
        """Withdraw a previously granted region from ``domain``.

        Subsequent :meth:`check` calls against the range are denied (and
        audited) like any other unmatched access.  Raises
        :class:`AccessViolation` when the domain holds no such grant —
        a revocation that silently misses would leave the caller
        believing an access path was closed when it was not.
        """
        if region not in domain.regions:
            raise AccessViolation(
                f"domain {domain.name!r} holds no grant at "
                f"0x{region.base:x} (+0x{region.size:x})")
        domain.regions.remove(region)
        self._record("revoke", domain.name, region, cycle)

    def _record(self, kind: str, domain_name: str, region: MemoryRegion,
                cycle: Optional[int]) -> None:
        self.transitions.append(
            TransitionRecord(kind, domain_name, region.base, region.size,
                             cycle))
        self.total_transitions += 1

    def check(self, domain: Domain, address: int, count: int = 4) -> None:
        """Validate a guest access; raises :class:`AccessViolation`.

        Every violation is also recorded for auditing (a real hypervisor
        would inject a fault into the guest).
        """
        probe = MemoryRegion(address, count)
        if probe.overlaps(self.hyperconnect_window):
            self._deny(domain, address, count,
                       "HyperConnect control interface is hypervisor-only")
        if not domain.may_access(address, count):
            self._deny(domain, address, count, "no matching grant")

    def _deny(self, domain: Domain, address: int, count: int,
              reason: str) -> None:
        record = ViolationRecord(domain.name, address, count, reason)
        self.violations.append(record)
        self.total_violations += 1
        raise AccessViolation(
            f"domain {domain.name!r} denied at 0x{address:x} "
            f"(+{count}): {reason}")
