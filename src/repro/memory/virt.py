"""Sparse virtualized address space: per-domain stage-2 translation.

Each tenant domain sees a sparse guest-physical address space made of
region-mapped windows.  A :class:`Stage2Table` holds the domain's
windows (guest base -> host base, non-overlapping on the guest side)
and translates guest accesses to host-physical addresses in the shared
:class:`~repro.memory.store.MemoryStore`.  An access that misses every
window — or straddles a window edge — raises
:class:`~repro.memory.store.TranslationFault`.  The fabric data path
does not translate through these tables: accelerators address host
memory directly, confined by the HyperConnect's per-port region
filters, and the hypervisor uses the table to find a grant's window
when it tears the grant down.

:class:`VirtualizedStore` is the store-compatible facade: the same
``read``/``write``/``fill_pattern`` surface as ``MemoryStore``, with
every address run through the table first.  The hypervisor hands one to
each guest so tenant software is confined to its grants by construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .store import MemoryStore, TranslationFault


@dataclass(frozen=True)
class Stage2Window:
    """One region mapping: ``[guest_base, guest_base + size)`` -> host."""

    guest_base: int
    size: int
    host_base: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("window size must be positive")
        if self.guest_base < 0 or self.host_base < 0:
            raise ValueError("window bases must be non-negative")

    @property
    def guest_end(self) -> int:
        return self.guest_base + self.size

    def contains(self, address: int, count: int = 1) -> bool:
        return (self.guest_base <= address
                and address + count <= self.guest_end)

    def translate(self, address: int) -> int:
        return self.host_base + (address - self.guest_base)


class Stage2Table:
    """Sorted, non-overlapping guest windows for one domain.

    Lookup is a binary search over window bases, so a domain with many
    sparse grants still translates in O(log n).  The table counts the
    translations and faults of the guest accesses made through it.
    """

    def __init__(self, name: str = "stage2") -> None:
        self.name = name
        self._windows: List[Stage2Window] = []
        self._bases: List[int] = []
        self.translations = 0
        self.faults = 0

    # ------------------------------------------------------------------

    def map(self, guest_base: int, size: int,
            host_base: int) -> Stage2Window:
        """Install a window; rejects guest-side overlap."""
        window = Stage2Window(guest_base, size, host_base)
        index = bisect_right(self._bases, guest_base)
        if index > 0:
            prev = self._windows[index - 1]
            if prev.guest_end > guest_base:
                raise ValueError(
                    f"{self.name}: window [0x{guest_base:x}, "
                    f"0x{window.guest_end:x}) overlaps "
                    f"[0x{prev.guest_base:x}, 0x{prev.guest_end:x})")
        if index < len(self._windows):
            nxt = self._windows[index]
            if window.guest_end > nxt.guest_base:
                raise ValueError(
                    f"{self.name}: window [0x{guest_base:x}, "
                    f"0x{window.guest_end:x}) overlaps "
                    f"[0x{nxt.guest_base:x}, 0x{nxt.guest_end:x})")
        self._windows.insert(index, window)
        self._bases.insert(index, guest_base)
        return window

    def unmap(self, guest_base: int) -> Stage2Window:
        """Remove the window starting at ``guest_base``."""
        index = bisect_right(self._bases, guest_base) - 1
        if index < 0 or self._windows[index].guest_base != guest_base:
            raise ValueError(
                f"{self.name}: no window at 0x{guest_base:x}")
        self._bases.pop(index)
        return self._windows.pop(index)

    def window_for(self, address: int) -> Optional[Stage2Window]:
        index = bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        window = self._windows[index]
        return window if address < window.guest_end else None

    def window_for_host(self, host_base: int) -> Optional[Stage2Window]:
        """The window whose *host* range starts at ``host_base``.

        Grant teardown works in physical terms (the hypervisor revokes a
        ``MemoryRegion``, i.e. a host range), so it needs the reverse
        lookup; windows are keyed by guest base, so this is a linear
        scan over the (small, per-domain) window list.
        """
        for window in self._windows:
            if window.host_base == host_base:
                return window
        return None

    def translate(self, address: int, count: int = 1) -> int:
        """Guest -> host for ``count`` contiguous bytes.

        Raises :class:`TranslationFault` when the access misses every
        window or straddles a window edge (region grants are physically
        contiguous, so a legal access never crosses windows).
        """
        window = self.window_for(address)
        if window is None or not window.contains(address, max(count, 1)):
            self.faults += 1
            raise TranslationFault(
                f"{self.name}: no stage-2 mapping for guest "
                f"[0x{address:x}, 0x{address + count:x})",
                address=address, count=count)
        self.translations += 1
        return window.translate(address)

    # ------------------------------------------------------------------

    @property
    def windows(self) -> Tuple[Stage2Window, ...]:
        return tuple(self._windows)

    @property
    def mapped_bytes(self) -> int:
        return sum(w.size for w in self._windows)


class VirtualizedStore:
    """A guest's view of memory: every access translated through stage 2.

    Drop-in for :class:`MemoryStore` at the call sites that matter
    (``read``/``write``/``fill_pattern``), so a memory model or guest
    driver can be pointed at a tenant's sparse address space unchanged.
    """

    def __init__(self, store: MemoryStore, table: Stage2Table) -> None:
        self.store = store
        self.table = table

    def read(self, address: int, count: int) -> bytes:
        return self.store.read(self.table.translate(address, count), count)

    def write(self, address: int, data: bytes) -> None:
        host = self.table.translate(address, len(data))
        self.store.write(host, data)

    def fill_pattern(self, address: int, count: int, seed: int = 0) -> None:
        host = self.table.translate(address, count)
        self.store.fill_pattern(host, count, seed)

    @property
    def size(self) -> int:
        """Span of the sparse guest address space (end of last window)."""
        windows = self.table.windows
        return windows[-1].guest_end if windows else 0

    @property
    def mapped_bytes(self) -> int:
        return self.table.mapped_bytes
