"""Sparse byte-addressable backing store.

Models the DRAM contents.  Storage is allocated lazily in 4 KiB pages so a
full 32-bit address space can be simulated without reserving gigabytes of
host memory.  Unwritten bytes read as zero.
"""

from __future__ import annotations

from typing import Dict

_PAGE_SIZE = 4096


class MemoryAccessFault(ValueError):
    """An access the backing store cannot satisfy.

    Subclasses ``ValueError`` for backward compatibility with callers
    that caught the old bare exception.  Data-path adapters catch this
    and synthesize an AXI DECERR response instead of letting a Python
    exception escape the simulation kernel.
    """

    def __init__(self, message: str, address: int = 0, count: int = 0) -> None:
        super().__init__(message)
        self.address = address
        self.count = count


class TranslationFault(MemoryAccessFault):
    """A guest access that no single grant of its domain covers (a
    miss, or a straddle across two grants)."""


class MemoryStore:
    """Lazily-allocated sparse memory.

    Parameters
    ----------
    size:
        Total addressable bytes; accesses beyond it raise
        :class:`MemoryAccessFault` (the simulation-model analogue of a
        DECERR-causing address decode failure, which data-path adapters
        translate into an AXI error response).
    """

    def __init__(self, size: int = 1 << 32) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._pages: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------

    def _check_range(self, address: int, count: int) -> None:
        if address < 0 or count < 0 or address + count > self.size:
            raise MemoryAccessFault(
                f"access [0x{address:x}, 0x{address + count:x}) outside "
                f"memory of size 0x{self.size:x}",
                address=address, count=count)

    def read(self, address: int, count: int) -> bytes:
        """Read ``count`` bytes starting at ``address``."""
        self._check_range(address, count)
        out = bytearray(count)
        offset = 0
        while offset < count:
            page_index, page_offset = divmod(address + offset, _PAGE_SIZE)
            chunk = min(count - offset, _PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = (
                    page[page_offset:page_offset + chunk])
            offset += chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        self._check_range(address, len(data))
        offset = 0
        count = len(data)
        while offset < count:
            page_index, page_offset = divmod(address + offset, _PAGE_SIZE)
            chunk = min(count - offset, _PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(_PAGE_SIZE)
                self._pages[page_index] = page
            page[page_offset:page_offset + chunk] = (
                data[offset:offset + chunk])
            offset += chunk

    # ------------------------------------------------------------------

    def fill_pattern(self, address: int, count: int, seed: int = 0) -> None:
        """Fill a range with a cheap deterministic byte pattern.

        Used by tests and examples to create verifiable source buffers
        without hauling a RNG around.
        """
        pattern = bytes((seed + i * 131 + (i >> 8) * 17) & 0xFF
                        for i in range(min(count, _PAGE_SIZE)))
        offset = 0
        while offset < count:
            chunk = min(count - offset, len(pattern))
            self.write(address + offset, pattern[:chunk])
            offset += chunk

    def scrub(self, address: int, count: int) -> None:
        """Zero a range, dropping fully-covered pages from the sparse map.

        The hypervisor scrubs a physical range when a grant is revoked so
        the next grantee never observes the previous tenant's data.
        Whole pages are simply deallocated (unwritten bytes read as
        zero), keeping the sparse footprint bounded under tenant churn;
        partial pages at the edges are zero-filled in place.
        """
        self._check_range(address, count)
        end = address + count
        first_full = -(-address // _PAGE_SIZE)  # ceil
        last_full = end // _PAGE_SIZE           # exclusive
        if first_full >= last_full:
            # range never spans a full page: zero-fill in place
            if count:
                self.write(address, bytes(count))
            return
        for page_index in range(first_full, last_full):
            self._pages.pop(page_index, None)
        if address < first_full * _PAGE_SIZE:
            self.write(address, bytes(first_full * _PAGE_SIZE - address))
        if end > last_full * _PAGE_SIZE:
            self.write(last_full * _PAGE_SIZE,
                       bytes(end - last_full * _PAGE_SIZE))

    @property
    def allocated_bytes(self) -> int:
        """Host bytes actually allocated (sparse footprint)."""
        return len(self._pages) * _PAGE_SIZE
