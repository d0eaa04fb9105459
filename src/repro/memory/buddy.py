"""Buddy allocator for physical region grants.

The hypervisor carves the physical DRAM window into power-of-two region
grants, one or more per tenant domain.  A buddy allocator keeps the
carving deterministic (lowest-address block first), keeps fragmentation
bounded, and makes free/coalesce cheap enough to run inside fault
campaigns that create and destroy hundreds of domains.

The allocator is pure bookkeeping over ``[base, base + size)`` — it
never touches a :class:`~repro.memory.store.MemoryStore`; callers pair
a grant with a store (or a domain's region list) themselves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _round_up_pow2(value: int) -> int:
    return 1 << (value - 1).bit_length()


class AllocationError(Exception):
    """The allocator cannot satisfy a request (exhausted or invalid)."""


class BuddyAllocator:
    """Deterministic power-of-two buddy allocator.

    Parameters
    ----------
    base:
        Start address of the managed physical range.  Must be aligned to
        ``size``.
    size:
        Total managed bytes; must be a power of two.
    min_block:
        Smallest grantable block (default 4 KiB, one store page).
        Requests are rounded up to a power-of-two multiple of this.
    """

    def __init__(self, base: int, size: int, min_block: int = 4096) -> None:
        if not _is_pow2(size):
            raise AllocationError(f"size 0x{size:x} is not a power of two")
        if not _is_pow2(min_block) or min_block > size:
            raise AllocationError(
                f"min_block 0x{min_block:x} must be a power of two "
                f"<= size 0x{size:x}")
        if base % size:
            raise AllocationError(
                f"base 0x{base:x} is not aligned to size 0x{size:x}")
        self.base = base
        self.size = size
        self.min_block = min_block
        # free lists keyed by block size; each list kept sorted so the
        # lowest-address candidate is always granted first (determinism)
        self._free: Dict[int, List[int]] = {size: [base]}
        #: live grants: address -> block size
        self._allocated: Dict[int, int] = {}
        self.allocations = 0
        self.frees = 0

    # ------------------------------------------------------------------

    def _block_size_for(self, request: int) -> int:
        if request <= 0:
            raise AllocationError("allocation size must be positive")
        return max(self.min_block, _round_up_pow2(request))

    def alloc(self, size: int) -> int:
        """Grant a block of at least ``size`` bytes; return its address."""
        block = self._block_size_for(size)
        if block > self.size:
            raise AllocationError(
                f"request 0x{size:x} exceeds pool size 0x{self.size:x}")
        # find the smallest free block that fits
        candidate = block
        while candidate <= self.size and not self._free.get(candidate):
            candidate <<= 1
        if candidate > self.size:
            raise AllocationError(
                f"out of memory: no free block for 0x{block:x} bytes")
        address = self._free[candidate].pop(0)
        # split down to the requested size, returning upper halves
        while candidate > block:
            candidate >>= 1
            buddy = address + candidate
            self._free.setdefault(candidate, []).append(buddy)
            self._free[candidate].sort()
        self._allocated[address] = block
        self.allocations += 1
        return address

    def reserve(self, base: int, size: int) -> List[int]:
        """Claim the exact range ``[base, base + size)`` from the pool.

        Used for pinned placements (``adopt_region``-style grants and
        same-range re-grants after a revocation) where the caller — not
        the allocator — chose the address.  The range is decomposed into
        maximal naturally-aligned power-of-two blocks, each of which
        becomes an active grant; returns the block addresses in
        ascending order.  Freeing every returned address coalesces the
        range back exactly as :meth:`free` would.

        Raises :class:`AllocationError` (leaving the pool untouched) if
        the range is misaligned, out of bounds, or any part of it is
        already granted.
        """
        if size <= 0:
            raise AllocationError("reservation size must be positive")
        if base % self.min_block or size % self.min_block:
            raise AllocationError(
                f"reservation 0x{base:x}+0x{size:x} is not a multiple of "
                f"min_block 0x{self.min_block:x}")
        if base < self.base or base + size > self.base + self.size:
            raise AllocationError(
                f"reservation 0x{base:x}+0x{size:x} outside pool "
                f"[0x{self.base:x}, 0x{self.base + self.size:x})")
        blocks: List[Tuple[int, int]] = []
        addr, remaining = base, size
        while remaining:
            offset = addr - self.base
            align = offset & -offset if offset else self.size
            block = min(align, 1 << (remaining.bit_length() - 1))
            blocks.append((addr, block))
            addr += block
            remaining -= block
        claimed: List[int] = []
        try:
            for addr, block in blocks:
                self._claim(addr, block)
                claimed.append(addr)
        except AllocationError:
            for addr in claimed:
                self.free(addr)
            # rollback is not a caller-visible alloc/free pair
            self.frees -= len(claimed)
            self.allocations -= len(claimed)
            raise
        return claimed

    def _claim(self, address: int, block: int) -> None:
        """Split the free pool to grant exactly ``[address, addr+block)``."""
        holder = None
        for cand_size in sorted(self._free):
            for cand in self._free[cand_size]:
                if cand <= address and address + block <= cand + cand_size:
                    holder = (cand, cand_size)
                    break
            if holder:
                break
        if holder is None:
            raise AllocationError(
                f"range 0x{address:x}+0x{block:x} is not free")
        start, size = holder
        self._free[size].remove(start)
        while size > block:
            half = size >> 1
            if address >= start + half:
                self._free.setdefault(half, []).append(start)
                start += half
            else:
                self._free.setdefault(half, []).append(start + half)
            self._free[half].sort()
            size = half
        self._allocated[start] = block
        self.allocations += 1

    def is_granted(self, address: int) -> bool:
        """True when ``address`` is the base of an active grant."""
        return address in self._allocated

    def free(self, address: int) -> None:
        """Release a grant and coalesce with free buddies."""
        block = self._allocated.pop(address, None)
        if block is None:
            raise AllocationError(f"0x{address:x} is not an active grant")
        self.frees += 1
        while block < self.size:
            offset = address - self.base
            buddy = self.base + (offset ^ block)
            peers = self._free.get(block, [])
            if buddy not in peers:
                break
            peers.remove(buddy)
            address = min(address, buddy)
            block <<= 1
        self._free.setdefault(block, []).append(address)
        self._free[block].sort()

    # ------------------------------------------------------------------

    def grant_size(self, address: int) -> int:
        """Block size of an active grant (KeyError if not granted)."""
        return self._allocated[address]

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocated.values())

    @property
    def free_bytes(self) -> int:
        return self.size - self.allocated_bytes

    @property
    def largest_free_block(self) -> int:
        sizes = [s for s, blocks in self._free.items() if blocks]
        return max(sizes) if sizes else 0

    def stats(self) -> Dict[str, int]:
        return {
            "allocations": self.allocations,
            "frees": self.frees,
            "allocated_bytes": self.allocated_bytes,
            "free_bytes": self.free_bytes,
            "largest_free_block": self.largest_free_block,
        }

    def grants(self) -> List[Tuple[int, int]]:
        """Active grants as sorted ``(address, size)`` pairs."""
        return sorted(self._allocated.items())
