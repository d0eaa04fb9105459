"""AXI transaction-ID allocation.

Each master owns an ID space.  Since the modelled memory subsystem serves
transactions strictly in order (as the paper notes real FPGA SoC memory
controllers do), IDs are used for bookkeeping and checking rather than for
reordering — but they are still allocated and released like real AXI IDs so
the models stay faithful to the protocol.
"""

from __future__ import annotations

from typing import Set

from ..sim.errors import ConfigurationError


class IdAllocator:
    """Fixed-width AXI ID pool for one master interface.

    Parameters
    ----------
    width_bits:
        ID signal width; the pool holds ``2**width_bits`` IDs.
    """

    def __init__(self, width_bits: int = 4) -> None:
        if not 0 < width_bits <= 16:
            raise ConfigurationError(
                f"ID width must be in 1..16 bits, got {width_bits}")
        self.capacity = 1 << width_bits
        self._free = list(range(self.capacity - 1, -1, -1))
        self._in_use: Set[int] = set()

    def available(self) -> bool:
        """True when at least one ID is free."""
        return bool(self._free)

    def allocate(self) -> int:
        """Take a free ID; raises if the pool is exhausted."""
        if not self._free:
            raise ConfigurationError("AXI ID pool exhausted")
        txn_id = self._free.pop()
        self._in_use.add(txn_id)
        return txn_id

    def release(self, txn_id: int) -> None:
        """Return an ID to the pool; raises on double release."""
        if txn_id not in self._in_use:
            raise ConfigurationError(f"releasing unallocated ID {txn_id}")
        self._in_use.remove(txn_id)
        self._free.append(txn_id)
