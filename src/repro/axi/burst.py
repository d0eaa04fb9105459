"""Burst address arithmetic.

Pure functions implementing the AXI address-structure rules: per-beat
addresses for INCR/WRAP/FIXED bursts, 4 KiB boundary checking, and the
burst-splitting used by the Transaction Supervisor's equalization stage
(the mechanism of Restuccia et al., "Is your bus arbiter really fair?",
ACM TECS 2019 — reference [11] of the paper).
"""

from __future__ import annotations

from typing import List, Tuple

from .types import (
    BOUNDARY_4KB,
    AxiVersion,
    BurstType,
    check_beat_size,
    check_burst_length,
)


def beat_addresses(address: int, length: int, size_bytes: int,
                   burst: BurstType = BurstType.INCR) -> List[int]:
    """Per-beat start addresses of a burst.

    Addresses follow the AXI rules: INCR increments by the beat size, FIXED
    repeats the start address, WRAP increments and wraps at the container
    boundary (``length * size_bytes``, which must enclose an aligned start).
    """
    check_beat_size(size_bytes)
    if length < 1:
        raise ValueError("length must be >= 1")
    if burst is BurstType.FIXED:
        return [address] * length
    if burst is BurstType.INCR:
        return [address + i * size_bytes for i in range(length)]
    # WRAP: start must be aligned to the beat size; the burst wraps at the
    # container (total size) boundary.
    if address % size_bytes:
        raise ValueError(
            f"WRAP burst start 0x{address:x} not aligned to beat size "
            f"{size_bytes}")
    container = length * size_bytes
    base = (address // container) * container
    return [base + (address - base + i * size_bytes) % container
            for i in range(length)]


def crosses_4kb(address: int, length: int, size_bytes: int,
                burst: BurstType = BurstType.INCR) -> bool:
    """True if the burst would cross a 4 KiB boundary (illegal in AXI)."""
    if burst is BurstType.FIXED:
        return False
    if burst is BurstType.WRAP:
        # A legal WRAP burst stays inside its container, which never spans
        # a 4 KiB boundary for the allowed lengths/sizes.
        return False
    last = address + length * size_bytes - 1
    return (address // BOUNDARY_4KB) != (last // BOUNDARY_4KB)


def max_legal_length(address: int, size_bytes: int,
                     version: AxiVersion = AxiVersion.AXI4) -> int:
    """Longest INCR burst from ``address`` not crossing 4 KiB.

    Also capped by the protocol's maximum burst length.
    """
    check_beat_size(size_bytes)
    to_boundary = BOUNDARY_4KB - (address % BOUNDARY_4KB)
    by_boundary = max(1, to_boundary // size_bytes)
    return min(by_boundary, version.max_burst_length)


def split_burst(address: int, length: int, size_bytes: int,
                nominal: int) -> List[Tuple[int, int]]:
    """Split an INCR burst into sub-bursts of at most ``nominal`` beats.

    This is the equalization operation of the Transaction Supervisor: a
    request of ``length`` beats becomes ``ceil(length / nominal)``
    sub-requests, each of the nominal burst size except possibly the last.
    Returns ``(sub_address, sub_length)`` pairs in address order.

    The caller is responsible for the original burst being 4 KiB-legal;
    sub-bursts of a legal burst are always legal (they are sub-ranges).
    """
    check_beat_size(size_bytes)
    if nominal < 1:
        raise ValueError(f"nominal burst size must be >= 1, got {nominal}")
    if length < 1:
        raise ValueError(f"burst length must be >= 1, got {length}")
    pieces: List[Tuple[int, int]] = []
    remaining = length
    cursor = address
    while remaining > 0:
        chunk = min(nominal, remaining)
        pieces.append((cursor, chunk))
        cursor += chunk * size_bytes
        remaining -= chunk
    return pieces


def legalize(address: int, total_beats: int, size_bytes: int,
             version: AxiVersion = AxiVersion.AXI4) -> List[Tuple[int, int]]:
    """Chop a long linear transfer into protocol-legal INCR bursts.

    Used by DMA engines and traffic generators: given a transfer of
    ``total_beats`` beats starting at ``address``, produce bursts that
    respect both the max burst length of ``version`` and the 4 KiB rule.
    """
    check_beat_size(size_bytes)
    if total_beats < 1:
        raise ValueError("total_beats must be >= 1")
    bursts: List[Tuple[int, int]] = []
    cursor = address
    remaining = total_beats
    while remaining > 0:
        chunk = min(remaining, max_legal_length(cursor, size_bytes, version))
        check_burst_length(chunk, version)
        bursts.append((cursor, chunk))
        cursor += chunk * size_bytes
        remaining -= chunk
    return bursts
