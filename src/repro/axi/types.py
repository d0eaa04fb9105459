"""Core AXI protocol types and constants.

The models in this library follow the AMBA AXI specification (both AXI3 and
AXI4 flavours, as the AXI HyperConnect supports both).  Only the protocol
features the paper exercises are modelled: bursts, IDs, in-order completion,
the five channels, and the handshake semantics.  Out-of-order completion is
intentionally unsupported — the paper notes that today's FPGA SoC memory
controllers serve transactions in-order, and the HyperConnect itself does
not support out-of-order completion.
"""

from __future__ import annotations

import enum

#: Size in bytes of the AXI 4 KiB address boundary that a single burst must
#: never cross (AMBA AXI spec, "address structure").
BOUNDARY_4KB = 4096


class BurstType(enum.Enum):
    """AXI burst type encoding (AxBURST field)."""

    FIXED = 0
    INCR = 1
    WRAP = 2

    def __str__(self) -> str:
        return self.name


class Resp(enum.IntEnum):
    """AXI response encoding (xRESP field).

    The ordering of the values matches the AXI encoding, and the helper
    :meth:`merged_with` implements the "worst response wins" rule used when
    merging the responses of split sub-transactions.
    """

    OKAY = 0
    EXOKAY = 1
    SLVERR = 2
    DECERR = 3

    @property
    def is_error(self) -> bool:
        """True for SLVERR/DECERR."""
        return self in (Resp.SLVERR, Resp.DECERR)

    def merged_with(self, other: "Resp") -> "Resp":
        """Combine two responses, keeping the more severe one.

        Severity order (least to most): OKAY/EXOKAY < SLVERR < DECERR.
        EXOKAY never survives a merge with a non-EXOKAY response because a
        merged transaction is no longer a single exclusive access.
        """
        if self.is_error or other.is_error:
            return max(self, other, key=lambda r: (r.is_error, int(r)))
        if self is Resp.EXOKAY and other is Resp.EXOKAY:
            return Resp.EXOKAY
        return Resp.OKAY


class AxiVersion(enum.Enum):
    """Protocol flavour; constrains the maximum burst length."""

    AXI3 = 3
    AXI4 = 4

    @property
    def max_burst_length(self) -> int:
        """Maximum beats per burst: 16 for AXI3, 256 for AXI4 INCR."""
        return 16 if self is AxiVersion.AXI3 else 256


class ChannelName(enum.Enum):
    """The five AXI channels."""

    AR = "AR"   # read address (master -> slave)
    AW = "AW"   # write address (master -> slave)
    R = "R"     # read data (slave -> master)
    W = "W"     # write data (master -> slave)
    B = "B"     # write response (slave -> master)


#: Legal AxSIZE values: bytes per beat must be a power of two up to 128.
VALID_BEAT_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)


def check_beat_size(size_bytes: int) -> int:
    """Validate an AxSIZE value (bytes per beat); return it unchanged."""
    if size_bytes not in VALID_BEAT_SIZES:
        raise ValueError(
            f"beat size must be a power of two in {VALID_BEAT_SIZES}, "
            f"got {size_bytes}")
    return size_bytes


def check_burst_length(length: int, version: AxiVersion = AxiVersion.AXI4,
                       burst: BurstType = BurstType.INCR) -> int:
    """Validate a burst length in beats; return it unchanged.

    AXI4 allows up to 256 beats for INCR bursts only; FIXED and WRAP are
    capped at 16 beats in both AXI3 and AXI4.  WRAP lengths must be 2, 4,
    8 or 16.
    """
    if length < 1:
        raise ValueError(f"burst length must be >= 1, got {length}")
    cap = version.max_burst_length if burst is BurstType.INCR else 16
    if length > cap:
        raise ValueError(
            f"burst length {length} exceeds {cap} "
            f"({version.name} {burst.name})")
    if burst is BurstType.WRAP and length not in (2, 4, 8, 16):
        raise ValueError(f"WRAP burst length must be 2/4/8/16, got {length}")
    return length
