"""AXI protocol substrate: types, burst math, links, checking, probes."""

from .burst import (
    beat_addresses,
    crosses_4kb,
    legalize,
    max_legal_length,
    split_burst,
)
from .checker import LinkChecker, ProtocolError, check_addr_beat
from .idgen import IdAllocator
from .monitor import PropagationProbe
from .payloads import (
    AddrBeat,
    DataBeat,
    RespBeat,
    WriteBeat,
    make_read_request,
    make_write_request,
)
from .port import AxiLink
from .types import (
    BOUNDARY_4KB,
    AxiVersion,
    BurstType,
    ChannelName,
    Resp,
    check_beat_size,
    check_burst_length,
)

__all__ = [
    "beat_addresses",
    "crosses_4kb",
    "legalize",
    "max_legal_length",
    "split_burst",
    "LinkChecker",
    "ProtocolError",
    "check_addr_beat",
    "IdAllocator",
    "PropagationProbe",
    "AddrBeat",
    "DataBeat",
    "RespBeat",
    "WriteBeat",
    "make_read_request",
    "make_write_request",
    "AxiLink",
    "BOUNDARY_4KB",
    "AxiVersion",
    "BurstType",
    "ChannelName",
    "Resp",
    "check_beat_size",
    "check_burst_length",
]
