"""Memory-mapped control interface of the AXI HyperConnect.

The HyperConnect "exports a control AXI slave interface that allows
changing its configuration from the PS as a standard memory-mapped device"
— managed by the hypervisor.  The registers *are* that configuration:
this module defines the register map, the :class:`RegisterFile` that
decodes it onto the IP's live port and central-unit state (with
read-only enforcement), and :class:`ControlSlave`, the AXI-Lite-style
slave that serves single-beat register transactions over a link.

Register map (32-bit registers, byte offsets)::

    0x00  CTRL             bit 0: global enable (1 = forward transactions)
    0x04  PERIOD           reservation period T in clock cycles
    0x08  N_PORTS          read-only: number of slave ports
    0x0C  VERSION          read-only: IP version
    0x40 + i*0x20          per-port register block, port i:
      +0x00  PORT_CTRL        bit 0: coupled (0 decouples the port)
      +0x04  NOMINAL_BURST    equalization burst size, beats
      +0x08  MAX_OUTSTANDING  outstanding sub-transaction limit
      +0x0C  BUDGET           reservation budget, sub-transactions per
                              period; 0xFFFFFFFF = unlimited
      +0x10  ISSUED_READ      read-only: sub-reads issued (wraps at 2^32)
      +0x14  ISSUED_WRITE     read-only: sub-writes issued
      +0x18  TIMEOUT          watchdog timeout in cycles; 0 = disabled
      +0x1C  FAULTS           read-only: containment entries (watchdog
                              and protocol trips) since reset
    0x1000 + i*0x8           per-port region-grant block, port i (the
                             per-port block at 0x40 is full, so region
                             grants live in their own aperture):
      +0x00  REGION_BASE      granted region base, 4 KiB pages
      +0x04  REGION_PAGES     granted region size, 4 KiB pages;
                              0 = region filter disabled
    0x2000 + i*0x4           REGION_EPOCH, port i: read-only counter
                             bumped on every REGION_PAGES write
                             (grant/revoke/re-grant commit marker)

The per-port block must end below 0x1000, which caps the IP at
:data:`MAX_PORTS` (126) ports; the window spans
:data:`HYPERCONNECT_CTRL_SIZE` bytes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..axi.payloads import AddrBeat, DataBeat, RespBeat, WriteBeat
from ..axi.port import AxiLink
from ..axi.types import Resp
from ..sim.component import Component
from ..sim.errors import ReproError

#: placement of the control window in the PS address map
HYPERCONNECT_CTRL_BASE = 0xA000_0000
#: extent of the control window: the map's three 4 KiB apertures
HYPERCONNECT_CTRL_SIZE = 0x3000

# global registers
REG_CTRL = 0x00
REG_PERIOD = 0x04
REG_N_PORTS = 0x08
REG_VERSION = 0x0C

# per-port block
PORT_BASE = 0x40
PORT_STRIDE = 0x20
PORT_CTRL = 0x00
PORT_NOMINAL_BURST = 0x04
PORT_MAX_OUTSTANDING = 0x08
PORT_BUDGET = 0x0C
PORT_ISSUED_READ = 0x10
PORT_ISSUED_WRITE = 0x14
PORT_TIMEOUT = 0x18
PORT_FAULTS = 0x1C

# per-port region-grant block (grant enforcement on the data plane)
REGION_BASE_OFFSET = 0x1000
REGION_STRIDE = 0x8
REGION_BASE_REG = 0x00
REGION_PAGES_REG = 0x04
#: granularity of the region-grant registers (one store page)
REGION_GRANULE = 4096

# per-port region-epoch aperture: a read-only counter the IP bumps on
# every REGION_PAGES write, the last write of each region-filter
# retarget (grant, revoke, re-grant).  Software uses it to detect that a
# revocation has committed without polling the base/pages pair for a
# torn update.
REGION_EPOCH_OFFSET = 0x2000
REGION_EPOCH_STRIDE = 0x4

#: most ports whose blocks fit below the region-grant aperture
MAX_PORTS = (REGION_BASE_OFFSET - PORT_BASE) // PORT_STRIDE

# the three per-port apertures, as (base, stride)
_PORT_APERTURES = ((PORT_BASE, PORT_STRIDE),
                   (REGION_BASE_OFFSET, REGION_STRIDE),
                   (REGION_EPOCH_OFFSET, REGION_EPOCH_STRIDE))
_PORT_READ_ONLY = (PORT_ISSUED_READ, PORT_ISSUED_WRITE, PORT_FAULTS)

#: budget register value meaning "no reservation limit"
BUDGET_UNLIMITED = 0xFFFF_FFFF

#: IP version reported by REG_VERSION (1.0.0)
IP_VERSION = 0x0001_0000

_WORD_MASK = 0xFFFF_FFFF


class RegisterAccessError(ReproError):
    """Illegal register access (unknown offset or write to read-only)."""


def _read_only(offset: int) -> RegisterAccessError:
    return RegisterAccessError(
        f"write to read-only register offset 0x{offset:x}")


def port_register(port: int, field_offset: int) -> int:
    """Byte offset of a per-port register."""
    return PORT_BASE + port * PORT_STRIDE + field_offset


def region_register(port: int, field_offset: int) -> int:
    """Byte offset of a per-port region-grant register."""
    return REGION_BASE_OFFSET + port * REGION_STRIDE + field_offset


def region_epoch_register(port: int) -> int:
    """Byte offset of a port's read-only region-epoch counter."""
    return REGION_EPOCH_OFFSET + port * REGION_EPOCH_STRIDE


class RegisterFile:
    """The HyperConnect's register map, decoded onto the IP's live state.

    Holds no register values of its own: a read encodes the state the
    datapath already uses (the per-port :class:`PortConfig`, the port
    gates, the supervisors' fault counters, and the central unit's
    enable and period) and a write decodes into it.  Writes are masked to
    32 bits; unmapped offsets and writes to read-only registers raise
    :class:`RegisterAccessError`.
    """

    def __init__(self, hyperconnect) -> None:
        self.hc = hyperconnect

    def _locate(self, offset: int, access: str) -> Tuple[int, int, int]:
        """``(aperture, port, field)`` of a per-port register offset."""
        for aperture, stride in _PORT_APERTURES:
            port, field_offset = divmod(offset - aperture, stride)
            if (offset >= aperture and port < self.hc.n_ports
                    and field_offset % 4 == 0):
                return aperture, port, field_offset
        raise RegisterAccessError(
            f"{access} unmapped register offset 0x{offset:x}")

    def read(self, offset: int) -> int:
        """Read a register; unknown offsets raise."""
        hc = self.hc
        if offset == REG_CTRL:
            return int(hc.central.enabled)
        if offset == REG_PERIOD:
            return hc.central.period
        if offset == REG_N_PORTS:
            return hc.n_ports
        if offset == REG_VERSION:
            return IP_VERSION
        aperture, port, field_offset = self._locate(offset, "read of")
        config = hc.configs[port]
        if aperture == REGION_EPOCH_OFFSET:
            value = config.region_epoch
        elif aperture == REGION_BASE_OFFSET:
            value = (config.region_base if field_offset == REGION_BASE_REG
                     else config.region_bytes) // REGION_GRANULE
        elif field_offset == PORT_CTRL:
            value = int(hc.ports[port].coupled)
        elif field_offset == PORT_NOMINAL_BURST:
            value = config.nominal_burst
        elif field_offset == PORT_MAX_OUTSTANDING:
            value = config.max_outstanding
        elif field_offset == PORT_BUDGET:
            value = (BUDGET_UNLIMITED if config.budget is None
                     else config.budget)
        elif field_offset == PORT_ISSUED_READ:
            value = config.issued_read
        elif field_offset == PORT_ISSUED_WRITE:
            value = config.issued_write
        elif field_offset == PORT_TIMEOUT:
            value = config.timeout_cycles or 0
        else:
            value = hc.supervisors[port].fault_stats.trips
        return value & _WORD_MASK

    def write(self, offset: int, value: int) -> None:
        """Write a register; read-only or unknown offsets raise."""
        value &= _WORD_MASK
        hc = self.hc
        if offset == REG_CTRL:
            hc.central.enabled = bool(value & 1)
        elif offset == REG_PERIOD:
            hc.central.period = max(1, value)
        elif offset in (REG_N_PORTS, REG_VERSION):
            raise _read_only(offset)
        else:
            aperture, port, field_offset = self._locate(offset, "write to")
            if (aperture == REGION_EPOCH_OFFSET
                    or (aperture == PORT_BASE
                        and field_offset in _PORT_READ_ONLY)):
                raise _read_only(offset)
            self._write_port(aperture, port, field_offset, value)
        # every configuration write may change some component's
        # quiescence, so drop any cached bulk-skip horizon
        hc.sim.wake()

    def _write_port(self, aperture: int, port: int, field_offset: int,
                    value: int) -> None:
        hc = self.hc
        config = hc.configs[port]
        if aperture == REGION_BASE_OFFSET:
            if field_offset == REGION_BASE_REG:
                config.region_base = value * REGION_GRANULE
            else:
                # REGION_PAGES is the last write of every retarget
                config.region_bytes = value * REGION_GRANULE
                config.region_epoch += 1
        elif field_offset == PORT_CTRL:
            if value & 1:
                hc.ports[port].couple()
            else:
                hc.ports[port].decouple()
        elif field_offset == PORT_NOMINAL_BURST:
            config.nominal_burst = max(1, value)
        elif field_offset == PORT_MAX_OUTSTANDING:
            config.max_outstanding = max(1, value)
        elif field_offset == PORT_BUDGET:
            config.budget = None if value == BUDGET_UNLIMITED else value
            # a newly imposed budget takes effect at the next synchronous
            # recharge; an *unlimited* setting applies immediately
            if config.budget is None:
                hc.supervisors[port].budget_remaining = None
        else:
            # PORT_TIMEOUT: 0 disarms the watchdog; pending deadlines
            # re-time from the stored issue cycles on the very next poll
            config.timeout_cycles = value or None


class ControlSlave(Component):
    """AXI-Lite-style slave serving the register file over a link.

    Accepts single-beat transactions only (the control interface is a
    32-bit register port).  A longer burst is answered with SLVERR in
    full AXI shape: a read gets ``length`` SLVERR beats, one per cycle,
    ``last`` on the final one; a write has its W beats swallowed up to
    ``last``, then gets one SLVERR response.  Out-of-map addresses
    return DECERR, faithfully modelling what a misprogrammed hypervisor
    access would see.  The window starts at
    :data:`HYPERCONNECT_CTRL_BASE`.
    """

    def __init__(self, sim, name: str, link: AxiLink,
                 regs: RegisterFile) -> None:
        super().__init__(sim, name)
        self.link = link
        self.regs = regs
        #: the read being answered, one beat per cycle, and its beats left
        self._read: Optional[AddrBeat] = None
        self._read_beats_left = 0
        self._pending_write: Optional[AddrBeat] = None

    def tick(self, cycle: int) -> bool:
        # the slave acts only when a read beat can be answered, an AW
        # can be accepted, or a W beat can be consumed
        idle = True
        # reads: accept AR, then answer its beats
        link = self.link
        if link.r.can_push():
            if self._read is None and link.ar.can_pop():
                self._read = link.ar.pop()
                self._read_beats_left = self._read.length
            request = self._read
            if request is not None:
                idle = False
                self._read_beats_left -= 1
                last = self._read_beats_left == 0
                link.r.push(self._register_read(request)
                            if request.length == 1 else
                            DataBeat(last=last, txn_id=request.txn_id,
                                     resp=Resp.SLVERR, addr_beat=request))
                if last:
                    self._read = None
        # writes: accept AW, then consume its W beats
        if self._pending_write is None and link.aw.can_pop():
            self._pending_write = link.aw.pop()
            idle = False
        if (self._pending_write is not None and link.w.can_pop()
                and link.b.can_push()):
            idle = False
            request = self._pending_write
            wbeat = link.w.pop()
            if request.length == 1:
                resp = self._register_write(request, wbeat)
            elif wbeat.last:
                resp = Resp.SLVERR
            else:
                return idle   # swallow the burst up to its last W beat
            self._pending_write = None
            link.b.push(RespBeat(txn_id=request.txn_id, resp=resp,
                                 addr_beat=request))
        return idle

    def _register_read(self, request: AddrBeat) -> DataBeat:
        try:
            value = self.regs.read(request.address - HYPERCONNECT_CTRL_BASE)
        except RegisterAccessError:
            return DataBeat(last=True, txn_id=request.txn_id,
                            resp=Resp.DECERR, addr_beat=request)
        return DataBeat(last=True, txn_id=request.txn_id,
                        data=value.to_bytes(4, "little"), resp=Resp.OKAY,
                        addr_beat=request)

    def _register_write(self, request: AddrBeat, wbeat: WriteBeat) -> Resp:
        if wbeat.data is None:
            return Resp.SLVERR
        try:
            self.regs.write(request.address - HYPERCONNECT_CTRL_BASE,
                            int.from_bytes(wbeat.data[:4], "little"))
        except RegisterAccessError:
            return Resp.DECERR
        return Resp.OKAY
