"""Memory-mapped control interface of the AXI HyperConnect.

The HyperConnect "exports a control AXI slave interface that allows
changing its configuration from the PS as a standard memory-mapped device"
— managed by the hypervisor.  This module defines the register map, the
:class:`RegisterFile` backing store (with read-only enforcement and write
callbacks for side effects), and :class:`ControlSlave`, the AXI-Lite-style
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
                             per-port block at 0x40 is full, so stage-2
                             grants live in their own aperture):
      +0x00  REGION_BASE      granted region base, 4 KiB pages
      +0x04  REGION_PAGES     granted region size, 4 KiB pages;
                              0 = region filter disabled
    0x2000 + i*0x4           REGION_EPOCH, port i: read-only counter
                             bumped on every region-filter retarget
                             (grant/revoke/re-grant commit marker)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..axi.payloads import DataBeat, RespBeat
from ..axi.port import AxiLink
from ..axi.types import Resp
from ..sim.component import Component
from ..sim.errors import ConfigurationError, ReproError

#: placement of the control window in the PS address map
HYPERCONNECT_CTRL_BASE = 0xA000_0000

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

# per-port region-grant block (stage-2 enforcement on the data plane)
REGION_BASE_OFFSET = 0x1000
REGION_STRIDE = 0x8
REGION_BASE_REG = 0x00
REGION_PAGES_REG = 0x04
#: granularity of the region-grant registers (one store page)
REGION_GRANULE = 4096

# per-port region-epoch aperture: a read-only counter bumped by the
# hypervisor every time a port's region filter is retargeted (grant,
# revoke, re-grant).  Software uses it to detect that a revocation has
# committed without polling the base/pages pair for a torn update.
REGION_EPOCH_OFFSET = 0x2000
REGION_EPOCH_STRIDE = 0x4

#: budget register value meaning "no reservation limit"
BUDGET_UNLIMITED = 0xFFFF_FFFF

#: IP version reported by REG_VERSION (1.0.0)
IP_VERSION = 0x0001_0000

_WORD_MASK = 0xFFFF_FFFF


class RegisterAccessError(ReproError):
    """Illegal register access (unknown offset or write to read-only)."""


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
    """The HyperConnect's register backing store.

    Writes to writable registers invoke the registered callbacks so the
    owning HyperConnect can apply side effects (recomputing budgets,
    toggling gates).  Read-only registers can be refreshed internally via
    :meth:`poke`.
    """

    def __init__(self, n_ports: int) -> None:
        if n_ports < 1:
            raise ConfigurationError("n_ports must be >= 1")
        self.n_ports = n_ports
        self._values: Dict[int, int] = {
            REG_CTRL: 1,
            REG_PERIOD: 65536,
            REG_N_PORTS: n_ports,
            REG_VERSION: IP_VERSION,
        }
        self._read_only = {REG_N_PORTS, REG_VERSION}
        for port in range(n_ports):
            self._values[port_register(port, PORT_CTRL)] = 1
            self._values[port_register(port, PORT_NOMINAL_BURST)] = 16
            self._values[port_register(port, PORT_MAX_OUTSTANDING)] = 8
            self._values[port_register(port, PORT_BUDGET)] = BUDGET_UNLIMITED
            self._values[port_register(port, PORT_ISSUED_READ)] = 0
            self._values[port_register(port, PORT_ISSUED_WRITE)] = 0
            self._values[port_register(port, PORT_TIMEOUT)] = 0
            self._values[port_register(port, PORT_FAULTS)] = 0
            self._read_only.add(port_register(port, PORT_ISSUED_READ))
            self._read_only.add(port_register(port, PORT_ISSUED_WRITE))
            self._read_only.add(port_register(port, PORT_FAULTS))
            self._values[region_register(port, REGION_BASE_REG)] = 0
            self._values[region_register(port, REGION_PAGES_REG)] = 0
            self._values[region_epoch_register(port)] = 0
            self._read_only.add(region_epoch_register(port))
        self._write_callbacks: List[Callable[[int, int], None]] = []
        #: dynamic read providers (live hardware counters)
        self._providers: Dict[int, Callable[[], int]] = {}

    # ------------------------------------------------------------------

    def read(self, offset: int) -> int:
        """Read a register; unknown offsets raise."""
        provider = self._providers.get(offset)
        if provider is not None:
            return provider() & _WORD_MASK
        try:
            return self._values[offset]
        except KeyError:
            raise RegisterAccessError(
                f"read of unmapped register offset 0x{offset:x}") from None

    def provide(self, offset: int, provider: Callable[[], int]) -> None:
        """Back a (read-only) register with a live value provider."""
        if offset not in self._values:
            raise RegisterAccessError(
                f"provider for unmapped register offset 0x{offset:x}")
        self._providers[offset] = provider

    def write(self, offset: int, value: int) -> None:
        """Write a register; read-only or unknown offsets raise."""
        if offset not in self._values:
            raise RegisterAccessError(
                f"write to unmapped register offset 0x{offset:x}")
        if offset in self._read_only:
            raise RegisterAccessError(
                f"write to read-only register offset 0x{offset:x}")
        self._values[offset] = value & _WORD_MASK
        for callback in self._write_callbacks:
            callback(offset, value & _WORD_MASK)

    def poke(self, offset: int, value: int) -> None:
        """Internal update of any register (hardware-side counters)."""
        if offset not in self._values:
            raise RegisterAccessError(
                f"poke of unmapped register offset 0x{offset:x}")
        self._values[offset] = value & _WORD_MASK

    def on_write(self, callback: Callable[[int, int], None]) -> None:
        """Register ``callback(offset, value)`` for writable-reg writes."""
        self._write_callbacks.append(callback)

    # convenience accessors -------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Global enable bit."""
        return bool(self.read(REG_CTRL) & 1)

    @property
    def period(self) -> int:
        """Reservation period T in cycles."""
        return self.read(REG_PERIOD)


class ControlSlave(Component):
    """AXI-Lite-style slave serving the register file over a link.

    Accepts single-beat transactions only (the control interface is a
    32-bit register port); longer bursts are answered with SLVERR.
    Out-of-map addresses return DECERR, faithfully modelling what a
    misprogrammed hypervisor access would see.  The window starts at
    :data:`HYPERCONNECT_CTRL_BASE`.
    """

    def __init__(self, sim, name: str, link: AxiLink,
                 regs: RegisterFile) -> None:
        super().__init__(sim, name)
        self.link = link
        self.regs = regs
        self._pending_write: Optional[tuple] = None

    def tick(self, cycle: int) -> bool:
        # the slave acts only when a register read can be served, an AW
        # can be accepted, or a pending write can complete
        idle = True
        # reads
        if self.link.ar.can_pop() and self.link.r.can_push():
            idle = False
            request = self.link.ar.pop()
            offset = request.address - HYPERCONNECT_CTRL_BASE
            if request.length != 1:
                self.link.r.push(DataBeat(last=True, txn_id=request.txn_id,
                                          resp=Resp.SLVERR,
                                          addr_beat=request))
            else:
                try:
                    value = self.regs.read(offset)
                    self.link.r.push(DataBeat(
                        last=True, txn_id=request.txn_id,
                        data=value.to_bytes(4, "little"),
                        resp=Resp.OKAY, addr_beat=request))
                except RegisterAccessError:
                    self.link.r.push(DataBeat(last=True,
                                              txn_id=request.txn_id,
                                              resp=Resp.DECERR,
                                              addr_beat=request))
        # writes: accept AW, then consume the matching W beat
        if self._pending_write is None and self.link.aw.can_pop():
            self._pending_write = (self.link.aw.pop(),)
            idle = False
        if (self._pending_write is not None and self.link.w.can_pop()
                and self.link.b.can_push()):
            request = self._pending_write[0]
            wbeat = self.link.w.pop()
            self._pending_write = None
            offset = request.address - HYPERCONNECT_CTRL_BASE
            resp = Resp.OKAY
            if request.length != 1 or wbeat.data is None:
                resp = Resp.SLVERR
            else:
                try:
                    self.regs.write(
                        offset, int.from_bytes(wbeat.data[:4], "little"))
                except RegisterAccessError:
                    resp = Resp.DECERR
            self.link.b.push(RespBeat(txn_id=request.txn_id, resp=resp,
                                      addr_beat=request))
            idle = False
        return idle
