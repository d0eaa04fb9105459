"""Assembly of the full AXI HyperConnect IP.

Pipeline structure (Fig. 2 of the paper) and the latency each stage adds
to address requests::

    HA --> [eFIFO slave]  --> [TS] --> [EXBAR] --> [eFIFO master] --> PS
              1 cycle        1 cycle    1 cycle        1 cycle

giving the measured d_AR = d_AW = 4 cycles.  The R/W/B channels traverse
only the two eFIFO boundaries (the TS and EXBAR route them proactively),
giving d_R = d_W = d_B = 2 cycles.

In this model each "1 cycle" is one registered :class:`~repro.sim.Channel`:
the HA-side :class:`~repro.hyperconnect.efifo.EFifoLink` queues (slave
eFIFO), the TS output channels, the EXBAR output channels, and the
master-side link channels (master eFIFO).  The data channels of the master
eFIFO are the master link's queues themselves; the EXBAR moves data beats
directly between them and the per-port eFIFO queues, so no extra cycles
appear on R/W/B — matching the paper's proactive design.
"""

from __future__ import annotations

from typing import List, Optional

from ..axi.port import AxiLink
from ..axi.types import AxiVersion
from ..sim.channel import Channel
from ..sim.component import Component
from ..sim.errors import ConfigurationError
from .central import CentralUnit
from .efifo import EFifoLink
from .exbar import Exbar
from .regs import (
    BUDGET_UNLIMITED,
    PORT_BASE,
    PORT_BUDGET,
    PORT_CTRL,
    PORT_FAULTS,
    PORT_ISSUED_READ,
    PORT_ISSUED_WRITE,
    PORT_MAX_OUTSTANDING,
    PORT_NOMINAL_BURST,
    PORT_STRIDE,
    PORT_TIMEOUT,
    REG_CTRL,
    REG_PERIOD,
    REGION_BASE_OFFSET,
    REGION_BASE_REG,
    REGION_GRANULE,
    REGION_PAGES_REG,
    REGION_STRIDE,
    ControlSlave,
    RegisterFile,
    port_register,
)
from .supervisor import PortConfig, TransactionSupervisor


class MasterEFifo(Component):
    """Address side of the master eFIFO: one registered forwarding stage."""

    def __init__(self, sim, name: str, in_ar: Channel, in_aw: Channel,
                 master_link: AxiLink) -> None:
        super().__init__(sim, name)
        self.in_ar = in_ar
        self.in_aw = in_aw
        self.master_link = master_link

    def tick(self, cycle: int) -> bool:
        # channel guards inlined: the forwarder runs every cycle of every
        # bandwidth experiment.  Stateless: idle unless a beat moved.
        idle = True
        in_ar = self.in_ar
        queue = in_ar._queue
        if queue and queue[0][0] <= cycle:
            out = self.master_link.ar
            if out.capacity is None or out._occupancy < out.capacity:
                out.push(in_ar.pop())
                idle = False
        in_aw = self.in_aw
        queue = in_aw._queue
        if queue and queue[0][0] <= cycle:
            out = self.master_link.aw
            if out.capacity is None or out._occupancy < out.capacity:
                out.push(in_aw.pop())
                idle = False
        return idle


class HyperConnect:
    """The AXI HyperConnect: N slave ports, one master port.

    Parameters
    ----------
    sim, name:
        Simulation bookkeeping.
    n_ports:
        Number of input (slave) ports, one per hardware accelerator.
    master_link:
        The :class:`~repro.axi.port.AxiLink` connecting the HyperConnect's
        master port to the FPGA-PS interface / memory subsystem.  Its
        channels play the role of the master eFIFO's queues.
    period:
        Initial reservation period T (cycles).
    data_bytes / version:
        Bus parameters of the slave ports (must match the master link).

    Attributes
    ----------
    ports:
        Per-port :class:`EFifoLink`; hardware accelerators drive these.
    regs:
        The memory-mapped :class:`RegisterFile` — normally accessed
        through :class:`repro.hyperconnect.driver.HyperConnectDriver`.
    """

    def __init__(self, sim, name: str, n_ports: int, master_link: AxiLink,
                 period: int = 65536,
                 data_bytes: Optional[int] = None,
                 version: Optional[AxiVersion] = None,
                 addr_depth: int = 4, data_depth: int = 32) -> None:
        if n_ports < 1:
            raise ConfigurationError("HyperConnect needs >= 1 port")
        self.sim = sim
        self.name = name
        self.n_ports = n_ports
        self.master_link = master_link
        data_bytes = (master_link.data_bytes if data_bytes is None
                      else data_bytes)
        version = master_link.version if version is None else version
        if data_bytes != master_link.data_bytes:
            raise ConfigurationError(
                "slave-port width must match the master link")

        self.ports: List[EFifoLink] = [
            EFifoLink(sim, f"{name}.p{i}", data_bytes=data_bytes,
                      version=version, addr_depth=addr_depth,
                      data_depth=data_depth)
            for i in range(n_ports)
        ]
        self.configs: List[PortConfig] = [PortConfig()
                                          for _ in range(n_ports)]
        # registered stages: TS outputs and EXBAR outputs (capacity 2 keeps
        # full throughput through a latency-1 stage)
        self._ts_ar = [Channel(sim, f"{name}.ts{i}.AR", 1, 2)
                       for i in range(n_ports)]
        self._ts_aw = [Channel(sim, f"{name}.ts{i}.AW", 1, 2)
                       for i in range(n_ports)]
        self._xbar_ar = Channel(sim, f"{name}.xbar.AR", 1, 2)
        self._xbar_aw = Channel(sim, f"{name}.xbar.AW", 1, 2)

        self.supervisors: List[TransactionSupervisor] = [
            TransactionSupervisor(sim, f"{name}.TS{i}", i, self.ports[i],
                                  self._ts_ar[i], self._ts_aw[i],
                                  self.configs[i])
            for i in range(n_ports)
        ]
        self.exbar = Exbar(sim, f"{name}.EXBAR", self.supervisors,
                           self._ts_ar, self._ts_aw, self.ports,
                           self._xbar_ar, self._xbar_aw, master_link)
        self.master_efifo = MasterEFifo(sim, f"{name}.mEFIFO",
                                        self._xbar_ar, self._xbar_aw,
                                        master_link)
        self.central = CentralUnit(sim, f"{name}.central",
                                   self.supervisors, period=period)
        self.regs = RegisterFile(n_ports)
        self.regs.poke(REG_PERIOD, period)
        self.regs.on_write(self._apply_register)
        for i in range(n_ports):
            self.regs.provide(
                port_register(i, PORT_ISSUED_READ),
                (lambda cfg=self.configs[i]: cfg.issued_read))
            self.regs.provide(
                port_register(i, PORT_ISSUED_WRITE),
                (lambda cfg=self.configs[i]: cfg.issued_write))
            # live gate state: a hardware-initiated decouple (watchdog
            # containment) must be visible through PORT_CTRL reads
            self.regs.provide(
                port_register(i, PORT_CTRL),
                (lambda link=self.ports[i]: 1 if link.coupled else 0))
            self.regs.provide(
                port_register(i, PORT_FAULTS),
                (lambda ts=self.supervisors[i]: ts.fault_stats.trips))
        self.control_slave: Optional[ControlSlave] = None

    # ------------------------------------------------------------------
    # register side effects (runtime reconfiguration)
    # ------------------------------------------------------------------

    def _apply_register(self, offset: int, value: int) -> None:
        # every register side effect may change some component's
        # quiescence, so drop any cached bulk-skip horizon
        self.sim.wake()
        if offset == REG_CTRL:
            self.central.enabled = bool(value & 1)
            return
        if offset == REG_PERIOD:
            self.central.period = max(1, value)
            return
        if offset < PORT_BASE:
            return
        if offset >= REGION_BASE_OFFSET:
            port, field_offset = divmod(
                offset - REGION_BASE_OFFSET, REGION_STRIDE)
            if port >= self.n_ports:
                return
            config = self.configs[port]
            if field_offset == REGION_BASE_REG:
                config.region_base = value * REGION_GRANULE
            elif field_offset == REGION_PAGES_REG:
                config.region_bytes = value * REGION_GRANULE
            return
        port, field_offset = divmod(offset - PORT_BASE, PORT_STRIDE)
        if port >= self.n_ports:
            return
        config = self.configs[port]
        if field_offset == PORT_CTRL:
            if value & 1:
                self.ports[port].couple()
            else:
                self.ports[port].decouple()
        elif field_offset == PORT_NOMINAL_BURST:
            config.nominal_burst = max(1, value)
        elif field_offset == PORT_MAX_OUTSTANDING:
            config.max_outstanding = max(1, value)
        elif field_offset == PORT_BUDGET:
            config.budget = (None if value == BUDGET_UNLIMITED
                             else value)
            # a newly imposed budget takes effect at the next synchronous
            # recharge; an *unlimited* setting applies immediately
            if config.budget is None:
                self.supervisors[port].budget_remaining = None
        elif field_offset == PORT_TIMEOUT:
            # 0 disarms the watchdog; pending deadlines re-time from the
            # stored issue cycles on the very next poll
            config.timeout_cycles = None if value == 0 else value

    # ------------------------------------------------------------------

    def attach_control_interface(self, link: AxiLink,
                                 base_address: int = 0xA000_0000
                                 ) -> ControlSlave:
        """Expose the register file as an AXI slave on ``link``.

        In a deployment this link hangs off the PS-FPGA interface and is
        mapped into the hypervisor's address space only.
        """
        self.control_slave = ControlSlave(
            self.sim, f"{self.name}.ctrl", link, self.regs, base_address)
        return self.control_slave

    # convenience views ----------------------------------------------------

    def port(self, index: int) -> EFifoLink:
        """The slave link HAs connect to."""
        return self.ports[index]

    @property
    def total_grants(self) -> int:
        """Address grants performed by the EXBAR since reset."""
        return self.exbar.grants_ar + self.exbar.grants_aw

    def idle(self) -> bool:
        """True when no beat is in flight anywhere inside the IP."""
        internal = [*self._ts_ar, *self._ts_aw, self._xbar_ar,
                    self._xbar_aw]
        return (all(ch.is_idle for ch in internal)
                and all(link.is_idle() for link in self.ports)
                and self.exbar.routing_backlog == 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HyperConnect({self.name!r}, n_ports={self.n_ports})"
