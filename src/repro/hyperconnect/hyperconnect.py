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
from ..sim.channel import Channel
from ..sim.component import Component
from ..sim.errors import ConfigurationError
from .central import CentralUnit
from .efifo import EFifoLink
from .exbar import Exbar
from .regs import MAX_PORTS, ControlSlave, RegisterFile
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

    The slave ports take their bus width and AXI version from
    ``master_link`` and their queue depths from :class:`EFifoLink`.

    Attributes
    ----------
    ports:
        Per-port :class:`EFifoLink`; hardware accelerators drive these.
    regs:
        The memory-mapped :class:`RegisterFile`, decoding the register map
        onto ``configs``, the port gates and ``central`` — normally
        accessed through
        :class:`repro.hyperconnect.driver.HyperConnectDriver`.
    """

    def __init__(self, sim, name: str, n_ports: int, master_link: AxiLink,
                 period: int = 65536) -> None:
        if n_ports < 1:
            raise ConfigurationError("HyperConnect needs >= 1 port")
        if n_ports > MAX_PORTS:
            raise ConfigurationError(
                f"HyperConnect has at most {MAX_PORTS} ports (the size of "
                f"its per-port register aperture), got {n_ports}")
        self.sim = sim
        self.name = name
        self.n_ports = n_ports
        self.master_link = master_link
        self.ports: List[EFifoLink] = [
            EFifoLink(sim, f"{name}.p{i}",
                      data_bytes=master_link.data_bytes,
                      version=master_link.version)
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
        self.regs = RegisterFile(sim, self.central, self.configs, self.ports,
                                 self.supervisors, n_ports)
        self.control_slave: Optional[ControlSlave] = None

    # ------------------------------------------------------------------

    def attach_control_interface(self, link: AxiLink) -> ControlSlave:
        """Expose the register file as an AXI slave on ``link``.

        In a deployment this link hangs off the PS-FPGA interface and is
        mapped into the hypervisor's address space only, at
        :data:`~repro.hyperconnect.regs.HYPERCONNECT_CTRL_BASE`.
        """
        self.control_slave = ControlSlave(
            self.sim, f"{self.name}.ctrl", link, self.regs)
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
