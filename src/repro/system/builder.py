"""System builder: assemble a complete simulated FPGA SoC in one call.

:class:`SocSystem` wires together the pieces every experiment needs — a
simulator clocked at the platform's PL frequency, an interconnect
(HyperConnect or the SmartConnect baseline), the FPGA-PS-side memory
subsystem, and optionally a functional backing store — exposing the
interconnect's slave ports for hardware accelerators to attach to.

This is the library's main entry point::

    from repro.system import SocSystem
    from repro.platforms import ZCU102

    soc = SocSystem.build(ZCU102, interconnect="hyperconnect", n_ports=2)
    dma = AxiDma(soc.sim, "dma", soc.port(0))
    ...
    soc.sim.run(100_000)
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..axi.port import AxiLink
from ..hyperconnect.driver import HyperConnectDriver
from ..hyperconnect.hyperconnect import HyperConnect
from ..memory.dram import MemorySubsystem
from ..memory.store import MemoryStore
from ..platforms.zynq import ZCU102, Platform
from ..sim.errors import ConfigurationError
from ..sim.kernel import Simulator
from ..smartconnect.smartconnect import (
    DEFAULT_MAX_GRANULARITY,
    SmartConnect,
    smartconnect_master_link,
)

Interconnect = Union[HyperConnect, SmartConnect]

#: cycles a system must stay idle before :meth:`SocSystem.run_until_quiescent`
#: calls it drained
SETTLE_CYCLES = 64


def build_fabric(sim: Simulator, kind: str, link_name: str, name: str,
                 n_ports: int, data_bytes: int, period: int = 65536,
                 max_granularity: int = DEFAULT_MAX_GRANULARITY
                 ) -> Tuple[AxiLink, Interconnect]:
    """Build one interconnect of ``kind`` and its master-side link.

    The only place that turns a fabric kind (``"hyperconnect"`` or
    ``"smartconnect"``) into components: :meth:`SocSystem.build` and
    every family of ``repro.verify``'s ``build_system`` call it.  A
    SmartConnect's master link carries the IP's output-stage latencies.
    ``period`` applies to the HyperConnect, ``max_granularity`` to the
    SmartConnect.
    """
    if kind == "hyperconnect":
        link = AxiLink(sim, link_name, data_bytes=data_bytes)
        return link, HyperConnect(sim, name, n_ports, link, period=period)
    if kind == "smartconnect":
        link = smartconnect_master_link(sim, link_name,
                                        data_bytes=data_bytes)
        return link, SmartConnect(sim, name, n_ports, link,
                                  max_granularity=max_granularity)
    raise ConfigurationError(
        f"unknown interconnect {kind!r} "
        f"(expected 'hyperconnect' or 'smartconnect')")


class SocSystem:
    """A fully wired FPGA SoC simulation.

    Build instances with :meth:`build`; the constructor is the low-level
    wiring path for callers that need custom links.
    """

    def __init__(self, sim: Simulator, platform: Platform,
                 interconnect: Interconnect, memory: MemorySubsystem,
                 store: Optional[MemoryStore]) -> None:
        self.sim = sim
        self.platform = platform
        self.interconnect = interconnect
        self.memory = memory
        self.store = store
        self.driver: Optional[HyperConnectDriver] = None
        if isinstance(interconnect, HyperConnect):
            self.driver = HyperConnectDriver(interconnect)

    # ------------------------------------------------------------------

    @classmethod
    def build(cls, platform: Platform = ZCU102,
              interconnect: str = "hyperconnect", n_ports: int = 2,
              period: int = 65536, with_store: bool = False,
              max_granularity: int = DEFAULT_MAX_GRANULARITY,
              fast: bool = True, tlm: bool = False) -> "SocSystem":
        """Assemble a system.

        Parameters
        ----------
        platform:
            Clock/width/DRAM-timing source (default ZCU102, the paper's
            reported platform).
        interconnect:
            ``"hyperconnect"`` or ``"smartconnect"``.
        n_ports:
            Number of interconnect slave ports (the paper's case study
            uses 2).
        period:
            HyperConnect reservation period T (ignored for SmartConnect).
        with_store:
            Attach a functional :class:`MemoryStore` (needed only when
            experiments verify data contents).
        max_granularity:
            The SmartConnect's variable round-robin granularity (ignored
            for HyperConnect).
        fast:
            Run the quiescence-aware fast path (the default; same
            results, fewer Python-level ticks; see ``repro.sim.kernel``).
            ``False`` runs the reference loop, the fast path's oracle.
        tlm:
            Transaction-level fast-forward mode (see ``repro.sim.tlm``):
            steady-state reservation traffic advances one epoch per
            step, demoting to cycle-accurate execution at every
            non-predictable edge.
        """
        sim = Simulator("soc", clock_hz=platform.pl_clock_hz, fast=fast,
                        tlm=tlm)
        store = MemoryStore() if with_store else None
        name = "soc.sc" if interconnect == "smartconnect" else "soc.hc"
        master, fabric = build_fabric(
            sim, interconnect, "soc.m", name, n_ports,
            platform.hp_data_bytes, period=period,
            max_granularity=max_granularity)
        memory = MemorySubsystem(sim, "soc.mem", master,
                                 timing=platform.dram, store=store)
        return cls(sim, platform, fabric, memory, store)

    # ------------------------------------------------------------------

    def port(self, index: int) -> AxiLink:
        """Slave port ``index`` of the interconnect (attach an HA here)."""
        return self.interconnect.ports[index]

    @property
    def master_link(self) -> AxiLink:
        """The interconnect's master-side link (towards the PS)."""
        return self.interconnect.master_link

    def run_until_quiescent(self, max_cycles: int = 10_000_000) -> int:
        """Run until all traffic has drained (no traffic in flight for
        :data:`SETTLE_CYCLES` cycles); returns elapsed cycles."""
        start = self.sim.now

        def _quiet() -> bool:
            return (self.sim.idle() and self.memory.idle()
                    and self.interconnect.idle())

        quiet_since = [None]

        def _done() -> bool:
            if _quiet():
                if quiet_since[0] is None:
                    quiet_since[0] = self.sim.now
                return self.sim.now - quiet_since[0] >= SETTLE_CYCLES
            quiet_since[0] = None
            return False

        self.sim.run_until(_done, max_cycles=max_cycles)
        return self.sim.now - start
