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

from typing import Optional, Union

from ..axi.port import AxiLink
from ..hyperconnect.driver import HyperConnectDriver
from ..hyperconnect.hyperconnect import HyperConnect
from ..memory.dram import MemorySubsystem
from ..memory.store import MemoryStore
from ..platforms.zynq import ZCU102, Platform
from ..sim.errors import ConfigurationError
from ..sim.kernel import Simulator
from ..smartconnect.smartconnect import (
    SmartConnect,
    smartconnect_master_link,
)

Interconnect = Union[HyperConnect, SmartConnect]


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
              max_granularity: Optional[int] = None,
              name: str = "soc", fast: bool = False,
              tlm: bool = False) -> "SocSystem":
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
            Override the SmartConnect's variable round-robin granularity.
        fast:
            Enable the simulator's quiescence-aware fast path (same
            results, fewer Python-level ticks; see ``repro.sim.kernel``).
        tlm:
            Transaction-level fast-forward mode (see ``repro.sim.tlm``):
            steady-state reservation traffic advances one epoch per
            step, demoting to cycle-accurate execution at every
            non-predictable edge.
        """
        sim = Simulator(name, clock_hz=platform.pl_clock_hz, fast=fast,
                        tlm=tlm)
        store = MemoryStore() if with_store else None
        if interconnect == "hyperconnect":
            master = AxiLink(sim, f"{name}.m",
                             data_bytes=platform.hp_data_bytes)
            fabric: Interconnect = HyperConnect(
                sim, f"{name}.hc", n_ports, master, period=period)
        elif interconnect == "smartconnect":
            master = smartconnect_master_link(
                sim, f"{name}.m", data_bytes=platform.hp_data_bytes)
            kwargs = {}
            if max_granularity is not None:
                kwargs["max_granularity"] = max_granularity
            fabric = SmartConnect(sim, f"{name}.sc", n_ports, master,
                                  **kwargs)
        else:
            raise ConfigurationError(
                f"unknown interconnect {interconnect!r} "
                f"(expected 'hyperconnect' or 'smartconnect')")
        memory = MemorySubsystem(sim, f"{name}.mem", master,
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

    def run_until_quiescent(self, settle_cycles: int = 64,
                            max_cycles: int = 10_000_000) -> int:
        """Run until all traffic has drained; returns elapsed cycles."""
        start = self.sim.now

        def _quiet() -> bool:
            return (self.sim.idle() and self.memory.idle()
                    and self.interconnect.idle())

        quiet_since = [None]

        def _done() -> bool:
            if _quiet():
                if quiet_since[0] is None:
                    quiet_since[0] = self.sim.now
                return self.sim.now - quiet_since[0] >= settle_cycles
            quiet_since[0] = None
            return False

        self.sim.run_until(_done, max_cycles=max_cycles)
        return self.sim.now - start
