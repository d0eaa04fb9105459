"""Behavioural model of the Xilinx AXI SmartConnect (the baseline).

The SmartConnect is closed-source, so — like the paper's authors — we can
only characterize it by its externally observable behaviour:

* **measured propagation latencies** (paper Fig. 3a, ZCU102, default
  Vivado auto-tuned configuration): AR/AW 12 cycles, R 11 cycles, W 3
  cycles, B 2 cycles.  Modelled as pipeline depths of the input-side and
  master-side channel stages.
* **round-robin arbitration, ignoring the AxQOS signals** (PG247 pp. 6
  and 8) with a **variable grant granularity**: the paper found
  experimentally that SmartConnect can keep granting the same master for
  up to ``g`` back-to-back transactions before rotating, which inflates
  the worst-case interference per transaction to ``g * (N - 1)``.
* **no burst equalization and no bandwidth reservation**: bursts are
  forwarded unmodified, so masters issuing longer bursts receive a
  proportionally larger share of the data bus ([11]'s unfairness result).
* full streaming throughput: one beat per channel per cycle — the paper
  measures identical throughput for SmartConnect and HyperConnect on
  large transfers.

The model exposes the same structural interface as
:class:`~repro.hyperconnect.hyperconnect.HyperConnect` (``ports`` list +
``master_link``), so experiments can swap interconnects freely.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..axi.payloads import AddrBeat
from ..axi.port import AxiLink
from ..axi.types import AxiVersion
from ..sim.component import Component
from ..sim.errors import ConfigurationError

#: Input-side pipeline depth per channel (HA -> arbitration core).
INPUT_STAGE_LATENCY = {"AR": 6, "AW": 6, "W": 1, "R": 5, "B": 1}
#: Master-side pipeline depth per channel (arbitration core -> PS).
#: Totals match the paper's measured Fig. 3(a) latencies:
#: AR/AW = 12, R = 11, W = 3, B = 2 cycles.
OUTPUT_STAGE_LATENCY = {"AR": 6, "AW": 6, "W": 2, "R": 6, "B": 1}

#: Default maximum round-robin granularity (transactions granted
#: back-to-back to one master before rotating).  Vivado auto-tunes the
#: real IP; 8 reflects the order of magnitude observed in [3].
DEFAULT_MAX_GRANULARITY = 8


class SmartConnect(Component):
    """N-slave-port, single-master-port SmartConnect model.

    Parameters
    ----------
    n_ports:
        Number of slave ports.
    master_link:
        Link towards the FPGA-PS interface.  Construct it with
        :func:`smartconnect_master_link` so the output-stage latencies are
        applied (a plain unit-latency link underestimates the latency the
        paper measured).
    max_granularity:
        The variable round-robin granularity bound ``g``.

    Like the real IP, the model has no transaction watchdog: a master
    that hangs mid-transaction stalls every port routed behind it.
    """

    def __init__(self, sim, name: str, n_ports: int, master_link: AxiLink,
                 max_granularity: int = DEFAULT_MAX_GRANULARITY,
                 data_bytes: Optional[int] = None,
                 version: Optional[AxiVersion] = None,
                 addr_depth: int = 8, data_depth: int = 64) -> None:
        super().__init__(sim, name)
        if n_ports < 1:
            raise ConfigurationError("SmartConnect needs >= 1 port")
        if max_granularity < 1:
            raise ConfigurationError("max_granularity must be >= 1")
        self.n_ports = n_ports
        self.master_link = master_link
        self.max_granularity = max_granularity
        data_bytes = (master_link.data_bytes if data_bytes is None
                      else data_bytes)
        version = master_link.version if version is None else version
        self.ports: List[AxiLink] = [
            AxiLink(sim, f"{name}.p{i}", data_bytes=data_bytes,
                    version=version, latency=dict(INPUT_STAGE_LATENCY),
                    addr_depth=addr_depth, data_depth=data_depth)
            for i in range(n_ports)
        ]
        self._rr_ar = 0
        self._rr_aw = 0
        self._hold_ar: Optional[int] = None
        self._hold_aw: Optional[int] = None
        self._streak_ar = 0
        self._streak_aw = 0
        # [port, beats left] per granted burst, in grant order
        self._route_r: Deque[list] = deque()
        self._route_w: Deque[list] = deque()
        self._route_b: Deque[int] = deque()
        self.grants_ar = 0
        self.grants_aw = 0

    # ------------------------------------------------------------------
    # variable-granularity round-robin
    # ------------------------------------------------------------------

    def _pick(self, channels: List, pointer: int, holder: Optional[int],
              streak: int) -> tuple:
        """Choose the port to grant next; returns (port, holder, streak).

        While the held port keeps presenting back-to-back requests and its
        streak is below ``max_granularity``, it retains the grant — the
        behaviour that penalizes SmartConnect's worst case.
        """
        if (holder is not None and streak < self.max_granularity
                and channels[holder].can_pop()):
            return holder, holder, streak + 1
        for offset in range(self.n_ports):
            port = (pointer + offset) % self.n_ports
            if channels[port].can_pop():
                return port, port, 1
        return None, None, 0

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        idle = True
        # AR arbitration: at most one grant per cycle.  An attempt that
        # finds no requester still drops a held grant (``_pick`` returns
        # ``(None, None, 0)``), which is a state change too.
        if self.master_link.ar.can_push():
            ar_channels = [link.ar for link in self.ports]
            held = self._hold_ar
            port, self._hold_ar, self._streak_ar = self._pick(
                ar_channels, self._rr_ar, held, self._streak_ar)
            if port is not None or held is not None:
                idle = False
            if port is not None:
                beat: AddrBeat = ar_channels[port].pop()
                beat.port = port
                beat.stamps["sc_grant"] = cycle
                self.master_link.ar.push(beat)
                self.grants_ar += 1
                self._rr_ar = (port + 1) % self.n_ports
                self._route_r.append([port, beat.length])
        # AW arbitration
        if self.master_link.aw.can_push():
            aw_channels = [link.aw for link in self.ports]
            held = self._hold_aw
            port, self._hold_aw, self._streak_aw = self._pick(
                aw_channels, self._rr_aw, held, self._streak_aw)
            if port is not None or held is not None:
                idle = False
            if port is not None:
                beat = aw_channels[port].pop()
                beat.port = port
                beat.stamps["sc_grant"] = cycle
                self.master_link.aw.push(beat)
                self.grants_aw += 1
                self._rr_aw = (port + 1) % self.n_ports
                self._route_w.append([port, beat.length])
                self._route_b.append(port)
        idle &= self._route_write_data()
        idle &= self._route_read_data()
        idle &= self._route_write_responses()
        return idle

    # ------------------------------------------------------------------
    # data-path routing (no equalization: bursts pass through unmodified)
    # ------------------------------------------------------------------

    # each router returns ``True`` when no beat moved

    def _route_write_data(self) -> bool:
        if not self._route_w or not self.master_link.w.can_push():
            return True
        entry = self._route_w[0]
        source = self.ports[entry[0]].w
        if not source.can_pop():
            return True
        self.master_link.w.push(source.pop())
        entry[1] -= 1
        if entry[1] == 0:
            self._route_w.popleft()
        return False

    def _route_read_data(self) -> bool:
        if not self.master_link.r.can_pop() or not self._route_r:
            return True
        entry = self._route_r[0]
        destination = self.ports[entry[0]].r
        if not destination.can_push():
            return True
        destination.push(self.master_link.r.pop())
        entry[1] -= 1
        if entry[1] == 0:
            self._route_r.popleft()
        return False

    def _route_write_responses(self) -> bool:
        if not self.master_link.b.can_pop() or not self._route_b:
            return True
        destination = self.ports[self._route_b[0]].b
        if not destination.can_push():
            return True
        destination.push(self.master_link.b.pop())
        self._route_b.popleft()
        return False

    # ------------------------------------------------------------------

    def port(self, index: int) -> AxiLink:
        """The slave link HAs connect to (HyperConnect-compatible API)."""
        return self.ports[index]

    def idle(self) -> bool:
        """True when nothing is queued inside the interconnect."""
        return (all(link.is_idle() for link in self.ports)
                and not self._route_r and not self._route_w
                and not self._route_b)


def smartconnect_master_link(sim, name: str, data_bytes: int = 16,
                             version: AxiVersion = AxiVersion.AXI4,
                             addr_depth: int = 16,
                             data_depth: int = 64) -> AxiLink:
    """Master-side link with the SmartConnect output-stage latencies."""
    return AxiLink(sim, name, data_bytes=data_bytes, version=version,
                   latency=dict(OUTPUT_STAGE_LATENCY),
                   addr_depth=addr_depth, data_depth=data_depth)
