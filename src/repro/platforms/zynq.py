"""Platform descriptions of the two evaluation boards.

The paper implements the HyperConnect on a Xilinx Zynq-7000 (Z-7020) and a
Zynq UltraScale+ (ZCU102), reporting detailed results for the latter.
These records collect the per-platform parameters the simulation models
need: PL clock, FPGA-PS port width, memory-subsystem timing, and the
programmable-logic resource totals used as denominators in Table I.

DRAM latency calibration: the ZCU102 read latency (37 PL cycles from
command to first data beat through the FPGA-PS port and DDR4 controller)
is the value at which the model reproduces the paper's Fig. 3(b)
improvement ratios (~28 % single-word, ~25 % 16-beat) given the measured
interconnect latencies; it is consistent with published Zynq US+ HP-port
read-latency measurements (100-250 ns).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.dram import DramTiming


@dataclass(frozen=True)
class ResourceBudget:
    """Programmable-logic resource totals of a device."""

    lut: int
    ff: int
    bram: int
    dsp: int


@dataclass(frozen=True)
class Platform:
    """Static description of one FPGA SoC evaluation platform."""

    name: str
    family: str
    pl_clock_hz: float
    #: data width of the FPGA-PS high-performance slave ports, bytes
    hp_data_bytes: int
    dram: DramTiming
    resources: ResourceBudget

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert PL cycles to seconds."""
        return cycles / self.pl_clock_hz


#: Xilinx Zynq-7000 SoC, XC7Z020 (e.g. ZedBoard / Pynq-Z1 class device).
ZYNQ_7020 = Platform(
    name="Zynq-7020",
    family="Zynq-7000",
    pl_clock_hz=100e6,
    hp_data_bytes=8,
    dram=DramTiming(read_latency=30, write_latency=10, resp_latency=4),
    resources=ResourceBudget(lut=53_200, ff=106_400, bram=140, dsp=220),
)

#: Xilinx Zynq UltraScale+ ZCU102 (XCZU9EG) — the platform of Table I and
#: all reported figures.
ZCU102 = Platform(
    name="ZCU102",
    family="Zynq-UltraScale+",
    pl_clock_hz=150e6,
    hp_data_bytes=16,
    dram=DramTiming(read_latency=37, write_latency=12, resp_latency=4),
    resources=ResourceBudget(lut=274_080, ff=548_160, bram=912, dsp=2_520),
)

PLATFORMS = {platform.name: platform for platform in (ZYNQ_7020, ZCU102)}
