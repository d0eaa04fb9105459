"""The integration phase (Section IV).

Applications deliver their accelerators as IP-XACT packages; the *system
integrator* embeds them into an FPGA design: each HA master port connects
to a HyperConnect slave port, the HyperConnect master port to the FPGA-PS
interface, every HA control slave to the PS-FPGA interface.  Synthesis
produces a *bitstream*, which only the boot loader / hypervisor may
program — applications are denied FPGA configuration.

This module models that flow: :class:`SystemIntegrator` collects packaged
accelerators, validates them, and emits an :class:`FpgaDesign` (the
bitstream stand-in) that the hypervisor can later boot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Tuple

from ..ipxact.component import IpxactComponent, hyperconnect_component
from ..platforms.zynq import Platform
from ..sim.errors import ConfigurationError


@dataclass(frozen=True)
class PlacedAccelerator:
    """One accelerator placed in the design."""

    component: IpxactComponent
    domain: str
    port: int
    irq: int


@dataclass
class FpgaDesign:
    """The synthesized design: our stand-in for a bitstream file.

    ``signature`` plays the role of the bitstream's integrity hash: the
    hypervisor refuses to boot a design whose signature does not verify.
    """

    platform: str
    interconnect: IpxactComponent
    accelerators: List[PlacedAccelerator] = field(default_factory=list)
    signature: str = ""

    @property
    def n_ports(self) -> int:
        """HyperConnect slave ports in the design."""
        return int(self.interconnect.parameters["N_PORTS"])

    def compute_signature(self) -> str:
        """Deterministic digest over the design contents."""
        digest = hashlib.sha256()
        digest.update(self.platform.encode())
        digest.update(str(self.interconnect.vlnv).encode())
        for placed in self.accelerators:
            digest.update(str(placed.component.vlnv).encode())
            digest.update(f"{placed.domain}:{placed.port}:{placed.irq}"
                          .encode())
        return digest.hexdigest()

    def seal(self) -> "FpgaDesign":
        """Finalize ('synthesize') the design: freeze its signature."""
        self.signature = self.compute_signature()
        return self

    def verify(self) -> bool:
        """True if the sealed signature matches the contents."""
        return bool(self.signature) and (
            self.signature == self.compute_signature())


class SystemIntegrator:
    """Builds an :class:`FpgaDesign` from packaged accelerators."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._pending: List[Tuple[IpxactComponent, str]] = []

    def add_accelerator(self, component: IpxactComponent,
                        domain: str) -> None:
        """Queue one HA package for integration.

        Validates the standard interface of Section II: exactly one AXI
        master port (data) and at least one AXI-Lite slave (control), with
        a data width compatible with the platform's FPGA-PS port.
        """
        masters = component.masters()
        if len(masters) != 1:
            raise ConfigurationError(
                f"{component.vlnv}: expected exactly 1 AXI master "
                f"interface, found {len(masters)}")
        if not component.slaves():
            raise ConfigurationError(
                f"{component.vlnv}: missing the AXI control slave "
                f"interface")
        hp_bits = self.platform.hp_data_bytes * 8
        if masters[0].data_width_bits > hp_bits:
            raise ConfigurationError(
                f"{component.vlnv}: master width "
                f"{masters[0].data_width_bits} exceeds the platform port "
                f"width {hp_bits}")
        self._pending.append((component, domain))

    def integrate(self) -> FpgaDesign:
        """Run the integration: assign ports/IRQs and 'synthesize'."""
        if not self._pending:
            raise ConfigurationError("no accelerators to integrate")
        n_ports = len(self._pending)
        interconnect = hyperconnect_component(
            n_ports, data_width_bits=self.platform.hp_data_bytes * 8)
        design = FpgaDesign(platform=self.platform.name,
                            interconnect=interconnect)
        for port, (component, domain) in enumerate(self._pending):
            design.accelerators.append(PlacedAccelerator(
                component=component, domain=domain, port=port, irq=port))
        return design.seal()
