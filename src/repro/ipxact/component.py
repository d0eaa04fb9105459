"""Minimal IP-XACT (IEEE 1685) component descriptions.

The paper exports the HyperConnect "following the IP-XACT standard, which
makes it compatible with several other commercial platforms" and assumes
HAs are delivered to the system integrator as IP-XACT packages.  This
module implements the subset the integration flow needs: the component
VLNV (vendor / library / name / version), its AXI bus interfaces, its
configuration parameters, and the XML export.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List

from ..sim.errors import ConfigurationError

#: namespace used for exported documents (IP-XACT 2014 flavour)
IPXACT_NS = "http://www.accellera.org/XMLSchema/IPXACT/1685-2014"


@dataclass(frozen=True)
class Vlnv:
    """Vendor-Library-Name-Version identifier of an IP."""

    vendor: str
    library: str
    name: str
    version: str

    def __str__(self) -> str:
        return f"{self.vendor}:{self.library}:{self.name}:{self.version}"


@dataclass(frozen=True)
class BusInterface:
    """One AXI bus interface of a component."""

    name: str
    mode: str                 # "master" or "slave"
    protocol: str = "AXI4"    # AXI3 / AXI4 / AXI4-Lite
    data_width_bits: int = 128

    def __post_init__(self) -> None:
        if self.mode not in ("master", "slave"):
            raise ConfigurationError(
                f"bus interface mode must be master/slave, got {self.mode!r}")
        if self.protocol not in ("AXI3", "AXI4", "AXI4-Lite"):
            raise ConfigurationError(
                f"unsupported protocol {self.protocol!r}")


@dataclass
class IpxactComponent:
    """A packaged IP as the system integrator receives it."""

    vlnv: Vlnv
    interfaces: List[BusInterface] = field(default_factory=list)
    parameters: Dict[str, str] = field(default_factory=dict)
    description: str = ""

    # ------------------------------------------------------------------

    def interface(self, name: str) -> BusInterface:
        """Look up an interface by name."""
        for item in self.interfaces:
            if item.name == name:
                return item
        raise ConfigurationError(
            f"{self.vlnv}: no bus interface named {name!r}")

    def masters(self) -> List[BusInterface]:
        """The component's AXI master interfaces."""
        return [i for i in self.interfaces if i.mode == "master"]

    def slaves(self) -> List[BusInterface]:
        """The component's AXI slave interfaces."""
        return [i for i in self.interfaces if i.mode == "slave"]

    # ------------------------------------------------------------------
    # XML export
    # ------------------------------------------------------------------

    def to_xml(self) -> str:
        """Serialize to an IP-XACT component document."""
        root = ET.Element("{%s}component" % IPXACT_NS)
        for tag, value in (("vendor", self.vlnv.vendor),
                           ("library", self.vlnv.library),
                           ("name", self.vlnv.name),
                           ("version", self.vlnv.version)):
            ET.SubElement(root, "{%s}%s" % (IPXACT_NS, tag)).text = value
        if self.description:
            ET.SubElement(root,
                          "{%s}description" % IPXACT_NS
                          ).text = self.description
        bus_parent = ET.SubElement(root, "{%s}busInterfaces" % IPXACT_NS)
        for interface in self.interfaces:
            node = ET.SubElement(bus_parent,
                                 "{%s}busInterface" % IPXACT_NS)
            ET.SubElement(node, "{%s}name" % IPXACT_NS).text = interface.name
            ET.SubElement(node, "{%s}%s" % (IPXACT_NS, interface.mode))
            bt = ET.SubElement(node, "{%s}busType" % IPXACT_NS)
            bt.set("name", interface.protocol)
            width = ET.SubElement(node, "{%s}bitsInLau" % IPXACT_NS)
            width.text = str(interface.data_width_bits)
        params = ET.SubElement(root, "{%s}parameters" % IPXACT_NS)
        for key in sorted(self.parameters):
            node = ET.SubElement(params, "{%s}parameter" % IPXACT_NS)
            ET.SubElement(node, "{%s}name" % IPXACT_NS).text = key
            ET.SubElement(node,
                          "{%s}value" % IPXACT_NS).text = self.parameters[key]
        return ET.tostring(root, encoding="unicode")


# ----------------------------------------------------------------------
# factories for the IPs of the considered framework
# ----------------------------------------------------------------------

def hyperconnect_component(n_ports: int,
                           data_width_bits: int = 128) -> IpxactComponent:
    """IP-XACT description of an N-port AXI HyperConnect."""
    interfaces = [
        BusInterface(f"S{index:02d}_AXI", "slave",
                     data_width_bits=data_width_bits)
        for index in range(n_ports)
    ]
    interfaces.append(BusInterface("M00_AXI", "master",
                                   data_width_bits=data_width_bits))
    interfaces.append(BusInterface("S_AXI_CTRL", "slave",
                                   protocol="AXI4-Lite",
                                   data_width_bits=32))
    return IpxactComponent(
        vlnv=Vlnv("retis", "interconnect", "axi_hyperconnect", "1.0"),
        interfaces=interfaces,
        parameters={"N_PORTS": str(n_ports),
                    "DATA_WIDTH": str(data_width_bits)},
        description="Predictable hypervisor-level AXI interconnect",
    )


def accelerator_component(name: str, vendor: str = "vendor",
                          data_width_bits: int = 128) -> IpxactComponent:
    """IP-XACT description of a standard HA (master + control slave)."""
    return IpxactComponent(
        vlnv=Vlnv(vendor, "accelerators", name, "1.0"),
        interfaces=[
            BusInterface("M_AXI", "master",
                         data_width_bits=data_width_bits),
            BusInterface("S_AXI_CTRL", "slave", protocol="AXI4-Lite",
                         data_width_bits=32),
        ],
        description=f"hardware accelerator {name}",
    )
