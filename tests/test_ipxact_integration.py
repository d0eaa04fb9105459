"""Unit tests for IP-XACT packaging and the integration flow."""

import xml.etree.ElementTree as ET

import pytest

from repro.hypervisor import SystemIntegrator
from repro.ipxact import (
    BusInterface,
    IpxactComponent,
    Vlnv,
    accelerator_component,
    hyperconnect_component,
    write_component,
)
from repro.ipxact.component import IPXACT_NS
from repro.platforms import ZCU102, ZYNQ_7020
from repro.sim import ConfigurationError


class TestComponentModel:
    def test_vlnv_str(self):
        vlnv = Vlnv("retis", "ic", "hyperconnect", "1.0")
        assert str(vlnv) == "retis:ic:hyperconnect:1.0"

    def test_interface_validation(self):
        with pytest.raises(ConfigurationError):
            BusInterface("m", "bidirectional")
        with pytest.raises(ConfigurationError):
            BusInterface("m", "master", protocol="PCIe")

    def test_masters_and_slaves_views(self):
        component = hyperconnect_component(3)
        assert len(component.slaves()) == 4   # 3 data + 1 control
        assert len(component.masters()) == 1

    def test_hyperconnect_factory_parameters(self):
        component = hyperconnect_component(4, data_width_bits=64)
        assert component.parameters["N_PORTS"] == "4"
        assert component.parameters["DATA_WIDTH"] == "64"


def parse(text):
    """Read a :meth:`IpxactComponent.to_xml` document back into a
    component with the standard library parser."""
    ns = {"ipxact": IPXACT_NS}
    root = ET.fromstring(text)

    def field(parent, tag):
        return parent.find(f"ipxact:{tag}", ns).text

    interfaces = [
        BusInterface(
            name=field(node, "name"),
            mode=("master" if node.find("ipxact:master", ns) is not None
                  else "slave"),
            protocol=node.find("ipxact:busType", ns).get("name"),
            data_width_bits=int(field(node, "bitsInLau")))
        for node in root.findall(
            "ipxact:busInterfaces/ipxact:busInterface", ns)]
    parameters = {
        field(node, "name"): field(node, "value")
        for node in root.findall("ipxact:parameters/ipxact:parameter", ns)}
    description = root.find("ipxact:description", ns)
    return IpxactComponent(
        vlnv=Vlnv(*(field(root, tag) for tag in ("vendor", "library",
                                                 "name", "version"))),
        interfaces=interfaces, parameters=parameters,
        description=description.text if description is not None else "")


class TestXmlRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = hyperconnect_component(2)
        parsed = parse(original.to_xml())
        assert parsed.vlnv == original.vlnv
        assert parsed.parameters == original.parameters
        assert len(parsed.interfaces) == len(original.interfaces)
        for left, right in zip(parsed.interfaces, original.interfaces):
            assert left == right

    def test_description_preserved(self):
        original = accelerator_component("edge-detect")
        parsed = parse(original.to_xml())
        assert parsed.description == original.description

    def test_file_round_trip(self, tmp_path):
        original = accelerator_component("dnn")
        path = write_component(original, tmp_path / "dnn.xml")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        assert parse(text) == original


class TestIntegrationFlow:
    def test_integrate_assigns_sequential_ports(self):
        integrator = SystemIntegrator(ZCU102)
        integrator.add_accelerator(accelerator_component("a"), "d0")
        integrator.add_accelerator(accelerator_component("b"), "d1")
        integrator.add_accelerator(accelerator_component("c"), "d0")
        design = integrator.integrate()
        assert design.n_ports == 3
        assert [(placed.domain, placed.port)
                for placed in design.accelerators] == [
                    ("d0", 0), ("d1", 1), ("d0", 2)]

    def test_design_is_sealed_and_verifies(self):
        integrator = SystemIntegrator(ZCU102)
        integrator.add_accelerator(accelerator_component("a"), "d0")
        design = integrator.integrate()
        assert design.verify()
        design.signature = "tampered"
        assert not design.verify()

    def test_empty_integration_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemIntegrator(ZCU102).integrate()

    def test_missing_control_slave_rejected(self):
        integrator = SystemIntegrator(ZCU102)
        bad = IpxactComponent(
            vlnv=Vlnv("v", "l", "n", "1"),
            interfaces=[BusInterface("M_AXI", "master")])
        with pytest.raises(ConfigurationError):
            integrator.add_accelerator(bad, "d0")

    def test_multiple_masters_rejected(self):
        integrator = SystemIntegrator(ZCU102)
        bad = IpxactComponent(
            vlnv=Vlnv("v", "l", "n", "1"),
            interfaces=[BusInterface("M0", "master"),
                        BusInterface("M1", "master"),
                        BusInterface("S", "slave")])
        with pytest.raises(ConfigurationError):
            integrator.add_accelerator(bad, "d0")

    def test_width_mismatch_rejected(self):
        # Zynq-7020 HP ports are 64-bit; a 128-bit master cannot attach
        integrator = SystemIntegrator(ZYNQ_7020)
        wide = accelerator_component("wide", data_width_bits=128)
        with pytest.raises(ConfigurationError):
            integrator.add_accelerator(wide, "d0")

    def test_design_interconnect_matches_platform_width(self):
        integrator = SystemIntegrator(ZYNQ_7020)
        integrator.add_accelerator(
            accelerator_component("a", data_width_bits=64), "d0")
        design = integrator.integrate()
        assert design.interconnect.parameters["DATA_WIDTH"] == "64"
