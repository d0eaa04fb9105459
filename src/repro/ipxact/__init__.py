"""Minimal IP-XACT (IEEE 1685) packaging support."""

from .component import (
    BusInterface,
    IpxactComponent,
    Vlnv,
    accelerator_component,
    hyperconnect_component,
)
from .io import write_component

__all__ = [
    "BusInterface",
    "IpxactComponent",
    "Vlnv",
    "accelerator_component",
    "hyperconnect_component",
    "write_component",
]
