"""File-level IP-XACT export."""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .component import IpxactComponent


def write_component(component: IpxactComponent,
                    path: Union[str, Path]) -> Path:
    """Write a component document to ``path``; returns the path."""
    path = Path(path)
    path.write_text('<?xml version="1.0" encoding="UTF-8"?>\n'
                    + component.to_xml(), encoding="utf-8")
    return path
