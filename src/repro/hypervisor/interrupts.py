"""Interrupt routing between accelerators and domains.

HAs "signal their completion to the PS by means of interrupts", and the
hypervisor "is in charge of ... routing their interrupts" to the right
domain.  This controller models exactly that: accelerator completion
events become pending interrupts in the owning domain's queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim.errors import ConfigurationError


@dataclass(frozen=True)
class Interrupt:
    """One delivered interrupt."""

    irq: int
    source: str
    cycle: int


class InterruptController:
    """Routes accelerator IRQ lines to domains."""

    def __init__(self) -> None:
        self._routes: Dict[int, str] = {}        # irq -> domain name
        self._pending: Dict[str, List[Interrupt]] = {}
        self.delivered_total = 0
        self.spurious = 0

    def route(self, irq: int, domain_name: str) -> None:
        """Bind an IRQ line to a domain (one domain per line)."""
        if irq in self._routes:
            raise ConfigurationError(f"IRQ {irq} already routed "
                                     f"to {self._routes[irq]!r}")
        self._routes[irq] = domain_name
        self._pending.setdefault(domain_name, [])

    def raise_irq(self, irq: int, source: str, cycle: int) -> None:
        """Deliver an interrupt; unrouted lines count as spurious."""
        domain_name = self._routes.get(irq)
        if domain_name is None:
            self.spurious += 1
            return
        self._pending[domain_name].append(Interrupt(irq, source, cycle))
        self.delivered_total += 1

    def pending(self, domain_name: str) -> List[Interrupt]:
        """The domain's pending interrupts (oldest first)."""
        return list(self._pending.get(domain_name, []))
