"""Open-source driver for the AXI HyperConnect.

The paper ships the HyperConnect with "an open-source driver to control
it"; this module is that driver's Python equivalent.  It drives one
:class:`~repro.hyperconnect.hyperconnect.HyperConnect` and speaks
exclusively through its register map (:mod:`repro.hyperconnect.regs`), so
everything it does could equally be performed by a processor writing the
memory-mapped control interface — which is exactly how the hypervisor
model uses it.

The most important convenience is :meth:`HyperConnectDriver.set_bandwidth_shares`,
which converts the "HC-X-Y" percentage notation of the paper's Fig. 5 into
reservation budgets: a port reserved fraction ``f`` of the bus receives
``floor(f * T / nominal_burst)`` sub-transaction slots per period (each
equalized sub-transaction occupies ``nominal_burst`` data-bus cycles).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..analysis.reservation import budget_for_share
from ..sim.errors import ConfigurationError
from .hyperconnect import HyperConnect
from .regs import (
    BUDGET_UNLIMITED,
    PORT_BUDGET,
    PORT_CTRL,
    PORT_FAULTS,
    PORT_ISSUED_READ,
    PORT_ISSUED_WRITE,
    PORT_MAX_OUTSTANDING,
    PORT_NOMINAL_BURST,
    PORT_TIMEOUT,
    REG_CTRL,
    REG_N_PORTS,
    REG_PERIOD,
    REGION_BASE_REG,
    REGION_GRANULE,
    REGION_PAGES_REG,
    port_register,
    region_epoch_register,
    region_register,
)


class HyperConnectDriver:
    """Typed API over the HyperConnect register map."""

    def __init__(self, hyperconnect: HyperConnect) -> None:
        if not isinstance(hyperconnect, HyperConnect):
            raise ConfigurationError(
                f"driver target must be a HyperConnect, "
                f"got {type(hyperconnect).__name__}")
        self.regs = hyperconnect.regs

    # ------------------------------------------------------------------
    # global controls
    # ------------------------------------------------------------------

    @property
    def n_ports(self) -> int:
        """Number of slave ports of the attached IP."""
        return self.regs.read(REG_N_PORTS)

    def enable(self) -> None:
        """Allow all (coupled) ports to forward transactions."""
        self.regs.write(REG_CTRL, self.regs.read(REG_CTRL) | 1)

    def disable(self) -> None:
        """Globally freeze new request forwarding (in-flight completes)."""
        self.regs.write(REG_CTRL, self.regs.read(REG_CTRL) & ~1)

    def set_period(self, cycles: int) -> None:
        """Set the reservation period T (common to all ports)."""
        if cycles < 1:
            raise ConfigurationError("period must be >= 1 cycle")
        self.regs.write(REG_PERIOD, cycles)

    @property
    def period(self) -> int:
        """Current reservation period T in cycles."""
        return self.regs.read(REG_PERIOD)

    # ------------------------------------------------------------------
    # per-port controls
    # ------------------------------------------------------------------

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ConfigurationError(
                f"port {port} out of range (0..{self.n_ports - 1})")

    def couple(self, port: int) -> None:
        """(Re)connect a port to the memory subsystem."""
        self._check_port(port)
        self.regs.write(port_register(port, PORT_CTRL), 1)

    def decouple(self, port: int) -> None:
        """Disconnect a port (isolating a misbehaving/faulty HA)."""
        self._check_port(port)
        self.regs.write(port_register(port, PORT_CTRL), 0)

    def is_coupled(self, port: int) -> bool:
        """Whether the port may currently exchange data."""
        self._check_port(port)
        return bool(self.regs.read(port_register(port, PORT_CTRL)) & 1)

    def set_nominal_burst(self, port: int, beats: int) -> None:
        """Set the equalization burst size of a port."""
        self._check_port(port)
        if beats < 1:
            raise ConfigurationError("nominal burst must be >= 1 beat")
        self.regs.write(port_register(port, PORT_NOMINAL_BURST), beats)

    def set_max_outstanding(self, port: int, limit: int) -> None:
        """Set the outstanding sub-transaction limit of a port."""
        self._check_port(port)
        if limit < 1:
            raise ConfigurationError("outstanding limit must be >= 1")
        self.regs.write(port_register(port, PORT_MAX_OUTSTANDING), limit)

    def set_budget(self, port: int, transactions: Optional[int]) -> None:
        """Set a port's reservation budget (``None`` = unlimited)."""
        self._check_port(port)
        if transactions is None:
            self.regs.write(port_register(port, PORT_BUDGET),
                            BUDGET_UNLIMITED)
            return
        if transactions < 0:
            raise ConfigurationError("budget must be >= 0")
        self.regs.write(port_register(port, PORT_BUDGET), transactions)

    def set_watchdog_timeout(self, port: int,
                             cycles: Optional[int]) -> None:
        """Arm (or disarm) a port's transaction watchdog.

        ``cycles`` is the maximum age of an outstanding sub-transaction
        before the port is contained; ``None`` (or 0) disarms the
        watchdog.  Arming it also arms the ingest-time protocol guard.
        """
        self._check_port(port)
        if cycles is None:
            cycles = 0
        if cycles < 0:
            raise ConfigurationError("watchdog timeout must be >= 0")
        self.regs.write(port_register(port, PORT_TIMEOUT), cycles)

    def watchdog_timeout(self, port: int) -> Optional[int]:
        """The port's watchdog timeout (``None`` = disarmed)."""
        self._check_port(port)
        value = self.regs.read(port_register(port, PORT_TIMEOUT))
        return None if value == 0 else value

    def set_region_filter(self, port: int, base: int, size: int) -> None:
        """Program a port's region grant.

        Any request whose burst footprint leaves ``[base, base + size)``
        trips containment with DECERR.  ``base`` and ``size`` must be
        multiples of the 4 KiB register granule; ``size == 0`` disables
        the filter (see :meth:`clear_region_filter`).
        """
        self._check_port(port)
        if base < 0 or size < 0:
            raise ConfigurationError("region base/size must be >= 0")
        if base % REGION_GRANULE or size % REGION_GRANULE:
            raise ConfigurationError(
                f"region base/size must be multiples of "
                f"0x{REGION_GRANULE:x}")
        self.regs.write(region_register(port, REGION_BASE_REG),
                        base // REGION_GRANULE)
        self.regs.write(region_register(port, REGION_PAGES_REG),
                        size // REGION_GRANULE)

    def clear_region_filter(self, port: int) -> None:
        """Disable a port's region filter (all addresses pass)."""
        self._check_port(port)
        self.regs.write(region_register(port, REGION_PAGES_REG), 0)

    def region_filter(self, port: int) -> Optional[Dict[str, int]]:
        """The port's programmed grant, or ``None`` when disabled."""
        self._check_port(port)
        pages = self.regs.read(region_register(port, REGION_PAGES_REG))
        if pages == 0:
            return None
        base = self.regs.read(region_register(port, REGION_BASE_REG))
        return {"base": base * REGION_GRANULE,
                "size": pages * REGION_GRANULE}

    def region_epoch(self, port: int) -> int:
        """The port's region-filter retarget counter (read-only reg).

        The IP bumps it on every REGION_PAGES write, the last write of
        each :meth:`set_region_filter` and :meth:`clear_region_filter`,
        so software can observe that a revocation has committed with a
        single register read.
        """
        self._check_port(port)
        return self.regs.read(region_epoch_register(port))

    def faults(self, port: int) -> int:
        """Containment entries (watchdog + protocol trips) of a port."""
        self._check_port(port)
        return self.regs.read(port_register(port, PORT_FAULTS))

    def issued(self, port: int) -> Dict[str, int]:
        """Live issue counters of a port."""
        self._check_port(port)
        return {
            "read": self.regs.read(port_register(port, PORT_ISSUED_READ)),
            "write": self.regs.read(port_register(port, PORT_ISSUED_WRITE)),
        }

    # ------------------------------------------------------------------
    # bandwidth-reservation convenience (the HC-X-Y notation of Fig. 5)
    # ------------------------------------------------------------------

    def budget_for_share(self, fraction: float, period: Optional[int] = None,
                         nominal_burst: int = 16) -> int:
        """Sub-transaction budget reserving ``fraction`` of the data bus
        (:func:`repro.analysis.reservation.budget_for_share`) over
        ``period``, by default the programmed one."""
        if period is None:
            period = self.period
        try:
            return budget_for_share(fraction, period, nominal_burst)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    def set_bandwidth_shares(self, shares: Mapping[int, float],
                             period: Optional[int] = None) -> Dict[int, int]:
        """Program budgets so each port gets its fraction of the bus.

        ``shares`` maps port index to a bandwidth fraction (fractions may
        sum to <= 1.0; ports not mentioned keep their current budget).
        Returns the budgets programmed, per port.

        Semantics note: a budget is a *cap* ([10]), not a priority —
        arbitration stays round-robin among ports with budget left.  A
        port is therefore only guaranteed more than its fair 1/N share
        when every competitor is capped below its own fair share, which
        is why the paper's HC-X-Y configurations always program both the
        reserved fraction X and its complement Y.
        """
        total = sum(shares.values())
        if total > 1.0 + 1e-9:
            raise ConfigurationError(
                f"bandwidth shares sum to {total:.3f} > 1")
        if period is not None:
            self.set_period(period)
        budgets: Dict[int, int] = {}
        for port, fraction in shares.items():
            self._check_port(port)
            nominal = self.regs.read(
                port_register(port, PORT_NOMINAL_BURST))
            budget = self.budget_for_share(fraction, self.period, nominal)
            self.set_budget(port, budget)
            budgets[port] = budget
        return budgets
