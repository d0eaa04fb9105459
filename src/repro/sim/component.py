"""Base class for clocked hardware components."""

from __future__ import annotations


class Component:
    """A synchronous hardware block ticked once per clock cycle.

    Subclasses implement :meth:`tick`, which runs once per simulated cycle
    and reports whether it was a no-op, and components with internal
    timers report their next deadline through :meth:`next_event_cycle`.
    Those two, plus a :meth:`Simulator.wake` call after any mutation made
    outside a tick, are the whole fast-path contract.  All communication
    with other components must go through :class:`repro.sim.Channel`
    links; because a push is stamped at least one cycle ahead, the order
    in which components are ticked within a cycle is irrelevant to the
    simulation outcome.

    Components register themselves with the simulator on construction, so
    building a component is enough to make it run.
    """

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        sim._register_component(self)

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> "bool | None":
        """Advance the component by one clock cycle; report idleness.

        ``cycle`` equals ``self.sim.now``; it is passed explicitly because
        nearly every implementation needs it and the attribute lookup is a
        measurable cost in large simulations.

        Return ``True`` exactly when the call was a pure no-op: it changed
        no component state (counters, RNG streams and statistics
        included) and pushed to or popped from no channel.  The fast
        kernel path uses this idle report after the tick runs to decide
        when the whole system is frozen; a wrong ``True`` silently changes
        simulation results.  Any other return, including the implicit
        ``None``, counts as "may have acted", so a component whose tick
        reports nothing keeps the system from freezing.  A tick made of
        gated sub-steps returns whether any step acted, and an
        override passes its own part up together with the parent's.
        The reference path ignores the report.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fast-path contract (idle reports and event hints)
    # ------------------------------------------------------------------

    def is_quiescent(self, cycle: int) -> bool:
        """Unused: the kernel learns idleness from :meth:`tick`'s report.

        Kept only so code that looks the hook up by name keeps working
        (the end-to-end benchmark's layer tracer wraps it); nothing in
        the package calls it.
        """
        return False

    def next_event_cycle(self, cycle: int) -> "int | None":
        """Earliest future cycle at which this component may act on its own.

        Only consulted while the whole system is frozen, on every
        component, right after every tick reported idle for ``cycle``.  A
        component with a pending *internal* timer (e.g. a periodic
        release, a countdown expressed as an absolute cycle) must report
        it here so the bulk-skip horizon does not jump past it.  ``None``
        means "I will only act because a channel delivers something",
        which the kernel tracks itself.  Returning an earlier cycle than
        necessary is always safe (it merely shortens the skip).
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
