"""Base class for clocked hardware components."""

from __future__ import annotations


class Component:
    """A synchronous hardware block ticked once per clock cycle.

    Subclasses implement :meth:`tick`, which runs once per simulated cycle
    and reports whether it was a no-op.
    All communication with other components must go through
    :class:`repro.sim.Channel` links; thanks to the channels' two-phase
    commit, the order in which components are ticked within a cycle is
    irrelevant to the simulation outcome.

    Components register themselves with the simulator on construction, so
    building a component is enough to make it run.
    """

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        # Kernel-managed scheduling state (see Simulator._rebuild_wiring):
        # whether the fast path may put this component to sleep, whether it
        # is currently asleep, and its run of consecutive idle reports.
        # Kept as plain attributes for speed; components never touch them.
        self._k_sleepable = False
        self._k_asleep = False
        self._k_quiet = 0
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
        when a component may sleep and when the whole system is frozen; a
        wrong ``True`` silently changes simulation results.  Any other
        return, including the implicit ``None``, counts as "may have
        acted", so a tick that reports nothing is never skipped.  A tick
        made of gated sub-steps returns whether any step acted, and an
        override passes its own part up together with the parent's.
        The reference path ignores the report.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fast-path contract (idle reports, sleep and wake)
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

        Only consulted right after :meth:`tick` reported idle for
        ``cycle``, either as the component goes to sleep or while the
        whole system is frozen.  A component with a pending *internal*
        timer (e.g. a periodic release, a countdown expressed as an
        absolute cycle) must report it here so neither the sleep nor the
        bulk-skip horizon jumps past it.  ``None`` means "I will only
        wake because a channel delivers something", which the kernel
        tracks itself.  Returning an earlier cycle than necessary is
        always safe (it merely shortens the skip).
        """
        return None

    def wake_channels(self) -> "list | None":
        """Channels whose activity can end this component's idleness.

        The fast kernel path uses this to let a component *sleep*: once
        its ticks have reported idle long enough, it is not ticked again
        until one of the returned channels commits activity, its
        :meth:`next_event_cycle` hint comes due on the wake heap, or an
        explicit :meth:`wake` / :meth:`Simulator.wake` arrives.

        Returning a list is therefore a stronger promise than an idle
        report alone: *after a tick that reported idle, every input that
        could make the next tick act is either a commit on one of these
        channels, an event at* ``next_event_cycle()``, *or an external
        mutation that calls* :meth:`wake`.  In particular,
        ``next_event_cycle`` must be complete whenever a tick reported
        idle — not only when the whole system is frozen.

        The default ``None`` opts out: the component is ticked every
        cycle, exactly as on the reference path.  An empty list is valid
        and means "timer/wake-driven only" (e.g. a pure countdown
        component); it still sleeps only after idle reports, so a tick
        that never reports idle keeps it awake.  The kernel reads this
        once per wiring rebuild, after construction is complete, so
        implementations may reference attributes set by subclass
        constructors.
        """
        return None

    def wake(self) -> None:
        """Wake this component if the fast kernel path put it to sleep.

        The targeted counterpart of :meth:`Simulator.wake`: any code that
        mutates this component's state from outside its own ``tick`` —
        another component's direct method call, a driver API, an event
        handler — must call this (or the global wake) so a sleeping
        component is ticked again.  Spurious calls are safe and cheap.
        """
        self.sim._wake_component(self)

    def reset(self) -> None:
        """Return the component to its power-on state.

        The default implementation does nothing; stateful components
        override it.  Used by the HyperConnect central unit to fan out reset
        requests.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
