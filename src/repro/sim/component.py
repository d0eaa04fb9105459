"""Base class for clocked hardware components."""

from __future__ import annotations


class Component:
    """A synchronous hardware block ticked once per clock cycle.

    Subclasses implement :meth:`tick`, which runs once per simulated cycle.
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
        # is currently asleep, and the poll-backoff stride mask / miss
        # counter.  Kept as plain attributes for speed; components never
        # touch them.
        self._k_sleepable = False
        self._k_asleep = False
        self._k_mask = 0
        self._k_miss = 0
        self._k_quiet = 0
        sim._register_component(self)

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Advance the component by one clock cycle.

        ``cycle`` equals ``self.sim.now``; it is passed explicitly because
        nearly every implementation needs it and the attribute lookup is a
        measurable cost in large simulations.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fast-path contract (quiescence)
    # ------------------------------------------------------------------

    def is_quiescent(self, cycle: int) -> bool:
        """Return ``True`` iff :meth:`tick` would be a pure no-op this cycle.

        "Pure no-op" is a strict promise: calling ``tick(cycle)`` would not
        change any component state (including counters, RNG streams, and
        statistics), would not push to or pop from any channel, and would
        not raise.  The fast kernel path uses this to skip the call; a wrong
        ``True`` silently changes simulation results, so implementations
        must be conservative — when in doubt, return ``False``.

        The hook is re-polled every simulated cycle against the current
        channel state, so ``True`` only ever skips the *current* cycle; a
        component cannot strand itself by returning ``True`` once.

        The default is ``False`` (never skip), which keeps every existing
        component exactly as it was.
        """
        return False

    def next_event_cycle(self, cycle: int) -> "int | None":
        """Earliest future cycle at which this component may act on its own.

        Only consulted when :meth:`is_quiescent` returned ``True`` for
        ``cycle`` and the whole system is otherwise frozen.  A component
        with a pending *internal* timer (e.g. a periodic release, a
        countdown expressed as an absolute cycle) must report it here so
        the bulk-skip horizon does not jump past it.  ``None`` means "I
        will only wake because a channel delivers something", which the
        kernel tracks itself.  Returning an earlier cycle than necessary
        is always safe (it merely shortens the skip).
        """
        return None

    def wake_channels(self) -> "list | None":
        """Channels whose activity can end this component's quiescence.

        The fast kernel path uses this to let a component *sleep*: once
        it reports quiescent, it is neither polled nor ticked again until
        one of the returned channels commits activity, its
        :meth:`next_event_cycle` hint comes due on the wake heap, or an
        explicit :meth:`wake` / :meth:`Simulator.wake` arrives.

        Returning a list is therefore a stronger promise than
        :meth:`is_quiescent` alone: *while quiescent, every input that
        could make the next tick a non-no-op is either a commit on one of
        these channels, an event at* ``next_event_cycle()``, *or an
        external mutation that calls* :meth:`wake`.  In particular,
        ``next_event_cycle`` must be complete whenever ``is_quiescent``
        is true — not only when the whole system is frozen.

        The default ``None`` opts out: the component is polled every
        cycle, exactly as before this protocol existed.  An empty list is
        valid and means "timer/wake-driven only" (e.g. a pure countdown
        component).  The kernel reads this once per wiring rebuild, after
        construction is complete, so implementations may reference
        attributes set by subclass constructors.
        """
        return None

    def wake(self) -> None:
        """Wake this component if the fast kernel path put it to sleep.

        The targeted counterpart of :meth:`Simulator.wake`: any code that
        mutates this component's state from outside its own ``tick`` —
        another component's direct method call, a driver API, an event
        handler — must call this (or the global wake) so a sleeping
        component is re-polled.  Spurious calls are safe and cheap.
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
