"""The synchronous simulation kernel.

The kernel drives a flat list of :class:`~repro.sim.Component` objects with a
single global clock.  Every cycle has two phases:

1. **Tick phase** — each component's :meth:`~repro.sim.Component.tick` runs.
   Components read the *visible* heads of their input channels (items
   committed in earlier cycles) and stage pushes onto their output channels.
2. **Commit phase** — every channel with uncommitted work commits its staged
   pushes, time-stamping them ``latency`` cycles into the future, and clears
   its pop accounting.  (Channels that were neither pushed nor popped this
   cycle have nothing to commit — visiting them would be a no-op, so the
   kernel keeps a dirty list and only visits those.)

Because nothing staged in cycle *t* can be observed before ``t + 1``, the
tick order of components cannot change the outcome — the model is a proper
synchronous circuit, not an event soup.

Quiescence-aware fast path
--------------------------

With ``fast=True`` the kernel additionally skips work that provably cannot
change state, while keeping results bit-identical to the reference path:

* **Idle reports** — every component ticks once per polled cycle, and
  the tick reports idle after it runs: a return of exactly ``True``
  means the call was a pure no-op.  Any other return, including the
  implicit ``None``, counts as "may have acted".  The report drives
  everything below; the kernel keeps no second copy of a tick's guards
  or inputs.  The reports are read only on a cycle after one that
  committed nothing, so a saturated system, which commits traffic every
  cycle, ticks blind at about the reference loop's cost.
* **Bulk skipping (frozen horizons)** — when every tick reported idle and
  no channel has uncommitted work, the system state is frozen: the kernel
  scans the channels and components for the earliest future event (a
  queued channel head not yet visible, or a component's
  :meth:`~repro.sim.Component.next_event_cycle` hint) and advances the
  clock in bulk up to it, touching nothing.  A port waiting out its
  reservation budget is such a state: the system freezes to the central
  unit's next recharge.

Determinism is preserved by construction: a frozen horizon is only entered
when every tick of the preceding cycle was a no-op, so there is no state a
skipped cycle could have observed or changed until a channel head becomes
visible or a component's own timer comes due.  External mutations between
kernel calls (e.g. enqueueing a DMA job) invalidate the cached horizon
because every public entry point calls :meth:`Simulator.wake`.

Every polled fast-path commit goes through
:meth:`~repro.sim.commit.CommitCohorts.flush`, called once per polled cycle
with dirty channels.  It commits each channel through the same
``Channel._commit`` the reference path calls, so both kernels share one
commit body.

Contract for ``run_until`` predicates: they are sampled on every cycle
boundary on both paths and must be observational.  Predicates that pop
channels (e.g. test drains) are still safe — pops mark the channel dirty and
un-freeze the kernel — but a predicate that silently mutates a component
attribute without touching a channel must call :meth:`Simulator.wake`.

Per-run skip statistics live in :attr:`Simulator.skip_stats`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .channel import Channel
from .commit import CommitCohorts
from .component import Component
from .errors import SimulationError
from .events import EventBus
from .stats import KernelSkipStats

#: Horizon value meaning "no wake-up source known" (frozen indefinitely;
#: callers clamp to their own end-of-run bound).
_FOREVER = float("inf")


class Simulator:
    """Owner of the global clock, the components, and the channels.

    Parameters
    ----------
    name:
        Label used in error messages and traces.
    clock_hz:
        Nominal clock frequency of the modelled clock domain.  The kernel
        itself is unit-less (it counts cycles); the frequency is carried so
        that reports can convert cycle counts to seconds.
    fast:
        Enable the quiescence-aware fast path (see module docstring).  The
        default ``False`` runs the reference path: every component ticks
        every cycle.  Both paths produce bit-identical results for
        components whose ticks report idle truthfully;
        ``tests/test_kernel_equivalence.py`` enforces this differentially.
    tlm:
        Transaction-level fast-forward mode (see :mod:`repro.sim.tlm`).
        Implies ``fast``.  Steady-state reservation traffic advances
        one epoch (up to a reservation period) per step using the
        analytic models; contention onsets, faults, watchdog windows,
        revocation orders and any non-predictable component demote the
        window to the cycle-accurate fast path.  Committed epochs trade
        per-cycle observables for speed (checked by the ``tlm`` oracle
        in :mod:`repro.verify`); windows with no committed epoch stay
        byte-identical to ``fast=True``.

    A built system is one reference cycle through its simulator.  Code
    that builds a system, reads its results and drops it calls
    :meth:`close` last, so the system is freed as soon as it is dropped
    (``repro.verify.harness.run_scenario`` and the
    ``repro.system.experiment`` procedures do); a closed simulator is
    never run again.
    """

    def __init__(self, name: str = "sim", clock_hz: float = 150e6,
                 fast: bool = False, tlm: bool = False) -> None:
        if clock_hz <= 0:
            raise SimulationError("clock_hz must be positive")
        self.name = name
        self.clock_hz = clock_hz
        self.fast = bool(fast) or bool(tlm)
        #: transaction-level fast-forward mode (see repro.sim.tlm):
        #: steady-state windows advance one reservation epoch per step,
        #: everything else runs on the serial fast path
        self.tlm = bool(tlm)
        self._tlm_engine = None
        self._cycle = 0
        self._components: List[Component] = []
        self._channels: List[Channel] = []
        self._names: Dict[str, object] = {}
        #: channels with uncommitted work this cycle (no duplicates: a
        #: channel enqueues itself only on its clean -> dirty transition)
        self._dirty_channels: List[Channel] = []
        #: first cycle at which the frozen system may change again; the
        #: clock can advance to (but not through) it without doing work.
        #: 0 means "not frozen / unknown".
        self._quiescent_until: float = 0
        #: per-run skip accounting for the fast path
        self.skip_stats = KernelSkipStats()
        #: simulation-wide fault/recovery notification hub (see
        #: :mod:`repro.sim.events`); components publish, the hypervisor
        #: and observers subscribe.
        self.events = EventBus()
        #: the fast path's end-of-cycle commit body
        self._cohorts = CommitCohorts()

    # ------------------------------------------------------------------
    # registration (called from Component / Channel constructors)
    # ------------------------------------------------------------------

    def _register_component(self, component: Component) -> None:
        self._check_name(component.name)
        self._components.append(component)
        self._names[component.name] = component
        self._quiescent_until = 0

    def _register_channel(self, channel: Channel) -> None:
        self._check_name(channel.name)
        self._channels.append(channel)
        self._names[channel.name] = channel
        self._quiescent_until = 0

    def _check_name(self, name: str) -> None:
        if name in self._names:
            raise SimulationError(
                f"duplicate name {name!r} in simulator {self.name!r}")

    def _mark_dirty(self, channel: Channel) -> None:
        """A channel transitioned clean -> dirty; queue it for commit."""
        self._dirty_channels.append(channel)
        self._quiescent_until = 0

    def wake(self) -> None:
        """Invalidate any cached quiescence horizon.

        Components whose externally-callable API mutates state outside a
        tick (job enqueues, gate decoupling, configuration writes) call
        this so the fast path polls every component on the next cycle
        instead of staying frozen.  Calling it spuriously is always safe
        — it only costs one round of idle ticks.
        """
        self._quiescent_until = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The current cycle number (starts at 0)."""
        return self._cycle

    def seconds(self, cycles: Optional[int] = None) -> float:
        """Convert ``cycles`` (default: the current time) to seconds."""
        if cycles is None:
            cycles = self._cycle
        return cycles / self.clock_hz

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by exactly one clock cycle."""
        self._quiescent_until = 0
        self._advance(self._cycle + 1)

    def _advance(self, end: int) -> None:
        """Advance to ``end`` on the kernel path this simulator runs.

        Without ``fast`` that is the reference loop; otherwise the TLM
        engine or the fast loop runs.  All of them produce identical
        results outside committed TLM epochs, so the choice is purely a
        performance decision.
        """
        if not self.fast:
            self._run_reference(end)
        elif self.tlm:
            engine = self._tlm_engine
            if engine is None:
                from .tlm import TlmEngine
                engine = self._tlm_engine = TlmEngine(self)
            engine.advance(end)
        else:
            self._run_fast(end)

    def _run_reference(self, end: int) -> None:
        """Run cycles up to ``end`` the long way: tick everything, commit
        dirty channels.

        The single inner loop of the reference path and the counterpart
        of :meth:`_run_fast`: ``run``, ``run_until`` and ``step`` all
        funnel here, so the reference-cycle semantics live in one place.
        Every component ticks every cycle, in registration order, then
        every channel with uncommitted work commits.  The component and
        dirty lists are bound to locals once per window (both are
        mutated in place, never replaced), so a component registered
        mid-tick is still reached through the live list, and each tick
        stays a plain ``component.tick(cycle)`` call that class-level
        instrumentation sees.  The loop adds no per-cycle call of its
        own, so an idle component costs exactly its ``tick``'s early
        return; that is why idle ticks must be O(1) (DESIGN.md §6).
        """
        components = self._components
        dirty = self._dirty_channels
        cycle = self._cycle
        while cycle < end:
            for component in components:
                component.tick(cycle)
            if dirty:
                for channel in dirty:
                    channel._commit(cycle)
                dirty.clear()
            cycle += 1
            self._cycle = cycle

    def _run_fast(self, end: int,
                  until: Optional[Callable[[], bool]] = None) -> None:
        """Run polled cycles up to ``end``, bulk-skipping frozen spans.

        The single inner loop of the fast path — ``run``, ``run_until``
        and ``step`` all funnel here, so there is exactly one copy of the
        cycle semantics.  Each component ticks once per polled cycle, in
        registration order (the reference path's order, since direct
        cross-component calls are observable within the same cycle).  A
        saturated system never freezes, so a polled cycle must cost about
        a reference cycle: the idle reports (a return of exactly
        ``True``) are read only on a cycle after one that committed
        nothing, loop-invariant objects are hoisted into locals (all
        mutated in place, never replaced), and the statistics accumulate
        in plain integers folded into :attr:`skip_stats` once per window
        (the ``finally`` keeps them truthful if a component raises).
        Dirty channels commit through :meth:`CommitCohorts.flush`, the
        fast path's one commit body.

        If every report was read and idle and no channel is dirty, the
        system is frozen, and the cycle at which it may change again —
        the earliest channel head not yet visible or component hint — is
        cached in ``_quiescent_until``.  ``until`` is :meth:`run_until`'s
        predicate, sampled on every boundary before ``end``, frozen ones
        included (it may read the clock); the window stops where it holds.
        """
        stats = self.skip_stats
        components = self._components
        channels = self._channels
        dirty = self._dirty_channels
        flush = self._cohorts.flush
        start = cycle = self._cycle
        ran_total = 0
        skipped = 0
        frozen = 0
        clean = 0
        committed = 0
        # read the idle reports this cycle: the last polled cycle
        # committed nothing, so this one may freeze
        watch = True
        try:
            while cycle < end:
                if until is not None and until():
                    break
                if cycle < self._quiescent_until:
                    jump_to = self._quiescent_until
                    if jump_to > end:
                        jump_to = end
                    if until is not None:
                        jump_to = cycle + 1
                    frozen += jump_to - cycle
                    cycle = self._cycle = jump_to
                    continue
                if watch:
                    idle = 0
                    for component in components:
                        if component.tick(cycle) is True:
                            idle += 1
                    skipped += idle
                    ran_total += len(components) - idle
                else:
                    for component in components:
                        component.tick(cycle)
                    ran_total += len(components)
                if dirty:
                    watch = False
                    committed += len(dirty)
                    flush(cycle, dirty)
                else:
                    clean += 1
                    if watch and idle == len(components):
                        horizon = _FOREVER
                        for channel in channels:
                            queue = channel._queue
                            if queue:
                                ready = queue[0][0]
                                if cycle < ready < horizon:
                                    horizon = ready
                        for component in components:
                            hint = component.next_event_cycle(cycle)
                            if hint is not None and hint < horizon:
                                horizon = hint
                        if horizon > cycle:
                            self._quiescent_until = horizon
                            stats.horizon_scans += 1
                    watch = True
                cycle += 1
                self._cycle = cycle
        finally:
            polled = self._cycle - start - frozen
            stats.ticks_run += ran_total
            stats.ticks_skipped += skipped
            stats.cycles_polled += polled
            stats.cycles_frozen += frozen
            stats.cycles_total += polled + frozen
            stats.commit_batches += polled - clean
            stats.commit_channels += committed

    def run(self, cycles: int) -> None:
        """Run for a fixed number of cycles."""
        if cycles < 0:
            raise SimulationError("cannot run a negative number of cycles")
        self._quiescent_until = 0
        self._advance(self._cycle + cycles)

    def run_until(self, predicate: Callable[[], bool],
                  max_cycles: int = 1_000_000) -> int:
        """Run until ``predicate()`` is true; return the cycles elapsed.

        The predicate is evaluated on every cycle boundary, so the
        returned count is exact: the simulation stops on the first
        boundary where the predicate holds.  The fast path waits in one
        :meth:`_run_fast` window, which samples the predicate itself.

        Raises :class:`SimulationError` if ``max_cycles`` elapse without the
        predicate becoming true — silent timeouts hide deadlock bugs, so the
        failure is loud.
        """
        start = self._cycle
        end = start + max_cycles
        self._quiescent_until = 0
        if self.fast and not self.tlm:
            self._run_fast(end, predicate)
        else:
            # no _quiescent_until reset between cycles: an observational
            # predicate cannot unfreeze the system
            while self._cycle < end and not predicate():
                self._advance(self._cycle + 1)
        # a stop before ``end`` means the predicate held there; ``end``
        # itself is a boundary not sampled yet
        if self._cycle < end or predicate():
            return self._cycle - start
        raise SimulationError(
            f"run_until exceeded {max_cycles} cycles in simulator "
            f"{self.name!r} (started at cycle {start})")

    def close(self) -> None:
        """Release the simulated system once its results have been read.

        Every component and channel points back at its simulator, so
        without this only a full garbage collection frees a dropped
        system.  Drops the simulator's side of that cycle: the
        component, channel and name registries, the dirty list, every
        channel's push and pop listeners, the event-bus subscribers and
        the TLM engine.  The clock and :attr:`skip_stats` stay readable.
        """
        for channel in self._channels:
            channel._push_listeners.clear()
            channel._pop_listeners.clear()
        self._components.clear()
        self._channels.clear()
        self._names.clear()
        self._dirty_channels.clear()
        self.events._subscribers.clear()
        self._tlm_engine = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def lookup(self, name: str):
        """Return the component or channel registered under ``name``."""
        try:
            return self._names[name]
        except KeyError:
            raise SimulationError(
                f"no component or channel named {name!r}") from None

    @property
    def components(self) -> List[Component]:
        """The registered components, in tick order (read-only view)."""
        return list(self._components)

    @property
    def channels(self) -> List[Channel]:
        """The registered channels (read-only view)."""
        return list(self._channels)

    def idle(self) -> bool:
        """True when every channel is empty (no traffic in flight).

        Tests the queues directly rather than through
        :attr:`Channel.is_idle`: ``SocSystem.run_until_quiescent`` polls
        this every cycle.
        """
        for channel in self._channels:
            if channel._queue or channel._staged:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator({self.name!r}, cycle={self._cycle}, "
                f"components={len(self._components)}, "
                f"channels={len(self._channels)}, "
                f"fast={self.fast})")
