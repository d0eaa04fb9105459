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
  or inputs.
* **Dense windows** — after ``_DENSE_AFTER`` polled cycles in a row that
  each committed channel traffic and had more than one acting tick per
  two idle reports, the kernel hands ``_DENSE_WINDOW`` cycles to the
  reference loop, which skips the idle-report bookkeeping.
* **Bulk skipping (frozen horizons)** — when every tick reported idle and
  no channel has uncommitted work, the system state is frozen: the kernel
  scans the channels and components for the earliest future event (a
  queued channel head not yet visible, or a component's
  :meth:`~repro.sim.Component.next_event_cycle` hint) and advances the
  clock in bulk up to it, touching nothing.

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

Contract for ``run_until`` predicates: they are sampled at ``check_every``
granularity on both paths and must be observational.  Predicates that pop
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

#: dense polled cycles in a row before a window of reference cycles,
#: and that window's length (see "Dense windows" above)
_DENSE_AFTER = 16
_DENSE_WINDOW = 256


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
        self._finished = False
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
        self._cohorts = CommitCohorts(self)

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
        if self._finished:
            raise SimulationError(
                f"simulator {self.name!r} stepped after finish()")
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
            if self._finished:
                raise SimulationError(
                    f"simulator {self.name!r} stepped after finish()")
            for component in components:
                component.tick(cycle)
            if dirty:
                for channel in dirty:
                    channel._commit(cycle)
                dirty.clear()
            cycle += 1
            self._cycle = cycle

    def _run_fast(self, end: int) -> None:
        """Run polled cycles up to ``end``, bulk-skipping frozen spans.

        The single inner loop of the fast path — ``run``, ``run_until``
        and ``step`` all funnel here, so there is exactly one copy of the
        cycle semantics.  Each component ticks once per polled cycle, in
        registration order (the reference path's order, since direct
        cross-component calls are observable within the same cycle), and
        its idle report (a return of exactly ``True``) feeds the skip,
        freeze and dense-window bookkeeping.  Per-cycle overhead is
        amortized across the window: loop-invariant objects are hoisted
        into locals (all of them mutated in place, never replaced), and
        the skip statistics accumulate in plain integers folded into
        :attr:`skip_stats` once per window (the ``finally`` keeps them
        truthful if a component raises mid-window).  Every polled cycle
        with dirty channels commits them through
        :meth:`CommitCohorts.flush`, the fast path's one commit body; a
        dense window's cycles count as polled, with every component
        ticked in each.

        If every tick reported idle and no channel has uncommitted work,
        the system is frozen, and the cycle at which it may change again
        — the earliest channel head not yet visible or component hint —
        is cached in ``_quiescent_until``.
        """
        stats = self.skip_stats
        components = self._components
        channels = self._channels
        dirty = self._dirty_channels
        flush = self._cohorts.flush
        ran_total = 0
        skipped = 0
        polled = 0
        frozen = 0
        dense = 0
        streak = 0
        try:
            while self._cycle < end:
                if self._finished:
                    raise SimulationError(
                        f"simulator {self.name!r} stepped after finish()")
                cycle = self._cycle
                if cycle < self._quiescent_until:
                    jump_to = self._quiescent_until
                    if jump_to > end:
                        jump_to = end
                    frozen += jump_to - cycle
                    self._cycle = jump_to
                    continue
                ran = 0
                skipped_before = skipped
                for component in components:
                    if component.tick(cycle) is True:
                        skipped += 1
                    else:
                        ran += 1
                ran_total += ran
                polled += 1
                # a cycle that commits traffic cannot freeze, so a dense
                # stretch of them hands off without delaying a freeze
                if dirty and ran * 2 > skipped - skipped_before:
                    streak += 1
                else:
                    streak = 0
                if dirty:
                    flush(cycle, dirty)
                elif not ran:
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
                self._cycle = cycle + 1
                if streak >= _DENSE_AFTER:
                    streak = 0
                    self._run_reference(min(cycle + 1 + _DENSE_WINDOW, end))
                    window = self._cycle - cycle - 1
                    dense += window
                    ran_total += window * len(components)
        finally:
            stats.ticks_run += ran_total
            stats.ticks_skipped += skipped
            stats.cycles_polled += polled + dense
            stats.cycles_dense += dense
            stats.cycles_frozen += frozen
            stats.cycles_total += polled + dense + frozen

    def run(self, cycles: int) -> None:
        """Run for a fixed number of cycles."""
        if cycles < 0:
            raise SimulationError("cannot run a negative number of cycles")
        self._quiescent_until = 0
        self._advance(self._cycle + cycles)

    def run_until(self, predicate: Callable[[], bool],
                  max_cycles: int = 1_000_000,
                  check_every: int = 1) -> int:
        """Run until ``predicate()`` is true; return the cycles elapsed.

        The predicate is evaluated every ``check_every`` cycles (checking
        less often speeds up long simulations whose termination condition is
        expensive).  With ``check_every == 1`` the returned elapsed count is
        exact: the simulation stops on the first cycle boundary where the
        predicate holds.  With larger values the stop is quantised — up to
        ``check_every - 1`` extra cycles may run past the cycle where the
        predicate first became true, but never past ``max_cycles``.

        Raises :class:`SimulationError` if ``max_cycles`` elapse without the
        predicate becoming true — silent timeouts hide deadlock bugs, so the
        failure is loud.
        """
        if check_every < 1:
            raise SimulationError("check_every must be >= 1")
        start = self._cycle
        self._quiescent_until = 0
        while not predicate():
            elapsed = self._cycle - start
            if elapsed >= max_cycles:
                raise SimulationError(
                    f"run_until exceeded {max_cycles} cycles in simulator "
                    f"{self.name!r} (started at cycle {start})")
            stride = min(check_every, max_cycles - elapsed)
            # note: no _quiescent_until reset between strides — an
            # observational predicate cannot unfreeze the system.
            # _advance runs exactly `stride` cycles on every path, so the
            # predicate is sampled on identical cycle boundaries.
            self._advance(self._cycle + stride)
        return self._cycle - start

    def finish(self) -> None:
        """Mark the simulation as complete; further steps raise."""
        self._finished = True

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
