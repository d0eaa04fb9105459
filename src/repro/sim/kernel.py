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

* **Tick skipping** — before ticking a component the kernel polls
  :meth:`~repro.sim.Component.is_quiescent`; a ``True`` answer is a strict
  promise that ``tick`` would be a pure no-op *this* cycle, so the call is
  elided.
* **Component sleep** — a component that declares its wake sources via
  :meth:`~repro.sim.Component.wake_channels` is put to *sleep* when it
  reports quiescent: it is neither polled nor ticked again until one of its
  wake channels commits activity, its
  :meth:`~repro.sim.Component.next_event_cycle` hint comes due on the wake
  heap, or an explicit wake arrives.  Components that do not opt in are
  polled every cycle, exactly as before.
* **Dense windows** — after ``_DENSE_AFTER`` polled cycles in a row that
  each committed channel traffic and ran more than one tick per two
  quiescent polls, the kernel hands ``_DENSE_WINDOW`` cycles to the
  reference loop, which ticks everything unpolled.  Ticking a quiescent
  component is always sound, and the window marks the wiring stale, so
  the next polled cycle re-derives sleep state and wake-heap entries.
* **Bulk skipping (frozen horizons)** — when no tick ran and no channel has
  uncommitted work, the system state is frozen: the kernel computes the
  earliest future wake event and advances the clock in bulk up to it,
  touching nothing.

Event-heap wake scheduling
--------------------------

Future wake events live on a lazily-invalidated min-heap
(:class:`~repro.sim.wakeheap.WakeHeap`) instead of being rediscovered by
scanning every channel and component per freeze:

* a sleeping component's ``next_event_cycle`` hint is pushed when it goes
  to sleep;
* a committed channel head whose ready cycle lies more than one cycle in
  the future (only possible with ``latency > 1``) is pushed at commit time;
  unit-latency traffic is covered by the commit-time wake of the channel's
  watchers, so hot channels never touch the heap;
* each polled cycle the kernel pops the due entries and wakes their
  subjects; a frozen horizon is simply the heap minimum combined with the
  fresh hints of the components that are still awake.

Determinism is preserved by construction: a frozen horizon is only entered
when zero ticks ran in the preceding cycle, so there is no state a skipped
cycle could have observed or changed, and a sleeping component's inputs are
exactly its wake channels, its own timer, and explicit wakes.  External
mutations between kernel calls (e.g. enqueueing a DMA job) invalidate the
cached horizon *and* wake every sleeper because every public entry point
calls :meth:`Simulator.wake`; targeted cross-component mutations (a direct
method call outside ``tick``) call :meth:`Component.wake`.

Every polled fast-path commit goes through one body,
:meth:`~repro.sim.commit.CommitCohorts.flush`, called once per polled cycle
with dirty channels.  Its semantics are identical to the reference path's
per-channel ``Channel._commit``, which stays as the independent oracle and
also commits the cycles of a dense window.

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
from .wakeheap import WakeHeap

#: Horizon value meaning "no wake-up source known" (frozen indefinitely;
#: callers clamp to their own end-of-run bound).
_FOREVER = float("inf")

#: dense polled cycles in a row before a window of reference cycles,
#: and that window's length (see "Dense windows" above)
_DENSE_AFTER = 16
_DENSE_WINDOW = 256

#: consecutive quiescent polls before a sleep-capable component actually
#: sleeps.  Sleeping is not free — it computes a hint, may push a heap
#: entry, and the eventual wake walks the watcher list — so a component
#: that merely idles between bursts of work (a master waiting out
#: another port's service window, a supervisor between sub-request
#: forwards) is cheaper to keep polling than to bounce in and out of
#: sleep.  The threshold is sized past the longest such natural gap
#: (a nominal burst service window) so only genuinely idle components
#: pay the sleep/wake round trip.
_SLEEP_AFTER = 32


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
        components honouring the quiescence contract;
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
        #: future wake events (sleeping components' hints, far-future
        #: channel heads)
        self._wakeheap = WakeHeap()
        #: the fast path's end-of-cycle commit body
        self._cohorts = CommitCohorts(self)
        #: scheduling wiring (watcher lists, sleep capability) must be
        #: rebuilt before the next fast cycle
        self._wiring_stale = True
        #: components currently eligible for polling, in stable insertion
        #: order (dict-as-ordered-set), and the complementary sleep set
        self._awake: Dict[Component, bool] = {}
        self._asleep: Dict[Component, bool] = {}

    # ------------------------------------------------------------------
    # registration (called from Component / Channel constructors)
    # ------------------------------------------------------------------

    def _register_component(self, component: Component) -> None:
        self._check_name(component.name)
        self._components.append(component)
        self._names[component.name] = component
        self._quiescent_until = 0
        self._wiring_stale = True

    def _register_channel(self, channel: Channel) -> None:
        self._check_name(channel.name)
        self._channels.append(channel)
        self._names[channel.name] = channel
        self._quiescent_until = 0
        self._wiring_stale = True

    def _check_name(self, name: str) -> None:
        if name in self._names:
            raise SimulationError(
                f"duplicate name {name!r} in simulator {self.name!r}")

    def _mark_dirty(self, channel: Channel) -> None:
        """A channel transitioned clean -> dirty; queue it for commit."""
        self._dirty_channels.append(channel)
        self._quiescent_until = 0

    def wake(self) -> None:
        """Invalidate any cached quiescence horizon and wake all sleepers.

        Components whose externally-callable API mutates state outside a
        tick (job enqueues, gate decoupling, configuration writes) call
        this so the fast path re-polls everything on the next cycle.
        Calling it spuriously is always safe — it only costs one poll
        round.  Woken components whose hints changed re-schedule fresh
        heap entries when they next sleep; superseded entries go stale
        and are dropped by the heap.
        """
        self._quiescent_until = 0
        asleep = self._asleep
        if asleep:
            awake = self._awake
            heap = self._wakeheap
            for component in asleep:
                component._k_asleep = False
                component._k_quiet = 0
                awake[component] = True
                heap.invalidate(component)
            asleep.clear()

    def _wake_component(self, component: Component) -> None:
        """Wake one sleeping component (see :meth:`Component.wake`)."""
        self._quiescent_until = 0
        if component._k_asleep:
            component._k_asleep = False
            component._k_quiet = 0
            del self._asleep[component]
            self._awake[component] = True
            self._wakeheap.invalidate(component)

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

    def _rebuild_wiring(self) -> None:
        """(Re)derive the fast path's scheduling structures.

        Runs lazily at the start of the next fast cycle after any
        component/channel registration or dense window, never at
        construction time — :meth:`Component.wake_channels` may
        reference attributes that only exist once the subclass
        constructor finished.  A rebuild wakes every component (new
        arrivals start awake, sleepers re-poll and re-sleep with fresh
        hints) and re-seeds the heap with every head not visible yet,
        including one due next cycle, whose commit-time entry it clears.
        """
        heap = self._wakeheap
        heap.clear()
        self._awake = {}
        self._asleep = {}
        cycle = self._cycle
        for channel in self._channels:
            channel._watchers = ()
            queue = channel._queue
            if queue and queue[0][0] > cycle:
                heap.push(channel, queue[0][0])
        watcher_lists: Dict[Channel, List[Component]] = {}
        for component in self._components:
            component._k_asleep = False
            component._k_quiet = 0
            declared = component.wake_channels()
            component._k_sleepable = declared is not None
            self._awake[component] = True
            if declared:
                for channel in declared:
                    watcher_lists.setdefault(channel, []).append(component)
        for channel, watchers in watcher_lists.items():
            channel._watchers = tuple(watchers)
        self._wiring_stale = False

    def _wake_due(self, cycle: int) -> None:
        """Pop due heap entries and wake their subjects.

        Component entries re-enter the awake set; channel entries wake
        the channel's watchers and are revalidated — if the head is
        somehow still in the future (a stale entry that fired early),
        the channel is rescheduled at the true ready cycle.
        """
        stats = self.skip_stats
        awake = self._awake
        asleep = self._asleep
        heap = self._wakeheap
        for subject in heap.pop_due(cycle):
            stats.heap_pops += 1
            watchers = getattr(subject, "_watchers", None)
            if watchers is None:
                # a component's next_event_cycle hint came due
                if subject._k_asleep:
                    subject._k_asleep = False
                    subject._k_quiet = 0
                    del asleep[subject]
                    awake[subject] = True
            else:
                for component in watchers:
                    if component._k_asleep:
                        component._k_asleep = False
                        component._k_quiet = 0
                        del asleep[component]
                        awake[component] = True
                queue = subject._queue
                if queue and queue[0][0] > cycle:
                    if heap.push(subject, queue[0][0]):
                        stats.heap_pushes += 1

    def _run_fast(self, end: int) -> None:
        """Run polled cycles up to ``end``, bulk-skipping frozen spans.

        The single inner loop of the fast path — ``run``, ``run_until``
        and ``step`` all funnel here, so there is exactly one copy of the
        cycle semantics.  Per-cycle overhead is amortized across the
        window: loop-invariant objects are hoisted into locals (all of
        them mutated in place, never replaced, so the bindings stay
        valid across ``_rebuild_wiring``), and the skip statistics
        accumulate in plain integers folded into :attr:`skip_stats` once
        per window (the ``finally`` keeps them truthful if a component
        raises mid-window).  Every polled cycle with dirty channels
        commits them through :meth:`CommitCohorts.flush`, the fast
        path's one commit body; a dense window's cycles count as polled,
        with every component ticked in each.

        Within a polled cycle the kernel wakes due heap subjects, then
        iterates the full registration list, skipping sleepers by flag,
        instead of snapshotting the awake set: components must tick in
        registration order (the reference path's order) because direct
        cross-component calls (e.g. EXBAR completion notifications into
        a TS, or the recovery agent re-coupling a gate) are observable
        within the same cycle — and a sleeper woken by an earlier
        component mid-loop must still be reached *this* cycle, exactly
        as the reference path would tick it.  If nothing ticked and no
        channel has uncommitted work, the system is frozen and the cycle
        at which it may change again is cached in ``_quiescent_until``.
        """
        stats = self.skip_stats
        heap = self._wakeheap
        heap_list = heap._heap
        heap_push = heap.push
        components = self._components
        dirty = self._dirty_channels
        flush = self._cohorts.flush
        ran_total = 0
        skipped = 0
        slept = 0
        polled = 0
        frozen = 0
        dense = 0
        heap_pushes = 0
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
                if self._wiring_stale:
                    self._rebuild_wiring()
                if heap_list and heap_list[0][0] <= cycle:
                    self._wake_due(cycle)
                ran = 0
                skipped_before = skipped
                for component in components:
                    if component._k_asleep:
                        slept += 1
                        continue
                    if component.is_quiescent(cycle):
                        skipped += 1
                        if component._k_sleepable:
                            quiet = component._k_quiet + 1
                            if quiet >= _SLEEP_AFTER:
                                component._k_asleep = True
                                del self._awake[component]
                                self._asleep[component] = True
                                hint = component.next_event_cycle(cycle)
                                if hint is not None and hint > cycle:
                                    if heap_push(component, hint):
                                        heap_pushes += 1
                            else:
                                component._k_quiet = quiet
                    else:
                        component.tick(cycle)
                        ran += 1
                        component._k_quiet = 0
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
                    horizon = heap.peek_cycle()
                    for component in self._awake:
                        hint = component.next_event_cycle(cycle)
                        if hint is not None and hint < horizon:
                            horizon = hint
                    if horizon > cycle:
                        self._quiescent_until = horizon
                        stats.horizon_scans += 1
                self._cycle = cycle + 1
                if streak >= _DENSE_AFTER:
                    streak = 0
                    self._wiring_stale = True
                    self._run_reference(min(cycle + 1 + _DENSE_WINDOW, end))
                    window = self._cycle - cycle - 1
                    dense += window
                    ran_total += window * len(components)
        finally:
            stats.ticks_run += ran_total
            stats.ticks_skipped += skipped
            stats.ticks_slept += slept
            stats.cycles_polled += polled + dense
            stats.cycles_dense += dense
            stats.cycles_frozen += frozen
            stats.cycles_total += polled + dense + frozen
            stats.heap_pushes += heap_pushes

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
