"""Unit tests for the lazily-invalidated wake-event heap.

The :class:`~repro.sim.wakeheap.WakeHeap` is the fast kernel path's only
source of frozen-span horizons, so its ordering contract — no genuine
wake event is ever lost, spurious wakes are merely harmless — is pinned
here at the data-structure level, plus one kernel-level regression for
the stale-hint hazard: a hint that moves *earlier* after an external
event must supersede the already-queued later entry.
"""

import pytest

from repro.sim import Component, Simulator
from repro.sim.wakeheap import WakeHeap


class TestPushEliding:
    def test_first_push_inserts(self):
        heap = WakeHeap()
        assert heap.push("a", 10) is True
        assert len(heap) == 1 and bool(heap)

    def test_later_or_equal_push_is_elided(self):
        heap = WakeHeap()
        heap.push("a", 10)
        assert heap.push("a", 10) is False
        assert heap.push("a", 50) is False
        assert len(heap) == 1
        assert heap.elided == 2

    def test_earlier_push_supersedes_live_entry(self):
        # the stale-hint hazard: an entry at 100 must not delay a wake
        # that an external event has moved to 40
        heap = WakeHeap()
        heap.push("a", 100)
        assert heap.push("a", 40) is True
        assert heap.peek_cycle() == 40
        assert heap.pop_due(40) == ["a"]
        # the superseded entry at 100 is now stale and must NOT fire
        assert heap.pop_due(100) == []
        assert heap.stale_drops == 1

    def test_subjects_never_compared(self):
        # same cycle, unorderable subjects: the seq tiebreaker decides
        heap = WakeHeap()
        heap.push(object(), 5)
        heap.push(object(), 5)
        assert len(heap.pop_due(5)) == 2


class TestPopAndPeek:
    def test_pop_due_returns_only_due_entries_in_order(self):
        heap = WakeHeap()
        heap.push("late", 30)
        heap.push("early", 10)
        heap.push("mid", 20)
        assert heap.pop_due(20) == ["early", "mid"]
        assert heap.peek_cycle() == 30

    def test_pop_due_drops_stale_entries(self):
        heap = WakeHeap()
        heap.push("a", 10)
        heap.invalidate("a")
        assert heap.pop_due(10) == []
        assert heap.stale_drops == 1

    def test_peek_skips_stale_heads(self):
        heap = WakeHeap()
        heap.push("a", 10)
        heap.push("b", 20)
        heap.invalidate("a")
        assert heap.peek_cycle() == 20

    def test_peek_empty_is_infinite(self):
        assert WakeHeap().peek_cycle() == float("inf")

    def test_resubscribe_after_pop(self):
        # a popped subject re-schedules itself with fresh information
        heap = WakeHeap()
        heap.push("a", 10)
        assert heap.pop_due(10) == ["a"]
        assert heap.push("a", 15) is True
        assert heap.pop_due(15) == ["a"]

    def test_clear_forgets_everything(self):
        heap = WakeHeap()
        heap.push("a", 10)
        heap.clear()
        assert not heap and heap.peek_cycle() == float("inf")
        # and the side table was dropped too: a later push re-inserts
        assert heap.push("a", 99) is True


class RetimableTimer(Component):
    """Fires once at ``due``; the deadline can be moved mid-run.

    ``retime`` models an external event (register write, hypervisor
    decision) that changes the component's internal schedule without any
    channel activity — the documented protocol is to call
    :meth:`Simulator.wake` after such a silent mutation.
    """

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.due = None
        self.fired = []

    def tick(self, cycle):
        if self.due is None or cycle < self.due:
            return True
        self.fired.append(cycle)
        self.due = None
        return False

    def next_event_cycle(self, cycle):
        return self.due

    def wake_channels(self):
        # no channels: only the timer hint (or a global wake) ends the
        # quiescence, which is exactly what makes the timer sleepable
        return []

    def retime(self, due):
        self.due = due
        self.sim.wake()


class BusyUntil(Component):
    """Non-quiescent (but otherwise inert) until a fixed cycle.

    Keeps the kernel polling instead of freezing, so sleep-eligible
    neighbours actually accumulate their quiet streak and go onto the
    wake heap rather than being covered by awake-hint horizons.
    """

    def __init__(self, sim, name, until):
        super().__init__(sim, name)
        self.until = until

    def tick(self, cycle):
        return cycle >= self.until


class TestStaleHintRegression:
    """A sleeping component's queued hint moves earlier: the kernel must
    wake it at the *new* cycle, not the stale one."""

    def _run(self, fast):
        sim = Simulator("retime", fast=fast)
        timer = RetimableTimer(sim, "timer")
        BusyUntil(sim, "busy", until=200)
        timer.due = 5_000
        sim.run(1_000)           # long enough to sleep on the 5000 hint
        timer.retime(1_500)      # external event moves the wake EARLIER
        sim.run(2_000)           # window ends long before the stale 5000
        return timer.fired, sim.now

    def test_fast_path_honours_earlier_hint(self):
        fired, now = self._run(fast=True)
        assert fired == [1_500]
        assert now == 3_000

    def test_matches_reference(self):
        assert self._run(fast=False) == self._run(fast=True)

    def test_fast_path_actually_slept_on_the_stale_hint(self):
        # the regression is only meaningful if the first window really
        # put the timer to sleep with the 5000-cycle hint queued
        sim = Simulator("retime", fast=True)
        timer = RetimableTimer(sim, "timer")
        BusyUntil(sim, "busy", until=200)
        timer.due = 5_000
        sim.run(1_000)
        assert sim.skip_stats.cycles_frozen > 0
        assert sim.skip_stats.heap_pushes >= 1
        timer.retime(1_500)
        sim.run(2_000)
        assert timer.fired == [1_500]


@pytest.mark.parametrize("fast", (False, True))
def test_retimed_later_hint_is_also_safe(fast):
    # moving a deadline LATER leaves a stale earlier entry in the heap;
    # the resulting early wake is spurious but harmless
    sim = Simulator("retime", fast=fast)
    timer = RetimableTimer(sim, "timer")
    timer.due = 1_500
    sim.run(1_000)
    timer.retime(2_500)
    sim.run(2_000)
    assert timer.fired == [2_500]
    assert sim.now == 3_000
