"""Unit tests for the simulation kernel."""

import pytest

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.sim import Channel, Component, SimulationError, Simulator
from repro.system import SocSystem


class Producer(Component):
    """Pushes an incrementing counter every cycle."""

    def __init__(self, sim, name, channel):
        super().__init__(sim, name)
        self.channel = channel
        self.counter = 0

    def tick(self, cycle):
        if self.channel.can_push():
            self.channel.push(self.counter)
            self.counter += 1


class Consumer(Component):
    """Pops everything visible."""

    def __init__(self, sim, name, channel):
        super().__init__(sim, name)
        self.channel = channel
        self.received = []

    def tick(self, cycle):
        while self.channel.can_pop():
            self.received.append((cycle, self.channel.pop()))


class TestClock:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0

    def test_step_advances_one_cycle(self):
        sim = Simulator()
        sim.step()
        assert sim.now == 1

    def test_run_fixed_cycles(self):
        sim = Simulator()
        sim.run(17)
        assert sim.now == 17

    def test_negative_run_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().run(-1)

    def test_seconds_conversion(self):
        sim = Simulator(clock_hz=100e6)
        sim.run(100)
        assert sim.seconds() == pytest.approx(1e-6)
        assert sim.seconds(50) == pytest.approx(0.5e-6)

    def test_invalid_clock_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(clock_hz=0)


class TestExecution:
    def test_producer_consumer_pipeline(self):
        sim = Simulator()
        channel = Channel(sim, "ch", latency=1, capacity=2)
        producer = Producer(sim, "p", channel)
        consumer = Consumer(sim, "c", channel)
        sim.run(10)
        values = [v for (_, v) in consumer.received]
        assert values == list(range(9))  # one cycle of pipeline fill

    def test_tick_order_does_not_matter(self):
        # identical system, consumer registered before producer
        def build(consumer_first):
            sim = Simulator()
            channel = Channel(sim, "ch", latency=1, capacity=2)
            if consumer_first:
                consumer = Consumer(sim, "c", channel)
                producer = Producer(sim, "p", channel)
            else:
                producer = Producer(sim, "p", channel)
                consumer = Consumer(sim, "c", channel)
            sim.run(20)
            return [v for (_, v) in consumer.received]

        assert build(True) == build(False)

    def test_run_until_returns_elapsed(self):
        sim = Simulator()
        elapsed = sim.run_until(lambda: sim.now >= 7)
        assert elapsed == 7

    def test_run_until_timeout_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_run_until_check_every(self):
        sim = Simulator()
        sim.run_until(lambda: sim.now >= 10, check_every=4)
        # predicate only checked every 4 cycles, so we overshoot to 12
        assert sim.now == 12

    def test_run_until_never_overshoots_max_cycles(self):
        # regression: with check_every > 1 the kernel used to run whole
        # strides past max_cycles before noticing the timeout
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, max_cycles=10, check_every=4)
        assert sim.now == 10

    def test_run_until_exact_for_check_every_one(self):
        sim = Simulator()
        elapsed = sim.run_until(lambda: sim.now >= 13, check_every=1)
        assert elapsed == 13 and sim.now == 13

    def test_run_until_quantisation_bounded(self):
        # overshoot past the predicate is bounded by check_every - 1
        sim = Simulator()
        elapsed = sim.run_until(lambda: sim.now >= 10, check_every=7)
        assert 10 <= elapsed <= 16
        assert elapsed % 7 == 0

    def test_run_until_rejects_bad_check_every(self):
        with pytest.raises(SimulationError):
            Simulator().run_until(lambda: True, check_every=0)

    def test_finish_blocks_further_steps(self):
        sim = Simulator()
        sim.finish()
        with pytest.raises(SimulationError):
            sim.step()


class PulseSource(Component):
    """Pushes one item at each scheduled cycle; quiescent in between."""

    def __init__(self, sim, name, channel, schedule):
        super().__init__(sim, name)
        self.channel = channel
        self.schedule = sorted(schedule)
        self._index = 0

    def _due(self, cycle):
        return (self._index < len(self.schedule)
                and cycle >= self.schedule[self._index])

    def tick(self, cycle):
        if not self._due(cycle):
            return True
        if self.channel.can_push():
            self.channel.push(cycle)
            self._index += 1
        return False

    def next_event_cycle(self, cycle):
        if self._index < len(self.schedule):
            return self.schedule[self._index]
        return None


class QuiescentConsumer(Consumer):
    """A consumer that reports idle when nothing is visible."""

    def tick(self, cycle):
        if not self.channel.can_pop():
            return True
        super().tick(cycle)
        return False


class TestFastPath:
    """Unit-level checks of the fast kernel path."""

    SCHEDULE = (3, 4, 200, 1000, 1001)

    def build(self, fast):
        sim = Simulator("fp", fast=fast)
        channel = Channel(sim, "ch", latency=2, capacity=4)
        source = PulseSource(sim, "src", channel, self.SCHEDULE)
        sink = QuiescentConsumer(sim, "snk", channel)
        return sim, source, sink

    def test_run_matches_reference(self):
        outputs = []
        for fast in (False, True):
            sim, _, sink = self.build(fast)
            sim.run(1200)
            outputs.append((sim.now, sink.received))
        assert outputs[0] == outputs[1]

    def test_step_matches_reference(self):
        outputs = []
        for fast in (False, True):
            sim, _, sink = self.build(fast)
            for _ in range(250):
                sim.step()
            outputs.append((sim.now, sink.received))
        assert outputs[0] == outputs[1]

    def test_run_until_matches_reference(self):
        elapsed = []
        for fast in (False, True):
            sim, _, sink = self.build(fast)
            elapsed.append(sim.run_until(lambda: len(sink.received) >= 4,
                                         max_cycles=5000))
        assert elapsed[0] == elapsed[1]

    @pytest.mark.parametrize("check_every", (1, 3, 7, 64))
    def test_run_until_check_every_stops_match_reference(self, check_every):
        outcomes = []
        for fast in (False, True):
            sim, _, sink = self.build(fast)
            sampled = []

            def done():
                sampled.append(sim.now)
                return len(sink.received) >= 4

            elapsed = sim.run_until(done, max_cycles=5000,
                                    check_every=check_every)
            outcomes.append((elapsed, sim.now, sampled, sink.received))
        assert outcomes[0] == outcomes[1]
        assert all(cycle % check_every == 0 for cycle in outcomes[0][2])

    def test_bulk_skip_happens(self):
        sim, _, _ = self.build(fast=True)
        sim.run(1200)
        stats = sim.skip_stats
        assert stats.cycles_frozen > 900      # the long idle stretches
        assert stats.ticks_skipped > 0
        assert stats.cycles_total == 1200
        assert stats.cycles_total == stats.cycles_polled + stats.cycles_frozen

    def test_reference_path_ignores_stats(self):
        sim, _, _ = self.build(fast=False)
        sim.run(1200)
        assert sim.skip_stats.cycles_total == 0

    def test_external_push_unfreezes(self):
        sim = Simulator("wake", fast=True)
        channel = Channel(sim, "ch", latency=1)
        sink = QuiescentConsumer(sim, "snk", channel)
        sim.run(50)                 # system is frozen (nothing scheduled)
        assert sim.skip_stats.cycles_frozen > 0
        channel.push(42)            # external mutation marks the channel
        sim.run(10)
        assert [v for (_, v) in sink.received] == [42]

    def test_wake_invalidates_silent_mutation(self):
        class Flagged(Component):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.armed = False
                self.fired_at = None

            def tick(self, cycle):
                if not (self.armed and self.fired_at is None):
                    return True
                self.fired_at = cycle
                return False

        sim = Simulator("wake2", fast=True)
        component = Flagged(sim, "f")
        sim.run(30)                 # frozen: nothing to do, no horizon
        component.armed = True      # silent attribute mutation...
        sim.wake()                  # ...must be advertised to the kernel
        sim.run(5)
        assert component.fired_at == 30

    def test_skip_stats_reset_and_dict(self):
        sim, _, _ = self.build(fast=True)
        sim.run(1200)
        stats = sim.skip_stats
        as_dict = stats.as_dict()
        assert as_dict["cycles_total"] == 1200
        assert set(as_dict) >= {"cycles_total", "cycles_polled",
                                "cycles_frozen", "ticks_run",
                                "ticks_skipped"}
        stats.reset()
        assert stats.cycles_total == 0 and stats.ticks_run == 0

    def test_finish_blocks_fast_run(self):
        sim, _, _ = self.build(fast=True)
        sim.finish()
        with pytest.raises(SimulationError):
            sim.run(10)


class Countdown(Component):
    """Bumps a countdown every cycle and reports nothing about it.

    Its tick returns ``None``, which the kernel must read as "may have
    acted": the system never freezes around it.
    """

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.remaining = 1000
        self.expired_at = None

    def tick(self, cycle):
        self.remaining -= 1
        if self.remaining == 0:
            self.expired_at = cycle


class TestIdleReports:
    """The fast path learns idleness only from what ``tick`` returns."""

    def test_unreported_tick_is_never_treated_as_idle(self):
        def run(fast):
            sim = Simulator("countdown", fast=fast)
            countdown = Countdown(sim, "c")
            sim.run(1500)
            return sim, (countdown.remaining, countdown.expired_at)

        fast_sim, fast_state = run(fast=True)
        __, reference_state = run(fast=False)
        assert fast_state == reference_state == (-500, 999)
        stats = fast_sim.skip_stats
        assert stats.cycles_frozen == 0
        assert stats.ticks_skipped == 0

    def test_kernel_never_consults_is_quiescent(self):
        class Idle(Component):
            def tick(self, cycle):
                return True

            def is_quiescent(self, cycle):
                raise AssertionError("the kernel polled is_quiescent")

        sim = Simulator("idle", fast=True)
        Idle(sim, "i")
        sim.run(100)
        assert sim.skip_stats.cycles_frozen > 0


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

    def retime(self, due):
        self.due = due
        self.sim.wake()


class BusyUntil(Component):
    """Acts (without any effect) every cycle until a fixed cycle.

    Keeps the kernel polling, so the freeze on a neighbour's hint starts
    mid-run rather than at the first cycle.
    """

    def __init__(self, sim, name, until):
        super().__init__(sim, name)
        self.until = until

    def tick(self, cycle):
        return cycle >= self.until


class TestStaleHintRegression:
    """A hint the kernel froze on moves earlier: the kernel must act at
    the *new* cycle, not the stale one."""

    def _run(self, fast):
        sim = Simulator("retime", fast=fast)
        timer = RetimableTimer(sim, "timer")
        BusyUntil(sim, "busy", until=200)
        timer.due = 5_000
        sim.run(1_000)           # long enough to freeze on the 5000 hint
        timer.retime(1_500)      # external event moves the wake EARLIER
        sim.run(2_000)           # window ends long before the stale 5000
        return timer.fired, sim.now

    def test_fast_path_honours_earlier_hint(self):
        fired, now = self._run(fast=True)
        assert fired == [1_500]
        assert now == 3_000

    def test_matches_reference(self):
        assert self._run(fast=False) == self._run(fast=True)

    def test_fast_path_actually_froze_on_the_stale_hint(self):
        # the regression is only meaningful if the first window really
        # froze with the 5000-cycle hint as its horizon
        sim = Simulator("retime", fast=True)
        timer = RetimableTimer(sim, "timer")
        BusyUntil(sim, "busy", until=200)
        timer.due = 5_000
        sim.run(1_000)
        assert sim.skip_stats.cycles_frozen > 0
        timer.retime(1_500)
        sim.run(2_000)
        assert timer.fired == [1_500]


@pytest.mark.parametrize("fast", (False, True))
def test_retimed_later_hint_is_also_safe(fast):
    # moving a deadline LATER after the kernel froze on the earlier one
    sim = Simulator("retime", fast=fast)
    timer = RetimableTimer(sim, "timer")
    timer.due = 1_500
    sim.run(1_000)
    timer.retime(2_500)
    sim.run(2_000)
    assert timer.fired == [2_500]
    assert sim.now == 3_000


class OneShotProducer(Component):
    """Stages one item at cycle 0, then idles."""

    def __init__(self, sim, name, channel):
        super().__init__(sim, name)
        self.channel = channel
        self.sent = False

    def tick(self, cycle):
        if self.sent:
            return True
        self.channel.push("item")
        self.sent = True
        return False


@pytest.mark.parametrize("fast", (False, True))
def test_freeze_ends_exactly_at_a_far_future_head(fast):
    # no component hint covers the delivery: only the scan of queued
    # channel heads can end the freeze, and it must end on the head's
    # ready cycle, not before or after
    sim = Simulator("slow", fast=fast)
    channel = Channel(sim, "slow", 500, None)
    OneShotProducer(sim, "producer", channel)
    sink = QuiescentConsumer(sim, "consumer", channel)
    sim.run(1_000)
    assert sink.received == [(500, "item")]
    if fast:
        assert sim.skip_stats.cycles_frozen > 0


class TestRegistry:
    def test_lookup_component_and_channel(self):
        sim = Simulator()
        channel = Channel(sim, "ch")
        producer = Producer(sim, "p", channel)
        assert sim.lookup("ch") is channel
        assert sim.lookup("p") is producer

    def test_lookup_unknown_raises(self):
        with pytest.raises(SimulationError):
            Simulator().lookup("ghost")

    def test_duplicate_component_name_rejected(self):
        sim = Simulator()
        channel = Channel(sim, "ch")
        Producer(sim, "p", channel)
        with pytest.raises(SimulationError):
            Consumer(sim, "p", channel)

    def test_views_are_copies(self):
        sim = Simulator()
        channel = Channel(sim, "ch")
        components = sim.components
        channels = sim.channels
        components.clear()
        channels.clear()
        assert sim.lookup("ch") is channel

    def test_idle_reflects_channel_contents(self):
        sim = Simulator()
        channel = Channel(sim, "ch")
        assert sim.idle()
        channel.push(1)
        assert not sim.idle()

    def test_idle_counts_items_still_in_flight(self):
        sim = Simulator()
        channel = Channel(sim, "ch", latency=3)
        channel.push(1)
        sim.step()                  # committed, not yet visible
        assert not channel.can_pop() and not sim.idle()
        sim.run(2)
        channel.pop()
        assert sim.idle()


class Finisher(Component):
    """Calls ``sim.finish()`` from inside its tick at one chosen cycle."""

    def __init__(self, sim, name, at):
        super().__init__(sim, name)
        self.at = at
        self.ticked = []

    def tick(self, cycle):
        self.ticked.append(cycle)
        if cycle == self.at:
            self.sim.finish()


class Spawner(Component):
    """Registers a new producer from inside its tick at one chosen cycle."""

    def __init__(self, sim, name, channel, at):
        super().__init__(sim, name)
        self.channel = channel
        self.at = at
        self.child = None

    def tick(self, cycle):
        if cycle == self.at:
            self.child = Producer(self.sim, "child", self.channel)


@pytest.mark.parametrize("fast", (False, True), ids=("reference", "fast"))
class TestRunLoopEdges:
    """Edge cases of the run loops, identical on both kernel paths."""

    def test_finish_inside_tick_stops_at_next_cycle_boundary(self, fast):
        sim = Simulator(fast=fast)
        channel = Channel(sim, "ch", latency=1, capacity=4)
        finisher = Finisher(sim, "f", at=5)
        consumer = Consumer(sim, "c", channel)
        producer = Producer(sim, "p", channel)
        with pytest.raises(SimulationError):
            sim.run(20)
        # the finishing cycle completes (later components tick, pushes
        # commit); the next cycle boundary raises
        assert sim.now == 6
        assert finisher.ticked == [0, 1, 2, 3, 4, 5]
        assert [v for (_, v) in consumer.received] == [0, 1, 2, 3, 4]
        assert producer.counter == 6 and len(channel) == 1
        with pytest.raises(SimulationError):
            sim.run(1)
        assert sim.now == 6

    def test_run_zero_after_finish_is_a_noop(self, fast):
        sim = Simulator(fast=fast)
        sim.run(3)
        sim.finish()
        sim.run(0)
        assert sim.now == 3
        with pytest.raises(SimulationError):
            sim.step()
        assert sim.now == 3

    def test_component_registered_mid_tick_ticks_that_cycle(self, fast):
        sim = Simulator(fast=fast)
        channel = Channel(sim, "ch", latency=1, capacity=None)
        spawner = Spawner(sim, "s", channel, at=4)
        sim.run(8)
        assert spawner.child.counter == 4   # ticked on cycles 4..7


def test_reference_ticks_go_through_the_class_attribute():
    # class-level tick wrappers installed between runs (as a layer
    # tracer does) must see every reference tick
    calls = []

    class Counted(Producer):
        pass

    sim = Simulator()
    Counted(sim, "p", Channel(sim, "ch", capacity=None))
    sim.run(3)
    original = Counted.tick
    Counted.tick = lambda self, cycle: (calls.append(cycle),
                                        original(self, cycle))
    sim.run(4)
    sim.step()
    sim.run_until(lambda: sim.now >= 10)
    assert calls == list(range(3, 10))


class QuiescentNoop(Component):
    """Never does anything; registering one drops the cached horizon."""

    def tick(self, cycle):
        return True


class TestMidRunRegistration:
    """A registration between runs must not lose a channel head due on
    the very next cycle."""

    @staticmethod
    def _bytes_read(fast):
        soc = SocSystem.build(ZCU102, interconnect="smartconnect",
                              n_ports=2, fast=fast)
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        dma.enqueue_read(0x1000_0000, 64)
        # after 11 cycles the read's head on the latency-6 soc.m.AR
        # channel is due at cycle 12, one cycle after the registration
        soc.sim.run(11)
        QuiescentNoop(soc.sim, "noop")
        soc.sim.run(5000)
        return dma.bytes_read

    def test_head_due_next_cycle_survives_rebuild(self):
        assert self._bytes_read(fast=False) == 64
        assert self._bytes_read(fast=True) == 64
