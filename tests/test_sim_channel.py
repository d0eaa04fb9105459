"""Unit tests for the registered FIFO channel."""

import pytest

from repro.sim import Channel, ChannelError, ConfigurationError, Simulator


def make(sim, latency=1, capacity=4, name="ch"):
    return Channel(sim, name, latency=latency, capacity=capacity)


class TestConstruction:
    def test_zero_latency_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            make(sim, latency=0)

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            make(sim, capacity=0)

    def test_unbounded_capacity_allowed(self, sim):
        channel = make(sim, capacity=None)
        for i in range(1000):
            channel.push(i)
        assert channel.can_push()

    def test_duplicate_name_rejected(self, sim):
        make(sim, name="dup")
        with pytest.raises(Exception):
            make(sim, name="dup")


class TestVisibility:
    def test_item_invisible_same_cycle(self, sim):
        channel = make(sim)
        channel.push("x")
        assert not channel.can_pop()

    def test_item_visible_after_latency(self, sim):
        channel = make(sim, latency=3)
        channel.push("x")
        for _ in range(3):
            assert not channel.can_pop()
            sim.step()
        assert channel.can_pop()
        assert channel.pop() == "x"

    def test_fifo_order_preserved(self, sim):
        channel = make(sim, capacity=None)
        for i in range(5):
            channel.push(i)
        sim.step()
        assert channel.drain() == [0, 1, 2, 3, 4]

    def test_items_pushed_across_cycles_become_visible_in_order(self, sim):
        channel = make(sim, latency=2, capacity=None)
        channel.push("a")              # pushed at cycle 0, visible at 2
        sim.step()
        channel.push("b")              # pushed at cycle 1, visible at 3
        sim.step()
        assert channel.pop() == "a"
        assert not channel.can_pop()   # 'b' only at cycle 3
        sim.step()
        assert channel.pop() == "b"


class TestBackpressure:
    def test_push_to_full_raises(self, sim):
        channel = make(sim, capacity=1)
        channel.push("a")
        assert not channel.can_push()
        with pytest.raises(ChannelError):
            channel.push("b")

    def test_pop_frees_space_only_next_cycle(self, sim):
        channel = make(sim, capacity=1)
        channel.push("a")
        sim.step()
        channel.pop()
        # registered-full: the slot frees at the end of the cycle, not
        # immediately
        assert not channel.can_push()
        sim.step()
        assert channel.can_push()

    def test_full_throughput_with_capacity_two(self, sim):
        channel = make(sim, latency=1, capacity=2)
        delivered = []
        channel.push(0)
        sim.step()
        for i in range(1, 50):
            if channel.can_pop():
                delivered.append(channel.pop())
            assert channel.can_push()
            channel.push(i)
            sim.step()
        # one item delivered per cycle after the pipeline fill
        assert delivered == list(range(49))

    def test_can_push_multi_count(self, sim):
        channel = make(sim, capacity=3)
        channel.push(1)
        assert channel.can_push(2)
        assert not channel.can_push(3)


class TestMisuse:
    def test_pop_empty_raises(self, sim):
        channel = make(sim)
        with pytest.raises(ChannelError):
            channel.pop()

    def test_pop_before_visibility_raises(self, sim):
        channel = make(sim, latency=5)
        channel.push("x")
        sim.step()
        with pytest.raises(ChannelError):
            channel.pop()


class TestIntrospection:
    def test_counters(self, sim):
        channel = make(sim, capacity=None)
        for i in range(3):
            channel.push(i)
        sim.step()
        channel.pop()
        assert channel.pushed_total == 3
        assert channel.popped_total == 1
        assert len(channel) == 2

    def test_is_idle(self, sim):
        channel = make(sim)
        assert channel.is_idle
        channel.push(1)
        assert not channel.is_idle
        sim.step()
        channel.pop()
        assert channel.is_idle

    def test_clear(self, sim):
        channel = make(sim)
        channel.push(1)
        sim.step()
        channel.push(2)
        channel.clear()
        assert channel.is_idle
        assert not channel.can_pop()

    def test_occupancy_includes_pushed_and_popped(self, sim):
        channel = make(sim, capacity=4)
        channel.push(1)
        channel.push(2)
        assert channel.occupancy == 2
        sim.step()
        channel.pop()
        channel.push(3)
        assert channel.occupancy == 3  # 2 queued + 1 popped this cycle


class TestListeners:
    def test_push_listener_sees_cycle_and_item(self, sim):
        channel = make(sim)
        seen = []
        channel.subscribe_push(lambda cycle, item: seen.append((cycle, item)))
        sim.step()
        channel.push("x")
        assert seen == [(1, "x")]

    def test_pop_listener(self, sim):
        channel = make(sim)
        seen = []
        channel.subscribe_pop(lambda cycle, item: seen.append((cycle, item)))
        channel.push("x")
        sim.step()
        channel.pop()
        assert seen == [(1, "x")]
