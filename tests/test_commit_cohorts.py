"""Unit tests for the end-of-cycle body both kernel loops share.

A push stamps its item ``cycle + latency`` when it is made, so
``CommitCohorts.flush`` only frees the slots popped this cycle and clears
the dirty flags.  It is checked here directly and pinned as the one
entry point every end-of-cycle step of either kernel loop goes through.

The flush check runs over two payload kinds: plain Python tuples and
numpy-array-like payloads, whose truthiness raises and whose ``==`` is
elementwise.  The flush must leave any payload untouched, never testing
or comparing it.
"""

import pytest

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.sim import Channel, Component, Simulator
from repro.sim.commit import CommitCohorts
from repro.system import SocSystem

LATENCIES = (1, 2, 3)


class _ArrayLike:
    """A payload that behaves like a numpy array under ``bool`` and ``==``.

    A stand-in, so the check needs no numpy install.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __bool__(self):
        raise ValueError("truth value of an array is ambiguous")

    def __eq__(self, other):
        return _ArrayLike(("eq", self.key, other))

    __hash__ = None


PAYLOADS = {"python": tuple, "numpy": _ArrayLike}


@pytest.mark.parametrize("payload", ("python", "numpy"))
def test_flush_frees_exactly_the_popped_slots(payload):
    make = PAYLOADS[payload]
    sim = Simulator("cohorts")
    channels = [
        Channel(sim, f"ch{i}", latency=LATENCIES[i % len(LATENCIES)],
                capacity=None)
        for i in range(6)
    ]
    cohorts = CommitCohorts()
    for index, channel in enumerate(channels):
        for item in range(3):
            channel.push(make((index, item)))
    cohorts.flush(0, sim._dirty_channels)
    sim._cycle = max(LATENCIES)              # every head is visible
    for index, channel in enumerate(channels):
        for __ in range(index % 3):          # pop 0, 1 or 2 items
            channel.pop()
    dirty = sim._dirty_channels
    assert dirty == [channel for index, channel in enumerate(channels)
                     if index % 3]
    # a pop holds its slot until the end of its cycle
    assert [channel.occupancy for channel in channels] == [3] * 6
    queued = [list(channel._queue) for channel in channels]

    cohorts.flush(sim.now, dirty)
    assert dirty == []
    for index, channel in enumerate(channels):
        assert channel.occupancy == 3 - index % 3 == len(channel._queue)
        assert channel._popped_this_cycle == 0
        assert channel._dirty is False
        # every queued item is left in place, stamp and payload
        assert len(channel._queue) == len(queued[index])
        assert all(entry is before for entry, before
                   in zip(channel._queue, queued[index]))


class _Relay(Component):
    """Pops the visible head, then pushes the cycle number, every cycle."""

    def __init__(self, sim, channel):
        super().__init__(sim, "relay")
        self.channel = channel
        self.popped = []

    def tick(self, cycle):
        channel = self.channel
        item = channel.try_pop()
        if item is not None:
            self.popped.append((cycle, item))
        channel.push(cycle)
        assert channel._queue[-1] == (cycle + channel.latency, cycle)
        # the head popped this cycle does not reveal this cycle's push
        assert not channel.can_pop()
        return False


@pytest.mark.parametrize("latency", LATENCIES)
def test_push_is_stamped_when_it_is_made(latency):
    sim = Simulator("stamp")
    channel = Channel(sim, "ch", latency=latency, capacity=None)
    relay = _Relay(sim, channel)
    sim.run(10)
    assert relay.popped == [(cycle + latency, cycle)
                            for cycle in range(10 - latency)]
    # a push from outside a run is stamped the same way
    channel.try_push("late")
    assert channel._queue[-1] == (sim.now + latency, "late")
    assert channel.occupancy == latency + 1


def test_every_fast_path_commit_goes_through_flush(monkeypatch):
    # the end-to-end layer tracer times the sim.commit layer by wrapping
    # CommitCohorts.flush, so every end-of-cycle step of either kernel
    # loop must be one flush call, on the same cycles
    calls = []
    original = CommitCohorts.flush

    def counting_flush(self, cycle, dirty):
        calls.append(cycle)
        return original(self, cycle, dirty)

    monkeypatch.setattr(CommitCohorts, "flush", counting_flush)
    cycles = {}
    for fast in (True, False):
        calls.clear()
        soc = SocSystem.build(ZCU102, n_ports=2, fast=fast)
        for port in range(2):
            dma = AxiDma(soc.sim, f"dma{port}", soc.port(port))
            dma.enqueue_read(0x1000_0000 + port * 0x10_0000, 4096)
        soc.sim.run(50_000)
        cycles[fast] = list(calls)
        if fast:
            assert len(calls) == soc.sim.skip_stats.commit_batches > 0
    assert cycles[False] == cycles[True]
