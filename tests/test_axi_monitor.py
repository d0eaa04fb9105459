"""Unit tests for the measurement probes."""

from repro.axi import (
    PropagationProbe,
    RespBeat,
    make_read_request,
    make_write_request,
)
from repro.sim import Channel, Component


class Forwarder(Component):
    """Moves one item per cycle between two channels."""

    def __init__(self, sim, name, source, destination):
        super().__init__(sim, name)
        self.source = source
        self.destination = destination

    def tick(self, cycle):
        if self.source.can_pop() and self.destination.can_push():
            self.destination.push(self.source.pop())


class Sink(Component):
    def __init__(self, sim, name, channel):
        super().__init__(sim, name)
        self.channel = channel

    def tick(self, cycle):
        if self.channel.can_pop():
            self.channel.pop()


def test_propagation_through_two_stages(sim):
    a = Channel(sim, "a", latency=1, capacity=4)
    b = Channel(sim, "b", latency=1, capacity=4)
    Forwarder(sim, "f", a, b)
    Sink(sim, "s", b)
    probe = PropagationProbe(a, b)
    a.push(make_read_request(0, 1, 16))
    sim.run(10)
    # push at 0, visible at 1, forwarded, visible on b at 2, popped at 2
    assert probe.latency_max == 2
    assert probe.stats.count == 1


def test_propagation_matches_split_descendants(sim):
    a = Channel(sim, "a", latency=1, capacity=4)
    b = Channel(sim, "b", latency=1, capacity=4)
    Sink(sim, "s", b)
    probe = PropagationProbe(a, b)
    parent = make_read_request(0, 32, 16)
    a.push(parent)
    sim.run(3)
    # a split descendant arrives downstream instead of the parent
    child = parent.split_child(0x0, 16, final_sub=False)
    b.push(child)
    sim.run(3)
    assert probe.stats.count == 1
    assert probe.latency_max is not None


def test_propagation_resp_beat_matched_via_origin(sim):
    a = Channel(sim, "a", latency=1, capacity=4)
    b = Channel(sim, "b", latency=1, capacity=4)
    Sink(sim, "s", b)
    probe = PropagationProbe(a, b)
    aw = make_write_request(0, 16, 16)
    sub = aw.split_child(0, 16, final_sub=True)
    a.push(RespBeat(addr_beat=sub))
    sim.run(2)
    b.push(RespBeat(addr_beat=aw))  # re-created response, same origin
    sim.run(3)
    assert probe.stats.count == 1


def test_propagation_max_samples_cap(sim):
    a = Channel(sim, "a", latency=1, capacity=None)
    b = Channel(sim, "b", latency=1, capacity=None)
    Forwarder(sim, "f", a, b)
    Sink(sim, "s", b)
    probe = PropagationProbe(a, b, max_samples=3)
    for i in range(10):
        a.push(make_read_request(i * 64, 1, 16))
        sim.step()
    sim.run(10)
    assert probe.stats.count == 3


def test_propagation_exit_on_push(sim):
    a = Channel(sim, "a", latency=1, capacity=4)
    b = Channel(sim, "b", latency=1, capacity=4)
    Forwarder(sim, "f", a, b)
    Sink(sim, "s", b)
    probe = PropagationProbe(a, b, exit_on="push")
    a.push(make_read_request(0, 1, 16))
    sim.run(10)
    assert probe.latency_max == 1  # pushed on b one cycle after a-push
