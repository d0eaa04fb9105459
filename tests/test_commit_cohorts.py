"""Unit tests for the fast path's channel commit body.

``CommitCohorts.flush`` promises semantics identical to calling
``Channel._commit`` on every dirty channel.  It is checked here directly
against the per-channel reference and pinned as the one entry point
every fast-path commit goes through.

The equivalence checks run over two payload kinds: plain Python tuples
and numpy-array-like payloads, whose truthiness raises and whose ``==``
is elementwise.  The commit must carry any payload through untouched,
never testing or comparing it.
"""

import pytest

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.sim import Channel, Simulator
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


def _key(item):
    return item.key if isinstance(item, _ArrayLike) else item


def _build(n_channels):
    sim = Simulator("cohorts", fast=True)
    channels = [
        Channel(sim, f"ch{i}", latency=LATENCIES[i % len(LATENCIES)],
                capacity=None)
        for i in range(n_channels)
    ]
    return sim, channels, CommitCohorts()


def _stage_traffic(channels, payload=tuple):
    """Stage a varied mix: multi-item, single-item, and pop-only dirt."""
    for index, channel in enumerate(channels):
        for item in range(index % 3 + 1):
            channel.push(payload((index, item)))


def _state(channel):
    return ([(ready, _key(item)) for ready, item in channel._queue],
            channel._occupancy, channel._dirty,
            [_key(item) for item in channel._staged],
            channel._popped_this_cycle)


@pytest.mark.parametrize("payload", ("python", "numpy"))
@pytest.mark.parametrize("n_channels", (4, 32), ids=("small", "bulk"))
def test_flush_matches_reference_commit(payload, n_channels):
    cycle = 37
    sim, channels, cohorts = _build(n_channels)
    _stage_traffic(channels, PAYLOADS[payload])
    dirty = list(sim._dirty_channels)
    assert len(dirty) == n_channels

    # the reference: an identical twin committed channel by channel
    ref_sim, ref_channels, __ = _build(n_channels)
    _stage_traffic(ref_channels, PAYLOADS[payload])
    for channel in ref_channels:
        channel._commit(cycle)

    cohorts.flush(cycle, sim._dirty_channels)
    assert sim._dirty_channels == []
    for channel, reference in zip(channels, ref_channels):
        assert _state(channel) == _state(reference)
        # ready stamps really are cycle + latency
        for ready, __item in channel._queue:
            assert ready == cycle + channel.latency


def test_pop_accounting_matches_reference():
    # a channel dirtied by pops alone (no staged pushes) must shrink its
    # occupancy exactly as Channel._commit does
    cycle = 50
    sim, channels, cohorts = _build(2)
    channel = channels[0]
    channel.push("a")
    channel.push("b")
    cohorts.flush(cycle, sim._dirty_channels)
    occupancy_before = channel._occupancy
    assert channel.can_pop() is False        # heads ready at cycle + 1
    sim._cycle = cycle + channel.latency     # make the heads visible
    assert channel.pop() == "a"
    cohorts.flush(cycle + channel.latency, sim._dirty_channels)
    assert channel._occupancy == occupancy_before - 1
    assert channel._popped_this_cycle == 0
    assert channel._dirty is False


def test_every_fast_path_commit_goes_through_flush(monkeypatch):
    # the end-to-end layer tracer times the sim.commit layer by wrapping
    # CommitCohorts.flush, so every fast-path commit batch must be one
    # flush call
    calls = []
    original = CommitCohorts.flush

    def counting_flush(self, cycle, dirty):
        calls.append(cycle)
        return original(self, cycle, dirty)

    monkeypatch.setattr(CommitCohorts, "flush", counting_flush)
    soc = SocSystem.build(ZCU102, n_ports=2, fast=True)
    for port in range(2):
        dma = AxiDma(soc.sim, f"dma{port}", soc.port(port))
        dma.enqueue_read(0x1000_0000 + port * 0x10_0000, 4096)
    soc.sim.run(50_000)
    batches = soc.sim.skip_stats.commit_batches
    assert batches > 0
    assert len(calls) == batches
