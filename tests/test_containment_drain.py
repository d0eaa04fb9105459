"""Direct unit tests of the pure containment helper.

:func:`~repro.hyperconnect.supervisor.drain_and_complete_orphans` is the
drain-and-synthesize core of a faulted Transaction Supervisor, factored
out so it can be exercised here without building a HyperConnect: just an
eFIFO link, the orphan queues, and a stats collector.  The tests mirror
the TS contract by subscribing the same return-channel accounting the TS
installs (synthesized beats decrement the owed counts exactly like
genuine ones).
"""

from collections import deque

from repro.axi.payloads import AddrBeat
from repro.axi.types import ChannelName, Resp
from repro.hyperconnect import drain_and_complete_orphans
from repro.hyperconnect.efifo import EFifoLink
from repro.platforms import ZCU102
from repro.sim import Simulator
from repro.sim.stats import PortFaultStats


def _ar(txn_id, length, address=0x1000_0000):
    return AddrBeat(channel=ChannelName.AR, txn_id=txn_id, address=address,
                    length=length, size_bytes=16)


def _aw(txn_id, length, address=0x2000_0000):
    return AddrBeat(channel=ChannelName.AW, txn_id=txn_id, address=address,
                    length=length, size_bytes=16)


class Rig:
    """An eFIFO plus the orphan queues a faulted TS would own."""

    def __init__(self, data_depth=32):
        self.sim = Simulator("drain", clock_hz=ZCU102.pl_clock_hz)
        self.link = EFifoLink(self.sim, "p", data_bytes=16,
                              data_depth=data_depth)
        self.inflight_reads = deque()
        self.inflight_writes = deque()
        self.stats = PortFaultStats()
        self.r_beats = []
        self.b_beats = []
        # the TS's return-channel accounting, verbatim: every pushed R/B
        # (synthesized or genuine) retires owed work
        self.link.r.subscribe_push(self._on_r)
        self.link.b.subscribe_push(self._on_b)

    def _on_r(self, cycle, beat):
        self.r_beats.append(beat)
        if self.inflight_reads:
            entry = self.inflight_reads[0]
            entry[1] -= 1
            if entry[1] <= 0:
                self.inflight_reads.popleft()

    def _on_b(self, cycle, beat):
        self.b_beats.append(beat)
        if self.inflight_writes:
            self.inflight_writes.popleft()

    def stage(self, *, ar=(), aw=(), w_beats=0):
        """Push HA-side traffic while coupled, then end the cycle and
        decouple (containment always starts with the gate already
        closed)."""
        for beat in ar:
            assert self.link.ar.try_push(beat)
        for beat in aw:
            assert self.link.aw.try_push(beat)
        for _ in range(w_beats):
            assert self.link.w.try_push(object())
        self.sim.run(1)
        self.link.decouple()

    def containment_call(self, resp=Resp.SLVERR):
        drain_and_complete_orphans(self.link, self.inflight_reads,
                                   self.inflight_writes, resp, self.stats)


class TestDrain:
    def test_swallows_everything_visible_in_the_efifo(self):
        rig = Rig()
        rig.stage(ar=[_ar(1, 4), _ar(2, 2)], aw=[_aw(3, 3)], w_beats=3)
        rig.containment_call()
        assert rig.stats.drained_requests == 3
        assert rig.stats.drained_w_beats == 3
        # drain and synthesis share the call: the first synthesized R/B
        # already retired one owed beat and the (single) write orphan
        assert [owed for __, owed in rig.inflight_reads] == [3, 2]
        assert not rig.inflight_writes
        assert not rig.link.ar.can_pop()
        assert not rig.link.aw.can_pop()
        assert not rig.link.w.can_pop()
        # the closed gate refuses fresh HA pushes while draining
        assert not rig.link.ar.can_push()
        assert not rig.link.w.can_push()

    def test_read_queue_carries_origin_and_owed_length(self):
        rig = Rig()
        origin = _ar(7, 5)
        rig.stage(ar=[origin])
        rig.containment_call()
        assert rig.inflight_reads[0][0] is origin
        # ingested owing its full 5-beat length; the call's one
        # synthesized beat already paid the first back
        assert rig.inflight_reads[0][1] == 4


class TestSynthesis:
    def test_at_most_one_beat_per_channel_per_call(self):
        rig = Rig()
        rig.stage(ar=[_ar(1, 3)], aw=[_aw(2, 1), _aw(3, 1)])
        rig.containment_call()
        assert rig.stats.synth_r_beats == 1
        assert rig.stats.synth_b_beats == 1

    def test_completes_all_orphans_over_repeated_calls(self):
        rig = Rig()
        rig.stage(ar=[_ar(1, 3), _ar(2, 2)], aw=[_aw(3, 1)])
        for _ in range(8):
            rig.containment_call()
        assert not rig.inflight_reads
        assert not rig.inflight_writes
        assert rig.stats.synth_r_beats == 5
        assert rig.stats.synth_b_beats == 1
        # three origins answered: two reads (counted on their last beat)
        # plus one write
        assert rig.stats.orphans_completed == 3
        lasts = [beat.last for beat in rig.r_beats]
        assert lasts == [False, False, True, False, True]
        assert [beat.txn_id for beat in rig.r_beats] == [1, 1, 1, 2, 2]
        assert rig.b_beats[0].txn_id == 3

    def test_synth_resp_is_carried_on_every_beat(self):
        rig = Rig()
        rig.stage(ar=[_ar(1, 2)], aw=[_aw(2, 1)])
        for _ in range(4):
            rig.containment_call(resp=Resp.DECERR)
        assert all(beat.resp is Resp.DECERR for beat in rig.r_beats)
        assert all(beat.resp is Resp.DECERR for beat in rig.b_beats)

    def test_respects_return_channel_backpressure(self):
        rig = Rig(data_depth=1)
        rig.stage(ar=[_ar(1, 3)])
        rig.containment_call()
        assert rig.stats.synth_r_beats == 1
        # the single-slot R queue is full: a second call must not push
        rig.containment_call()
        assert rig.stats.synth_r_beats == 1
        # consumer side drains one slot; the freed capacity becomes
        # visible at the end of the cycle, then synthesis resumes
        rig.sim.run(1)
        assert rig.link.r.can_pop()
        rig.link.r.pop()
        rig.sim.run(1)
        rig.containment_call()
        assert rig.stats.synth_r_beats == 2

    def test_no_work_is_a_no_op(self):
        rig = Rig()
        rig.link.decouple()
        rig.containment_call()
        assert rig.stats.as_dict() == PortFaultStats().as_dict()
        assert not rig.r_beats and not rig.b_beats
