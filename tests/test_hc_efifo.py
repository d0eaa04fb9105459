"""Unit tests for the eFIFO module (gated link + decoupling)."""

from repro.axi import DataBeat, make_read_request
from repro.hyperconnect import EFifoLink, GatedChannel, PortGate
from repro.sim import Channel, Simulator


def request(address=0, length=1):
    return make_read_request(address, length, 16)


class TestGatedChannel:
    def test_open_gate_behaves_normally(self):
        sim = Simulator("g")
        gate = PortGate()
        channel = GatedChannel(sim, "gc", gate)
        assert channel.can_push()
        channel.push("x")
        sim.step()
        assert channel.pop() == "x"

    def test_closed_gate_refuses_pushes(self):
        sim = Simulator("g")
        gate = PortGate(coupled=False)
        channel = GatedChannel(sim, "gc", gate)
        assert not channel.can_push()

    def test_gate_toggling(self):
        sim = Simulator("g")
        gate = PortGate()
        channel = GatedChannel(sim, "gc", gate)
        gate.coupled = False
        assert not channel.can_push()
        gate.coupled = True
        assert channel.can_push()

    def test_closed_gate_keeps_existing_items(self):
        sim = Simulator("g")
        gate = PortGate()
        channel = GatedChannel(sim, "gc", gate)
        channel.push("x")
        gate.coupled = False
        sim.step()
        # queued data remains poppable by the interconnect side
        assert channel.can_pop()


class TestEFifoLink:
    def test_request_channels_gated_response_channels_not(self):
        sim = Simulator("e")
        link = EFifoLink(sim, "p0")
        link.decouple()
        assert not link.ar.can_push()
        assert not link.aw.can_push()
        assert not link.w.can_push()
        # R and B are plain channels (HyperConnect just stops pushing)
        assert link.r.can_push()
        assert link.b.can_push()

    def test_couple_decouple_roundtrip(self):
        sim = Simulator("e")
        link = EFifoLink(sim, "p0")
        assert link.coupled
        link.decouple()
        assert not link.coupled
        link.couple()
        assert link.coupled
        assert link.ar.can_push()

    def test_one_cycle_latency(self):
        sim = Simulator("e")
        link = EFifoLink(sim, "p0")
        link.ar.push(request())
        assert not link.ar.can_pop()
        sim.step()
        assert link.ar.can_pop()

    def test_shared_gate_across_request_channels(self):
        sim = Simulator("e")
        link = EFifoLink(sim, "p0")
        assert link.ar.gate is link.aw.gate is link.w.gate is link.gate

    def test_initially_decoupled_option(self):
        sim = Simulator("e")
        link = EFifoLink(sim, "p0", coupled=False)
        assert not link.coupled

    def test_five_queues_exist(self):
        sim = Simulator("e")
        link = EFifoLink(sim, "p0")
        assert len(link.channels) == 5
        link.r.push(DataBeat(last=True))
        sim.step()
        assert link.r.can_pop()
