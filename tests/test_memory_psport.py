"""Unit tests for the FPGA-PS port as a pipeline stage.

A :class:`PsQosRegulator` with neither knob set regulates nothing: it is
the registered FPGA-PS boundary, forwarding one beat per channel per
cycle.
"""

from repro.axi import (
    AxiLink,
    DataBeat,
    WriteBeat,
    make_read_request,
    make_write_request,
)
from repro.memory import PsQosRegulator
from repro.sim import Simulator


def test_pipe_forwards_all_five_channels():
    sim = Simulator("pipe")
    up = AxiLink(sim, "up")
    down = AxiLink(sim, "down")
    PsQosRegulator(sim, "pipe", up, down)
    up.ar.push(make_read_request(0, 1, 16))
    up.aw.push(make_write_request(0, 1, 16))
    up.w.push(WriteBeat(last=True))
    down.r.push(DataBeat(last=True))
    down.b.push(DataBeat(last=True))
    sim.run(5)
    assert down.ar.can_pop()
    assert down.aw.can_pop()
    assert down.w.can_pop()
    assert up.r.can_pop()
    assert up.b.can_pop()


def test_pipe_adds_one_stage_of_latency():
    sim = Simulator("pipe")
    up = AxiLink(sim, "up")
    down = AxiLink(sim, "down")
    PsQosRegulator(sim, "pipe", up, down)
    arrivals = []
    down.ar.subscribe_push(lambda cycle, beat: arrivals.append(cycle))
    up.ar.push(make_read_request(0, 1, 16))   # cycle 0, visible at 1
    sim.run(5)
    assert arrivals == [1]                  # forwarded the cycle it appears


def test_pipe_respects_backpressure():
    sim = Simulator("pipe")
    up = AxiLink(sim, "up", addr_depth=None)
    down = AxiLink(sim, "down", addr_depth=2)
    PsQosRegulator(sim, "pipe", up, down)
    for _ in range(6):
        up.ar.push(make_read_request(0, 1, 16))
    sim.run(20)                  # nobody pops downstream
    assert len(down.ar) == 2     # capacity bound respected
    drained = 0
    for _ in range(20):
        if down.ar.can_pop():
            down.ar.pop()
            drained += 1
        sim.step()
    assert drained == 6          # nothing lost


def test_fpga_ps_port_is_a_pipe():
    sim = Simulator("pipe")
    fabric = AxiLink(sim, "fabric")
    ps = AxiLink(sim, "ps")
    PsQosRegulator(sim, "hp0", fabric, ps)
    fabric.ar.push(make_read_request(0, 1, 16))
    sim.run(3)
    assert ps.ar.can_pop()
