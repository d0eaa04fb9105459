"""A finished simulation frees itself by reference counting.

Every component and channel points back at its simulator, so a built
system is one reference cycle.  ``Simulator.close()`` drops the
simulator's side of it, and the procedures that build a system, read its
results and drop it (``run_scenario`` and the ``repro.system.experiment``
procedures) call it.  Components must build no cycles of their own that
``close()`` cannot reach.  These tests run with the garbage collector
disabled, so a simulator that outlives its procedure is one only a
collection would free.
"""

import gc
import weakref

import pytest

from repro.hypervisor import Hypervisor
from repro.masters import (AxiDma, ChaiDnnAccelerator,
                           GreedyTrafficGenerator, TraceRecord,
                           TraceReplayMaster)
from repro.platforms import ZCU102
from repro.sim import Simulator
from repro.system import SocSystem, experiment
from repro.verify import (GRIDS, build_system, grid_scenarios, run_scenario,
                          run_system)

#: (fast, tlm) per verify leg
LEGS = {"reference": (False, False), "fast": (True, False),
        "tlm": (True, True)}


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every simulator built while the test runs."""
    refs = []
    init = Simulator.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", recording)
    return refs


def _alive(refs):
    return [ref() for ref in refs if ref() is not None]


class TestClose:
    def test_close_drops_registries_and_hooks(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        sim = soc.sim
        dma = AxiDma(sim, "dma", soc.port(0))
        soc.port(0).r.subscribe_pop(lambda cycle, item: None)
        sim.events.subscribe(lambda event: None)
        dma.enqueue_read(0x1000, 64)
        soc.run_until_quiescent()
        now, frozen = sim.now, sim.skip_stats.cycles_frozen
        channel = soc.port(0).r
        sim.close()
        assert sim.components == [] and sim.channels == []
        assert not sim._names and not sim._dirty_channels
        assert not channel._push_listeners and not channel._pop_listeners
        assert not sim.events._subscribers
        assert sim._tlm_engine is None
        # results stay readable
        assert sim.now == now
        assert sim.skip_stats.cycles_frozen == frozen
        assert dma.jobs_completed[0].latency is not None

    def test_run_system_leaves_the_system_open(self):
        scenario = grid_scenarios("reservation", limit=1)[0][0]
        system = build_system(scenario, fast=True)
        run_system(system)
        assert system.sim.components
        assert system.sim.lookup("ha0") is system.stations[0].engine


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_every_verify_leg_frees_its_simulator(grid, leg, no_gc,
                                              simulators):
    fast, tlm = LEGS[leg]
    scenario = grid_scenarios(grid, limit=1)[0][0]
    result = run_scenario(scenario, fast=fast, tlm=tlm)
    assert result.now == scenario.horizon + scenario.settle
    assert len(simulators) == 1
    assert simulators[0]() is None


@pytest.mark.parametrize("procedure, args, kwargs", [
    (experiment.measure_channel_latencies, ("hyperconnect",), {}),
    (experiment.measure_channel_latencies, ("smartconnect",), {}),
    (experiment.measure_access_time, ("hyperconnect", 1024), {}),
    (experiment.run_case_study, ("hyperconnect",),
     dict(window_cycles=20_000, fast=False)),
    (experiment.run_case_study, ("hyperconnect",),
     dict(shares={0: 0.5, 1: 0.5}, window_cycles=20_000, tlm=True)),
], ids=["latencies-hc", "latencies-sc", "access-time", "case-study",
        "case-study-tlm"])
def test_every_experiment_procedure_frees_its_simulator(
        procedure, args, kwargs, no_gc, simulators):
    procedure(*args, **kwargs)
    assert len(simulators) == 1
    assert simulators[0]() is None


def test_closed_engines_and_hypervisor_build_no_cycles(no_gc):
    """Each engine with a completion hook, the register file, the
    hypervisor's recovery and revocation components and an attached
    accelerator's interrupt callback free with their simulator once it
    is closed."""
    soc = SocSystem.build(ZCU102, n_ports=4)
    sim = soc.sim
    engines = [
        AxiDma(sim, "dma", soc.port(0)),
        ChaiDnnAccelerator(sim, "chaidnn", soc.port(1), scale=1 / 512),
        GreedyTrafficGenerator(sim, "greedy", soc.port(2),
                               job_bytes=1024),
        TraceReplayMaster(sim, "replay", soc.port(3),
                          [TraceRecord(0, "read", 0x2000, 4)]),
    ]
    engines[0].enqueue_read(0x1000, 64)
    engines[1].start()
    engines[3].start()
    hypervisor = Hypervisor(soc.interconnect)
    hypervisor.enable_fault_recovery()
    hypervisor.enable_revocation()
    hypervisor.create_domain("guest").ports.append(0)
    hypervisor.attach_accelerator("guest", 0, engines[0])
    hypervisor.driver.set_bandwidth_shares({0: 0.5, 1: 0.25})
    sim.run(2_000)
    assert all(engine.jobs_completed for engine in engines)
    refs = [weakref.ref(obj) for obj in
            (sim, hypervisor, soc.interconnect.regs, *engines)]
    sim.close()
    del soc, sim, engines, hypervisor
    assert _alive(refs) == []
