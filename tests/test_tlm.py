"""Tests for the transaction-level fast-forward engine (repro.sim.tlm).

Three properties anchor the suite:

* **engagement** — the canonical steady-state workload (reserved
  CHaiDNN + greedy DMA under a committed schedule) actually commits
  epochs and skips most of the window;
* **exactness of the decline path** — every window the engine declines
  runs byte-identically to ``fast=True``, proven both on fault/churn
  scenarios (which always decline) and via the forced-mispredict hook,
  which rolls *every* speculation back and replays it cycle-accurately;
* **bounded fidelity of the commit path** — committed epochs preserve
  rates and byte totals within the analytic bounds the ``tlm`` oracle
  checks.
"""

from dataclasses import astuple
from types import SimpleNamespace

import pytest

from repro.axi import AxiLink, WriteBeat, make_write_request
from repro.masters import AxiDma, DmaDescriptor, Job
from repro.masters.chaidnn import ChaiDnnAccelerator
from repro.memory import MemorySubsystem
from repro.platforms import ZCU102
from repro.sim import Simulator
from repro.sim.tlm import TlmEngine, _Decline
from repro.system import SocSystem, run_case_study
from repro.verify import build_system, run_scenario, run_system
from repro.verify.oracles import check_tlm, evaluate_scenario
from repro.verify.paramspace import compile_faults, compile_isolation, \
    compile_reservation

WINDOW = 100_000
PERIOD = 2048


def build_contended_soc(tlm: bool):
    """The case-study shape: reserved CHaiDNN vs a greedy 64-beat DMA."""
    soc = SocSystem.build(ZCU102, n_ports=2, period=PERIOD,
                          fast=not tlm, tlm=tlm)
    chai = ChaiDnnAccelerator(soc.sim, "chai", soc.port(0), scale=1 / 64)
    chai.start()
    dma = AxiDma(soc.sim, "dma", soc.port(1), burst_len=64)
    dma.program([DmaDescriptor("read", 0x1000_0000, 65536),
                 DmaDescriptor("write", 0x2000_0000, 65536)], repeat=True)
    dma.start()
    soc.driver.set_bandwidth_shares({0: 0.5, 1: 0.5})
    return soc, chai, dma


def state_fingerprint(soc, chai, dma):
    """Every deterministic observable a replayed window must reproduce."""
    sups = soc.interconnect.supervisors
    return (
        soc.sim.now,
        chai.frames_completed, chai.bytes_read, chai.bytes_written,
        len(chai.jobs_completed), chai.error_responses,
        dma.rounds_completed, dma.bytes_read, dma.bytes_written,
        len(dma.jobs_completed), dma.error_responses,
        tuple(tuple(sorted(s.fault_stats.as_dict().items()))
              for s in sups),
        tuple((s.outstanding_reads, s.outstanding_writes) for s in sups),
        soc.memory.reads_served, soc.memory.writes_served,
        round(chai.job_latency.mean, 9), round(dma.job_latency.mean, 9),
    )


class TestModeSelection:
    def test_tlm_implies_fast(self):
        sim = Simulator("t", tlm=True)
        assert sim.tlm and sim.fast


class TestEngagement:
    def test_commits_epochs_on_steady_reservation_traffic(self):
        soc, chai, dma = build_contended_soc(tlm=True)
        soc.sim.run(WINDOW)
        stats = soc.sim.skip_stats
        assert stats.tlm_epochs > 0
        # the analytic fast-forward should dominate the window: every
        # reservation period contributes one epoch minus the resync tail
        assert stats.tlm_cycles_skipped > WINDOW // 2
        assert chai.frames_completed > 0
        assert dma.rounds_completed > 0

    def test_case_study_surfaces_skip_stats(self):
        result = run_case_study("hyperconnect", shares={0: 0.5, 1: 0.5},
                                scale=1 / 64, window_cycles=WINDOW,
                                tlm=True)
        assert result.skip_stats is not None
        assert result.skip_stats["tlm_epochs"] > 0
        assert result.skip_stats["tlm_cycles_skipped"] > 0

    def test_rate_fidelity_vs_fast(self):
        fast = run_case_study("hyperconnect", shares={0: 0.5, 1: 0.5},
                              scale=1 / 64, window_cycles=WINDOW,
                              fast=True)
        tlm = run_case_study("hyperconnect", shares={0: 0.5, 1: 0.5},
                             scale=1 / 64, window_cycles=WINDOW,
                             tlm=True)
        assert tlm.skip_stats["tlm_epochs"] > 0
        assert tlm.chaidnn_fps == pytest.approx(fast.chaidnn_fps,
                                                rel=0.30)
        assert tlm.dma_rate == pytest.approx(fast.dma_rate, rel=0.30)

    def test_execution_resumes_cleanly_after_fastforward(self):
        """Cycle-accurate execution after the window picks up seamlessly."""
        soc, chai, __ = build_contended_soc(tlm=True)
        soc.sim.run(WINDOW)
        frames = chai.frames_completed
        soc.sim.tlm = False          # demote permanently: pure fast path
        soc.sim.run(WINDOW // 2)
        assert chai.frames_completed > frames


class TestRollback:
    def test_forced_mispredict_replays_byte_identically(self):
        """Every speculation rolled back == the plain fast kernel.

        With ``_force_mispredict_after = 1`` each attempted epoch is
        speculated, fully accounted, then rolled back and replayed
        cycle-accurately — so the whole run must reproduce ``fast=True``
        exactly, including statistics means and supervisor counters.
        """
        reference_soc, ref_chai, ref_dma = build_contended_soc(tlm=False)
        reference_soc.sim.run(WINDOW)

        soc, chai, dma = build_contended_soc(tlm=True)
        engine = TlmEngine(soc.sim)
        engine._force_mispredict_after = 1
        soc.sim._tlm_engine = engine
        dirty = soc.sim._dirty_channels
        soc.sim.run(WINDOW)

        # the kernel loops hold the dirty list in a local, so a rollback
        # refills it in place instead of rebinding it
        assert soc.sim._dirty_channels is dirty
        assert soc.sim.skip_stats.tlm_epochs == 0
        assert soc.sim.skip_stats.tlm_rollbacks > 0
        assert soc.sim.skip_stats.tlm_demotions.get(
            "mispredict:forced", 0) > 0
        assert (state_fingerprint(soc, chai, dma)
                == state_fingerprint(reference_soc, ref_chai, ref_dma))


def finished_job_fields(*engines):
    """Deep copies of every finished job's fields, in completion order."""
    return [astuple(job) for engine in engines
            for job in engine.jobs_completed]


def classify_now(soc, engine):
    """Step cycle-accurately until an epoch would be accepted; its plan."""
    for __ in range(64):
        now = soc.sim.now
        try:
            return engine._classify(now, now + 4 * PERIOD)
        except _Decline:
            soc.sim.run(16)   # under min_epoch: never attempts an epoch
    raise AssertionError("no TLM-eligible cycle found")


class TestSnapshot:
    def test_snapshot_size_does_not_grow_with_finished_jobs(self):
        """Only live jobs are saved, so a late epoch's snapshot is as
        small as an early one however many jobs have finished."""
        soc, chai, dma = build_contended_soc(tlm=True)
        engine = TlmEngine(soc.sim)
        soc.sim._tlm_engine = engine
        take_snapshot = engine._take_snapshot
        sizes, finished, saved_finished = [], [], []

        def measured(plan):
            snap = take_snapshot(plan)
            sizes.append(len(snap.objects))
            finished.append(len(chai.jobs_completed)
                            + len(dma.jobs_completed))
            saved_finished.extend(
                obj for obj, *__ in snap.objects
                if isinstance(obj, Job) and obj.completed is not None)
            return snap

        engine._take_snapshot = measured
        soc.sim.run(WINDOW)

        assert finished[-1] >= 50
        assert not saved_finished
        assert max(sizes) - min(sizes) < 10

    def test_late_epoch_round_trip_restores_everything(self):
        """classify -> snapshot -> flush -> account -> restore, late in a
        run, leaves the state and every finished job byte-identical, and
        the run continues exactly like an undisturbed twin."""
        twin_soc, twin_chai, twin_dma = build_contended_soc(tlm=True)
        soc, chai, dma = build_contended_soc(tlm=True)
        for system in (twin_soc, soc):
            system.sim.run(WINDOW // 2)
        engine = soc.sim._tlm_engine
        plan = classify_now(soc, engine)
        while twin_soc.sim.now < soc.sim.now:
            twin_soc.sim.run(16)   # the same strides classify_now took

        before = state_fingerprint(soc, chai, dma)
        jobs_before = finished_job_fields(chai, dma)
        assert len(jobs_before) >= 20
        snap = engine._take_snapshot(plan)
        engine._flush_in_flight(plan)
        engine._account(plan)
        assert len(finished_job_fields(chai, dma)) > len(jobs_before)
        engine._restore(snap)

        assert state_fingerprint(soc, chai, dma) == before
        assert finished_job_fields(chai, dma) == jobs_before
        assert before == state_fingerprint(twin_soc, twin_chai, twin_dma)
        for system in (twin_soc, soc):
            system.sim.run(WINDOW // 2)
        assert (state_fingerprint(soc, chai, dma)
                == state_fingerprint(twin_soc, twin_chai, twin_dma))
        assert (finished_job_fields(chai, dma)
                == finished_job_fields(twin_chai, twin_dma))

    def test_round_trip_restores_per_port_write_fifos(self):
        """The multi-link controller keeps one W FIFO per port in a list;
        a snapshot must copy the FIFOs, not share them."""
        sim = Simulator("fifo")
        links = [AxiLink(sim, f"p{i}", data_bytes=16) for i in range(2)]
        memory = MemorySubsystem(sim, "mem", links,
                                 timing=ZCU102.dram)
        links[1].aw.push(make_write_request(0x900, 4, 16))
        for index in range(4):
            links[1].w.push(WriteBeat(last=index == 3,
                                      data=bytes([index]) * 16))
        sim.run(6)   # W beats queue while the command waits out latency
        queued = list(memory._write_beats[1])
        assert len(queued) == 4
        engine = TlmEngine(sim)
        snap = engine._take_snapshot(
            SimpleNamespace(checkers=[], lanes=[], fabric_channels=[]))
        sim.run(40)  # the write completes and drains the FIFO
        assert not memory._write_beats[1]
        engine._restore(snap)
        assert list(memory._write_beats[1]) == queued


class TestDeclinePath:
    def test_fault_scenarios_decline_and_stay_identical(self):
        scenario = compile_faults({"program": "hung_r", "n_ports": 2,
                                   "timeout": 400, "hang": 8})
        reference = run_scenario(scenario, fast=True)
        system = build_system(scenario, fast=True, tlm=True)
        candidate = run_system(system)
        assert candidate.tlm_epochs == 0
        assert system.sim.skip_stats.tlm_demotions  # reasons recorded
        assert candidate.fingerprint == reference.fingerprint

    def test_churn_scenarios_decline_and_stay_identical(self):
        scenario = compile_isolation({"n_domains": 4, "n_faulted": 0,
                                      "churn": "regrant",
                                      "churn_cycle": 64})
        reference = run_scenario(scenario, fast=True)
        candidate = run_scenario(scenario, fast=True, tlm=True)
        assert candidate.tlm_epochs == 0
        assert candidate.fingerprint == reference.fingerprint


class TestOracle:
    def test_tlm_check_passes_on_reservation_scenario(self):
        scenario = compile_reservation({"share0": 0.5, "period": 2048,
                                        "job_bytes": 16384})
        evaluate_scenario(scenario, checks=("tlm",))

    def test_tlm_check_flags_fabricated_overrun(self):
        """A TLM result violating the bus-capacity bound must be caught."""
        from dataclasses import replace

        from repro.verify.oracles import OracleViolation

        scenario = compile_reservation({"share0": 0.5, "period": 2048,
                                        "job_bytes": 16384})
        reference = run_scenario(scenario, fast=False)
        candidate = run_scenario(scenario, fast=True, tlm=True)
        assert candidate.tlm_epochs > 0  # this grid point fast-forwards
        check_tlm(scenario, reference, candidate)   # honest result: ok
        forged = tuple(dict(info, bytes_read=10 ** 12)
                       for info in candidate.engines)
        with pytest.raises(OracleViolation):
            check_tlm(scenario, reference,
                      replace(candidate, engines=forged))

    def test_unknown_check_still_rejected(self):
        scenario = compile_reservation({"share0": 0.5})
        with pytest.raises(ValueError):
            evaluate_scenario(scenario, checks=("bogus",))

    def test_campaign_config_accepts_tlm(self):
        from repro.verify import CampaignConfig

        CampaignConfig(checks=("equivalence", "tlm"))

    def test_tlm_composite_grid_registered(self):
        from repro.verify.paramspace import grid_scenarios

        scenarios, checks = grid_scenarios("tlm", limit=4)
        assert scenarios
        assert "tlm" in checks
