"""Live tenant revocation and re-granting under traffic.

The churn tentpole's verification surface:

* churn :class:`Scenario` validation and serialization (churn is pure
  data, omitted from untenanted/churn-free JSON so pinned corpus
  digests survive);
* the :class:`RevocationController` state machine on a live system —
  quiesce -> drain -> retarget -> scrub -> re-grant, with healthy
  neighbours running throughout;
* the stale-window isolation oracle: it passes on honest runs, rejects
  tampered ones, and the liveness oracle defers the evicted tenant to
  it;
* the acceptance paths: a revoke-while-mid-burst churn storm proven
  bit-identical on the reference and fast kernels, with
  worker-count-independent campaign digests;
* the golden audit-ring regression: a scripted revoke/re-grant session
  must reproduce the checked-in transition trail byte-for-byte.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.hypervisor import Criticality, Hypervisor, SystemIntegrator
from repro.ipxact import accelerator_component
from repro.masters import AxiDma
from repro.memory import MemoryStore, TranslationFault
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem
from repro.verify import (
    MasterFault,
    OracleViolation,
    PortPlan,
    Scenario,
    check_equivalence,
    check_scenario,
    evaluate_scenario,
    run_campaign,
    run_scenario,
)
from repro.verify.harness import CHURN_WRITE_BYTES, build_system, \
    churn_pattern, run_system
from repro.verify.oracles import check_liveness, check_stale_window
from repro.verify.paramspace import compile_isolation, grid_scenarios
from repro.verify.scenario import GRANT_GRANULE, canonical_json

SPAN = 8 * GRANT_GRANULE
GOLDEN_AUDIT = Path(__file__).parent / "data" / "golden_audit_ring.json"


def churn_scenario(n=4, churn=((64, 1, 3),), rogues=(), horizon=10_000,
                   victim_bytes=4096):
    """Tenanted scenario with scripted churn; victims stream one long
    write so the revocation provably lands mid-burst."""
    victims = {v for _, v, _ in churn}
    plans = []
    for index in range(n):
        base = index * SPAN
        if index in victims:
            plans.append(PortPlan(jobs=(("write", base, victim_bytes),)))
        elif index in rogues:
            plans.append(PortPlan(
                jobs=(("read", ((index + 1) % n) * SPAN, 1024),),
                fault=MasterFault(mode="wild_addr")))
        else:
            plans.append(PortPlan(jobs=(("read", base, 256),)))
    return Scenario(family="flat", ports=tuple(plans),
                    grants=tuple((i * SPAN, SPAN) for i in range(n)),
                    horizon=horizon, settle=512, churn=tuple(churn))


class TestChurnScenarioModel:
    def test_round_trips_through_json(self):
        scenario = churn_scenario(churn=((64, 1, 3), (200, 2, -1)))
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.churn == ((64, 1, 3), (200, 2, -1))

    def test_churn_free_json_is_byte_compatible(self):
        scenario = churn_scenario()
        stripped = dataclasses.replace(scenario, churn=None)
        assert '"churn"' not in stripped.to_json()

    def test_churn_requires_grants(self):
        with pytest.raises(ValueError):
            Scenario(family="flat",
                     ports=(PortPlan(jobs=(("read", 0, 256),)),
                            PortPlan(jobs=(("read", SPAN, 256),))),
                     churn=((64, 0, 1),))

    def test_rogue_victim_rejected(self):
        plans = [PortPlan(jobs=(("read", i * SPAN, 256),))
                 for i in range(4)]
        plans[1] = PortPlan(jobs=(("read", 2 * SPAN, 1024),),
                            fault=MasterFault(mode="wild_addr"))
        with pytest.raises(ValueError, match="rogue"):
            # revoking a faulted tenant is the recovery ladder's job
            Scenario(family="flat", ports=tuple(plans),
                     grants=tuple((i * SPAN, SPAN) for i in range(4)),
                     horizon=10_000, churn=((64, 1, 3),))

    def test_victim_and_beneficiary_constraints(self):
        with pytest.raises(ValueError):        # beneficiary == victim
            churn_scenario(churn=((64, 1, 1),))
        with pytest.raises(ValueError):        # one op per victim
            churn_scenario(churn=((64, 1, 3), (80, 1, -1)))
        with pytest.raises(ValueError):        # victim is also granted to
            churn_scenario(churn=((64, 1, 2), (80, 2, -1)))
        with pytest.raises(ValueError):        # cycle outside horizon
            churn_scenario(churn=((20_000, 1, 3),))

    def test_baseline_keeps_the_churn_schedule(self):
        scenario = churn_scenario(rogues=(0,))
        baseline = scenario.baseline()
        assert baseline.churn == scenario.churn
        assert not baseline.rogue_indices

    def test_involved_properties(self):
        scenario = churn_scenario(churn=((64, 1, 3), (200, 2, -1)))
        assert scenario.churn_victims == (1, 2)
        assert scenario.churn_beneficiaries == (3,)
        assert scenario.churn_involved == (1, 2, 3)


def booted(n_ports=2, fast=False):
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048, fast=fast)
    hypervisor = Hypervisor(soc.interconnect)
    hypervisor.create_domain("crit", Criticality.HIGH)
    hypervisor.create_domain("best", Criticality.LOW)
    integrator = SystemIntegrator(ZCU102)
    integrator.add_accelerator(accelerator_component("dnn"), "crit")
    integrator.add_accelerator(accelerator_component("dma"), "best")
    hypervisor.boot(integrator.integrate())
    hypervisor.attach_memory(MemoryStore(size=1 << 24))
    return soc, hypervisor


class TestRevocationController:
    def test_revoke_of_unheld_region_rejected(self):
        __, hypervisor = booted()
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        with pytest.raises(ConfigurationError):
            hypervisor.revoke_memory("best", region)

    def test_regrant_to_self_rejected(self):
        __, hypervisor = booted()
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        with pytest.raises(ConfigurationError):
            hypervisor.revoke_memory("crit", region, regrant_to="crit")

    def test_past_start_cycle_rejected(self):
        soc, hypervisor = booted()
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        soc.sim.run(100)
        with pytest.raises(ConfigurationError):
            hypervisor.revoke_memory("crit", region, at=50)

    def test_second_in_flight_order_for_same_domain_rejected(self):
        __, hypervisor = booted()
        a = hypervisor.adopt_region("crit", 0x0, 0x8000)
        b = hypervisor.adopt_region("crit", 0x8000, 0x8000)
        hypervisor.revoke_memory("crit", a, at=1000)
        with pytest.raises(ConfigurationError):
            hypervisor.revoke_memory("crit", b, at=1000)

    @pytest.mark.parametrize("fast", [False, True],
                             ids=["reference", "fast"])
    def test_mid_burst_revocation_drains_and_retires(self, fast):
        soc, hypervisor = booted(fast=fast)
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        port = hypervisor.domain("crit").ports[0]
        dma = AxiDma(soc.sim, "dma", soc.port(port))
        job = dma.enqueue_write(region.base, 8192)
        soc.sim.run(40)
        supervisor = soc.interconnect.supervisors[port]
        assert not supervisor.drained   # provably mid-burst
        order = hypervisor.revoke_memory("crit", region)
        soc.run_until_quiescent()
        assert order.state == "committed"
        assert order.quiesce_cycle is not None
        assert order.commit_cycle >= order.quiesce_cycle
        # drained via synthesized DECERR, surfaced at the engine
        stats = supervisor.fault_stats
        assert stats.synth_b_beats + stats.synth_r_beats > 0
        assert dma.error_responses > 0
        # every accepted beat is answered; the job's unissued residue
        # stays queued behind the retired port and never deadlocks
        assert dma.outstanding == 0
        assert job.completed is None
        # the grant is gone
        assert region not in hypervisor.domain("crit").regions
        with pytest.raises(TranslationFault):
            hypervisor.domain_store("crit").read(region.base, 4)
        # grantless domain: the port is retired, not silently unfiltered
        assert not soc.driver.is_coupled(port)
        assert port in hypervisor.quarantined
        assert soc.driver.region_filter(port) is None
        assert soc.driver.region_epoch(port) >= 2
        # a planned transition is not a fault: no trip was counted
        assert stats.watchdog_trips == 0
        assert stats.protocol_trips == 0
        assert supervisor.revocations == 1
        # the torn-down range is free for another domain to adopt
        hypervisor.adopt_region("best", region.base, region.size)

    def test_victim_with_remaining_grants_recouples(self):
        soc, hypervisor = booted()
        keep = hypervisor.adopt_region("crit", 0x0, 0x8000)
        drop = hypervisor.adopt_region("crit", 0x8000, 0x8000)
        port = hypervisor.domain("crit").ports[0]
        dma = AxiDma(soc.sim, "dma", soc.port(port))
        # a single burst, fully in flight at revocation: the drain
        # answers it whole, so no residue re-issues after recouple
        dma.enqueue_write(drop.base, 256)
        soc.sim.run(6)
        assert not soc.interconnect.supervisors[port].drained
        hypervisor.revoke_memory("crit", drop)
        soc.run_until_quiescent()
        # the retargeted filter confines the port, so it returns
        assert soc.driver.is_coupled(port)
        assert port not in hypervisor.quarantined
        assert soc.driver.region_filter(port) == {"base": keep.base,
                                                  "size": keep.size}
        # and the port is live: a job in the kept grant still completes
        job = dma.enqueue_read(keep.base, 1024)
        soc.run_until_quiescent()
        assert job.completed is not None
        assert keep in hypervisor.domain("crit").regions

    def test_residual_out_of_grant_traffic_is_refiltered(self):
        # a multi-burst job into the revoked range keeps re-issuing
        # after the recouple — the retargeted filter must contain it
        # like any other out-of-grant master
        soc, hypervisor = booted()
        hypervisor.adopt_region("crit", 0x0, 0x8000)
        drop = hypervisor.adopt_region("crit", 0x8000, 0x8000)
        port = hypervisor.domain("crit").ports[0]
        dma = AxiDma(soc.sim, "dma", soc.port(port))
        dma.enqueue_write(drop.base, 4096)
        soc.sim.run(40)
        hypervisor.revoke_memory("crit", drop)
        soc.run_until_quiescent()
        supervisor = soc.interconnect.supervisors[port]
        assert supervisor.fault_stats.protocol_trips >= 1
        assert not soc.driver.is_coupled(port)

    def test_regrant_hands_the_range_to_the_second_domain(self):
        soc, hypervisor = booted()
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        base, size = region.base, region.size
        store = hypervisor.store
        store.write(base, b"\xAA" * 64)   # the victim's residue
        commits = []
        hypervisor.revoke_memory(
            "crit", region, regrant_to="best",
            on_commit=lambda cycle, order: commits.append(cycle))
        soc.run_until_quiescent()
        assert len(commits) == 1
        # the same physical range now belongs to "best" ...
        best = hypervisor.domain("best")
        assert any(r.base == base and r.size == size
                   for r in best.regions)
        hypervisor.domain_store("best").read(base, size)
        # ... scrubbed: the old tenant's bytes are unobservable
        assert store.read(base, 64) == bytes(64)
        # and the beneficiary's data plane covers it
        port = best.ports[0]
        grant = soc.driver.region_filter(port)
        assert grant["base"] <= base
        assert grant["base"] + grant["size"] >= base + size

    def test_idle_grant_revocation_commits_immediately(self):
        soc, hypervisor = booted()
        region = hypervisor.adopt_region("crit", 0x0, 0x8000)
        order = hypervisor.revoke_memory("crit", region)
        soc.sim.run(4)
        assert order.state == "committed"
        assert order.commit_cycle == order.quiesce_cycle
        supervisor = \
            soc.interconnect.supervisors[hypervisor.domain("crit").ports[0]]
        assert supervisor.fault_stats.synth_b_beats == 0


class TestStaleWindowOracle:
    def test_honest_run_passes_all_oracles(self):
        evaluate_scenario(churn_scenario(rogues=(0,)))

    def test_tampered_stale_window_is_rejected(self):
        scenario = churn_scenario()
        result = run_scenario(scenario, fast=False)
        churnfree = run_scenario(
            dataclasses.replace(scenario, churn=None), fast=False)
        tampered = dict(result.churn_probes[0])
        tampered["victim_window"] = True   # the stale window survived
        bad = dataclasses.replace(result, churn_probes=(tampered,))
        with pytest.raises(OracleViolation, match="stale"):
            check_stale_window(scenario, bad, churnfree)

    def test_tampered_store_digest_is_rejected(self):
        scenario = churn_scenario()
        result = run_scenario(scenario, fast=False)
        churnfree = run_scenario(
            dataclasses.replace(scenario, churn=None), fast=False)
        tampered = dict(result.churn_probes[0])
        tampered["store_digest"] = "0" * 64   # someone else's bytes
        bad = dataclasses.replace(result, churn_probes=(tampered,))
        with pytest.raises(OracleViolation, match="digest"):
            check_stale_window(scenario, bad, churnfree)

    def test_liveness_defers_the_evicted_tenant(self):
        # the victim ends the run with DECERR'd, unfinished jobs —
        # liveness must not flag what the stale-window oracle owns
        scenario = churn_scenario()
        result = run_scenario(scenario, fast=False)
        assert result.engines[1]["error_responses"] > 0
        check_liveness(scenario, result)

    def test_beneficiary_reuses_the_range_with_real_bytes(self):
        scenario = churn_scenario()
        system = build_system(scenario, fast=False)
        result = run_system(system)
        probe = result.churn_probes[0]
        nbytes = min(CHURN_WRITE_BYTES, probe["size"])
        assert system.store.read(probe["base"], nbytes) == \
            churn_pattern(3, nbytes)


class TestChurnGrid:
    def test_grid_is_registered_and_compiles(self):
        scenarios, __ = grid_scenarios("churn", mode="pairwise")
        assert scenarios
        assert all(s.churn is not None for s in scenarios)

    def test_none_rows_compile_byte_identically_to_legacy(self):
        legacy = {"n_domains": 8, "n_faulted": 2, "mix": "mixed",
                  "seed": 3, "job_bytes": 512}
        assert compile_isolation(dict(legacy)).to_json() == \
            compile_isolation({**legacy, "churn": "none"}).to_json()

    def test_pure_churn_rows_have_no_rogues(self):
        scenario = compile_isolation(
            {"n_domains": 4, "n_faulted": 0, "churn": "regrant",
             "churn_cycle": 64})
        assert not scenario.rogue_indices
        assert scenario.churn is not None


class TestAcceptance:
    def test_churn_storm_on_both_kernel_paths(self, tmp_path, monkeypatch):
        """Revoke-while-mid-burst under a wild rogue, bit-identical on
        the reference and fast kernels."""
        monkeypatch.setenv("VERIFY_ARTIFACT_DIR", str(tmp_path))
        scenario = compile_isolation(
            {"n_domains": 6, "n_faulted": 1, "mix": "wild",
             "churn": "regrant", "churn_cycle": 64, "seed": 3})
        result = check_scenario(scenario)
        assert len(result.fingerprint) == 5   # churn probes are pinned
        assert result.churn_probes[0]["victim_synth_beats"] > 0
        # the oracles run both model twins on the fast kernel only
        for twin in (scenario.baseline(),
                     dataclasses.replace(scenario, churn=None)):
            check_equivalence(twin, run_scenario(twin, fast=False),
                              run_scenario(twin, fast=True))

    def test_reference_kernel_runs_one_leg_per_scenario(self, monkeypatch):
        """Twins run on the fast kernel: the reference kernel serves only
        the leg the equivalence oracle compares."""
        from repro.verify import DEFAULT_CHECKS, oracles

        scenario = compile_isolation(
            {"n_domains": 6, "n_faulted": 1, "mix": "wild",
             "churn": "regrant", "churn_cycle": 64, "seed": 3})
        assert scenario.rogue_indices and scenario.churn
        calls = []

        def spy(scenario, fast, **kwargs):
            calls.append(fast)
            return run_scenario(scenario, fast=fast, **kwargs)

        monkeypatch.setattr(oracles, "run_scenario", spy)
        evaluate_scenario(scenario, DEFAULT_CHECKS)
        assert calls.count(False) == 1
        assert calls.count(True) == 3   # fast leg, baseline, churn-free

    def test_worker_count_independent_campaign_digest(self):
        scenarios = [
            compile_isolation({"n_domains": 4, "n_faulted": 1,
                               "mix": "wild", "churn": "revoke",
                               "churn_cycle": 64, "seed": 3}),
            compile_isolation({"n_domains": 4, "n_faulted": 0,
                               "mix": "wild", "churn": "regrant",
                               "churn_cycle": 32, "seed": 11}),
        ]
        inline = run_campaign(scenarios, workers=0)
        forked = run_campaign(scenarios, workers=2)
        assert inline.ok, inline.counts
        assert inline.digest == forked.digest


class TestGoldenAuditRing:
    """Satellite: the access-control transition trail is regression-
    pinned — a scripted revoke/re-grant session must reproduce the
    checked-in golden trail byte-for-byte."""

    SCENARIO = dict(n=4, churn=((64, 1, 3), (200, 2, -1)))

    def trail(self):
        system = build_system(churn_scenario(**self.SCENARIO), fast=False)
        run_system(system)
        hypervisor = system.hypervisors[0]
        return canonical_json({
            "total_transitions": hypervisor.access.total_transitions,
            "transitions": [t.as_dict()
                            for t in hypervisor.access.transitions],
        }) + "\n"

    def test_trail_matches_the_golden_file(self):
        assert self.trail() == GOLDEN_AUDIT.read_text()

    def test_golden_file_is_well_formed(self):
        data = json.loads(GOLDEN_AUDIT.read_text())
        kinds = [t["kind"] for t in data["transitions"]]
        # 4 boot-time grants, 2 revocations, 1 re-grant
        assert kinds.count("grant") == 5
        assert kinds.count("revoke") == 2
        assert data["total_transitions"] == 7
