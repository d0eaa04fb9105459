"""Many-domain tenant isolation: scenarios, oracles, graceful degradation.

The verification surface of the tenant-isolation tentpole:

* tenanted :class:`Scenario` validation and serialization (grants are
  pure data, and untenanted scenario JSON is bit-compatible with the
  pre-tenancy corpus);
* the ``isolation`` grid compiler (fault storms at 8-64 domains);
* the isolation oracle — rogues contained and resolved, healthy tenants
  leak-free and bounded-delay;
* graceful degradation: re-quarantine and recovery give-up under
  repeated faults, while every other tenant keeps its service;
* the acceptance storm — 64 domains, 8 simultaneously faulted, passing
  the full oracle stack with a worker-count-independent campaign digest.
"""

import json

import pytest

from repro.verify import (
    DEFAULT_CHECKS,
    MasterFault,
    OracleViolation,
    PortPlan,
    Scenario,
    check_isolation,
    evaluate_scenario,
    isolation_bound_for,
    run_campaign,
    run_scenario,
)
from repro.verify.harness import RECOVERY_POLICY
from repro.verify.paramspace import _ISOLATION_SPAN, GRIDS, compile_isolation
from repro.verify.scenario import GRANT_GRANULE

SPAN = 8 * GRANT_GRANULE


def tenant_scenario(n=4, rogues=(), mode="wild_addr", timeout=400,
                    persistent=True, horizon=8_000):
    """A hand-rolled tenanted scenario: ``n`` domains, chosen rogues."""
    plans = []
    for index in range(n):
        base = index * SPAN
        if index in rogues and mode == "wild_addr":
            # 1 KiB = four 16-beat subs: a persistent wild master
            # re-offends after every reset until the policy gives up
            target = ((index + 1) % n) * SPAN
            plans.append(PortPlan(jobs=(("read", target, 1024),),
                                  fault=MasterFault(mode="wild_addr")))
        elif index in rogues:
            # 1 KiB = 64 beats: the post-hang residue overflows the
            # 32-deep eFIFO data queue, so the watchdog provably trips
            plans.append(PortPlan(
                jobs=(("read", base, 1024),), timeout=timeout,
                fault=MasterFault(mode="hung_r", hang_after_beats=8,
                                  persistent=persistent)))
        else:
            plans.append(PortPlan(jobs=(("read", base, 256),)))
    return Scenario(family="flat", ports=tuple(plans),
                    grants=tuple((i * SPAN, SPAN) for i in range(n)),
                    horizon=horizon, settle=512)


def recovery_kinds(result):
    """Per-port multiset of recovery-event kinds from the event log."""
    kinds = {}
    for event in result.events:
        if event["event"] == "port_recovery":
            kinds.setdefault(event["port"], []).append(event["kind"])
    return kinds


class TestTenantedScenarioModel:
    def test_grants_mark_a_scenario_tenanted(self):
        scenario = tenant_scenario()
        assert scenario.is_tenanted
        assert not tenant_scenario().baseline().rogue_indices

    def test_multiple_rogues_allowed_only_with_grants(self):
        with pytest.raises(ValueError):
            Scenario(family="flat", ports=(
                PortPlan(jobs=(("read", 0, 256),), timeout=300,
                         fault=MasterFault(mode="hung_r")),
                PortPlan(jobs=(("read", SPAN, 256),), timeout=300,
                         fault=MasterFault(mode="hung_r"))))
        tenant_scenario(rogues=(0, 1), mode="hung_r")   # fine tenanted

    def test_wild_addr_requires_grants(self):
        with pytest.raises(ValueError):
            Scenario(family="flat", ports=(
                PortPlan(jobs=(("read", 0, 256),),
                         fault=MasterFault(mode="wild_addr")),))

    def test_grants_pin_family_fabric_and_memory(self):
        grants = ((0, SPAN), (SPAN, SPAN), (2 * SPAN, SPAN))
        ports = tuple(PortPlan(jobs=(("read", i * SPAN, 256),))
                      for i in range(3))
        with pytest.raises(ValueError):
            Scenario(family="cascade", ports=ports, grants=grants)
        with pytest.raises(ValueError):
            Scenario(family="flat", fabric="smartconnect", ports=ports,
                     grants=grants)

    def test_grants_must_cover_every_port(self):
        ports = tuple(PortPlan(jobs=(("read", i * SPAN, 256),))
                      for i in range(3))
        with pytest.raises(ValueError):
            Scenario(family="flat", ports=ports,
                     grants=((0, SPAN), (SPAN, SPAN)))

    def test_grants_must_be_granule_aligned_and_disjoint(self):
        ports = tuple(PortPlan(jobs=(("read", i * SPAN, 256),))
                      for i in range(2))
        with pytest.raises(ValueError):
            Scenario(family="flat", ports=ports,
                     grants=((0x100, SPAN), (SPAN, SPAN)))
        with pytest.raises(ValueError):
            Scenario(family="flat", ports=ports,
                     grants=((0, 2 * SPAN), (SPAN, SPAN)))

    def test_json_round_trip_preserves_grants(self):
        scenario = tenant_scenario(rogues=(1,))
        clone = Scenario.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.grants == scenario.grants

    def test_untenanted_json_has_no_grants_key(self):
        # digest compatibility: pre-tenancy scenario ids must not move
        scenario = Scenario(family="flat", ports=(
            PortPlan(jobs=(("read", 0x1000_0000, 256),)),))
        assert "grants" not in json.loads(scenario.to_json())

    def test_baseline_strips_every_rogue_but_keeps_grants(self):
        scenario = tenant_scenario(n=6, rogues=(1, 4), mode="hung_r")
        baseline = scenario.baseline()
        assert baseline.rogue_indices == ()
        assert baseline.grants == scenario.grants
        assert baseline.ports[1].jobs == ()
        assert baseline.ports[4].jobs == ()
        assert baseline.ports[2].jobs == scenario.ports[2].jobs


class TestIsolationGridCompiler:
    def test_registered_with_scale_axes(self):
        grid = GRIDS["isolation"]
        assert 64 in grid.axes["n_domains"]
        assert 8 in grid.axes["n_faulted"]
        assert "isolation" in grid.checks

    def test_one_disjoint_grant_per_domain(self):
        scenario = compile_isolation({"n_domains": 16, "n_faulted": 4})
        assert len(scenario.grants) == 16
        assert scenario.grants == tuple(
            (i * _ISOLATION_SPAN, _ISOLATION_SPAN) for i in range(16))
        scenario_check = Scenario.from_json(scenario.to_json())
        assert scenario_check == scenario   # validates disjointness

    def test_at_least_one_tenant_stays_healthy(self):
        scenario = compile_isolation({"n_domains": 8, "n_faulted": 99})
        assert len(scenario.rogue_indices) == 7

    def test_wild_rogues_aim_at_the_neighbour(self):
        scenario = compile_isolation({"n_domains": 8, "n_faulted": 2,
                                      "mix": "wild", "seed": 3})
        for index in scenario.rogue_indices:
            plan = scenario.ports[index]
            assert plan.fault.mode == "wild_addr"
            target = plan.jobs[0][1]
            assert target == ((index + 1) % 8) * _ISOLATION_SPAN

    def test_mixed_alternates_fault_modes(self):
        scenario = compile_isolation({"n_domains": 16, "n_faulted": 4,
                                      "mix": "mixed", "seed": 11})
        modes = [scenario.ports[i].fault.mode
                 for i in scenario.rogue_indices]
        assert modes == ["wild_addr", "hung_r", "wild_addr", "hung_r"]

    def test_healthy_watchdogs_stay_disarmed(self):
        # fair-share queueing at 64 ports legitimately ages transactions
        # past any tight watchdog; the region filter is the guard
        scenario = compile_isolation({"n_domains": 64, "n_faulted": 8})
        for index, plan in enumerate(scenario.ports):
            if index not in scenario.rogue_indices:
                assert plan.timeout is None

    def test_seed_choice_is_deterministic(self):
        a = compile_isolation({"n_domains": 32, "n_faulted": 4, "seed": 27})
        b = compile_isolation({"n_domains": 32, "n_faulted": 4, "seed": 27})
        assert a == b


class TestIsolationOracle:
    def test_small_mixed_storm_passes_all_oracles(self):
        scenario = compile_isolation({"n_domains": 8, "n_faulted": 2,
                                      "mix": "mixed", "seed": 3})
        evaluate_scenario(scenario, checks=DEFAULT_CHECKS)

    def test_wild_rogue_is_contained_by_the_region_filter(self):
        scenario = tenant_scenario(n=4, rogues=(1,))
        result = run_scenario(scenario, fast=False)
        baseline = run_scenario(scenario.baseline(), fast=False)
        check_isolation(scenario, result, baseline)
        assert result.trips[1] >= 1
        healthy = [info for i, info in enumerate(result.engines) if i != 1]
        assert all(info["error_responses"] == 0 for info in healthy)

    def test_undetected_rogue_falsifies_the_oracle(self):
        # a hung tenant with no watchdog is never contained: the oracle
        # must say so instead of passing vacuously
        scenario = tenant_scenario(n=4, rogues=(2,), mode="hung_r",
                                   timeout=None)
        result = run_scenario(scenario, fast=False)
        baseline = run_scenario(scenario.baseline(), fast=False)
        with pytest.raises(OracleViolation, match="never contained"):
            check_isolation(scenario, result, baseline)

    def test_healthy_observable_drift_falsifies_the_oracle(self):
        scenario = tenant_scenario(n=4, rogues=(1,))
        result = run_scenario(scenario, fast=False)
        # a baseline whose healthy tenants did different work stands in
        # for cross-domain leakage: byte counts must be bit-identical
        drifted = Scenario(
            family="flat",
            ports=tuple(
                PortPlan(jobs=(("read", i * SPAN, 1024),))
                if i != 1 else PortPlan(jobs=())
                for i in range(4)),
            grants=scenario.grants, horizon=scenario.horizon,
            settle=scenario.settle)
        baseline = run_scenario(drifted, fast=False)
        with pytest.raises(OracleViolation, match="changed under"):
            check_isolation(scenario, result, baseline)

    def test_untenanted_scenarios_skip_the_oracle(self):
        scenario = Scenario(family="flat", ports=(
            PortPlan(jobs=(("read", 0x1000_0000, 256),)),),
            horizon=2_000, settle=64)
        result = run_scenario(scenario, fast=False)
        check_isolation(scenario, result, result)   # no-op, no raise

    def test_bound_requires_armed_non_wild_rogues(self):
        assert isolation_bound_for(
            tenant_scenario(rogues=(1,), mode="hung_r",
                            timeout=None)) is None
        assert isolation_bound_for(
            tenant_scenario(rogues=(1,), mode="hung_r",
                            timeout=400)) is not None
        # all-wild storms use the nominal 1-cycle detection term
        bound = isolation_bound_for(tenant_scenario(rogues=(1,)))
        assert bound is not None
        assert bound.timeout_cycles == 1

    def test_multi_fault_bound_serializes(self):
        bound = isolation_bound_for(
            tenant_scenario(n=6, rogues=(1, 3), mode="hung_r"))
        assert bound.multi_fault_delay_bound(2) == \
            2 * bound.healthy_port_delay_bound()
        with pytest.raises(ValueError):
            bound.multi_fault_delay_bound(-1)


class TestGracefulDegradation:
    """Satellite: RecoveryPolicy give-up / re-quarantine at scale."""

    def test_persistent_rogue_is_requarantined_then_given_up(self):
        scenario = tenant_scenario(n=12, rogues=(5,), horizon=16_000)
        result = run_scenario(scenario, fast=False)
        kinds = recovery_kinds(result)[5]
        # the wild master re-offends after every reset: quarantine once
        # per retry, then the policy gives up and leaves it quarantined
        assert kinds.count("quarantine") == RECOVERY_POLICY.max_retries + 1
        assert kinds.count("giveup") == 1
        assert kinds[-1] == "giveup"
        assert result.trips[5] == RECOVERY_POLICY.max_retries + 1

    def test_transient_rogue_is_recovered_not_abandoned(self):
        # a single out-of-grant burst (one 16-beat sub): the filter
        # trips once, the port drains, and recovery re-couples it
        plans = tuple(
            PortPlan(jobs=(("read", 3 * SPAN, 256),),
                     fault=MasterFault(mode="wild_addr"))
            if index == 2 else
            PortPlan(jobs=(("read", index * SPAN, 256),))
            for index in range(6))
        scenario = Scenario(
            family="flat", ports=plans,
            grants=tuple((i * SPAN, SPAN) for i in range(6)),
            horizon=16_000, settle=512)
        result = run_scenario(scenario, fast=False)
        kinds = recovery_kinds(result)[2]
        assert "recouple" in kinds
        assert "giveup" not in kinds

    def test_hung_reader_is_abandoned_because_it_never_drains(self):
        # a wedged R channel cannot drain (the hung engine will not
        # consume even synthesized beats), so recovery burns its retry
        # budget without ever resetting and leaves the port quarantined
        scenario = tenant_scenario(n=6, rogues=(2,), mode="hung_r",
                                   persistent=False, horizon=16_000)
        result = run_scenario(scenario, fast=False)
        kinds = recovery_kinds(result)[2]
        assert kinds[0] == "quarantine"
        assert kinds[-1] == "giveup"
        assert "recouple" not in kinds

    def test_every_other_tenant_keeps_clean_service(self):
        scenario = tenant_scenario(n=12, rogues=(0, 6), horizon=16_000)
        result = run_scenario(scenario, fast=False)
        baseline = run_scenario(scenario.baseline(), fast=False)
        check_isolation(scenario, result, baseline)
        for index, info in enumerate(result.engines):
            if index in (0, 6):
                continue
            assert info["error_responses"] == 0
            assert info["jobs_completed"] == \
                baseline.engines[index]["jobs_completed"]

    def test_giveup_ports_stay_decoupled_at_end_of_run(self):
        scenario = tenant_scenario(n=8, rogues=(3,), horizon=16_000)
        result = run_scenario(scenario, fast=False)
        kinds = recovery_kinds(result)[3]
        # after giveup there is no further recouple
        assert kinds.index("giveup") == len(kinds) - 1


class TestFaultStormAtScale:
    """The acceptance storm: 64 domains, 8 faulted, digest-stable."""

    STORM = {"n_domains": 64, "n_faulted": 8, "mix": "mixed", "seed": 3,
             "job_bytes": 256}

    def test_storm_shape(self):
        scenario = compile_isolation(self.STORM)
        assert len(scenario.ports) == 64
        assert len(scenario.rogue_indices) == 8

    def test_storm_passes_the_full_oracle_stack(self):
        scenario = compile_isolation(self.STORM)
        result = evaluate_scenario(scenario, checks=DEFAULT_CHECKS)
        tripped = [i for i, trips in enumerate(result.trips) if trips]
        assert tripped == sorted(scenario.rogue_indices)

    def test_storm_campaign_digest_is_worker_count_independent(self):
        scenarios = [
            compile_isolation(self.STORM),
            compile_isolation({"n_domains": 8, "n_faulted": 1,
                               "mix": "wild", "seed": 11}),
        ]
        checks = ("liveness", "protocol", "isolation")
        from repro.verify import CampaignConfig
        config = CampaignConfig(checks=checks)
        inline = run_campaign(scenarios, workers=1, config=config)
        pooled = run_campaign(scenarios, workers=2, config=config)
        assert inline.ok and pooled.ok
        assert inline.digest == pooled.digest
