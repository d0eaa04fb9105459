"""Pure-data tests of the scenario model (no simulators involved).

Scenarios are the currency of the verification layer: hypothesis shrinks
them, the corpus stores them, humans re-run them.  That only works if
serialization is a faithful round-trip and the validation rules reject
every shape the harness cannot build.
"""

import dataclasses

import pytest
from hypothesis import given

from repro.verify import (
    MasterFault,
    MemoryFault,
    PortPlan,
    Scenario,
    canonical_json,
)
from repro.verify.strategies import scenarios


def flat(ports, **kwargs):
    return Scenario(family="flat", ports=tuple(ports), **kwargs)


def healthy(timeout=None):
    return PortPlan(jobs=(("read", 0x1000_0000, 1024),), timeout=timeout)


def rogue(mode="hung_r"):
    return PortPlan(jobs=(("read", 0x2000_0000, 1024),), timeout=400,
                    fault=MasterFault(mode=mode, hang_after_beats=8))


class TestRoundTrip:
    @given(scenario=scenarios())
    def test_json_round_trip_is_identity(self, scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    @given(scenario=scenarios())
    def test_canonical_json_is_stable(self, scenario):
        text = scenario.to_json()
        assert Scenario.from_json(text).to_json() == text

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_settle_defaults_on_old_corpus_entries(self):
        data = flat([healthy()]).to_dict()
        del data["settle"]
        assert Scenario.from_dict(data).settle == 256

    def test_new_fields_default_on_old_corpus_entries(self):
        """Dicts written before cascade_depth/fabric/shares existed must
        still load (the checked-in corpus predates them)."""
        data = flat([healthy()]).to_dict()
        for key in ("cascade_depth", "fabric", "shares"):
            del data[key]
        loaded = Scenario.from_dict(data)
        assert loaded.cascade_depth == 2
        assert loaded.fabric == "hyperconnect"
        assert loaded.shares is None

    @given(scenario=scenarios())
    def test_to_dict_equals_its_json_round_trip(self, scenario):
        """to_dict must be JSON-native all the way down (no tuples), so
        embedded campaign records compare equal after disk round trips."""
        import json
        assert scenario.to_dict() == json.loads(scenario.to_json())

    def test_shares_round_trip(self):
        scenario = flat([healthy(), healthy()], shares=(0.25, 1.0))
        clone = Scenario.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.shares == (0.25, 1.0)

    def test_greedy_jobs_round_trip(self):
        scenario = flat([PortPlan(jobs=(("greedy", 0x4000_0000, 8192),)),
                         healthy()])
        assert Scenario.from_json(scenario.to_json()) == scenario
        assert scenario.ports[0].is_greedy

    def test_fabric_and_depth_round_trip(self):
        scenario = Scenario(
            family="cascade", cascade_depth=3,
            ports=(healthy(), healthy(), healthy()))
        assert Scenario.from_json(scenario.to_json()) == scenario
        fabric = Scenario(family="flat", fabric="smartconnect",
                          ports=(healthy(),))
        assert Scenario.from_json(fabric.to_json()) == fabric


class TestValidation:
    def test_rejects_unknown_family(self):
        # "ooo" names the out-of-order family that no longer exists: an
        # old record carrying it is refused, not built as something else
        for family in ("star", "ooo"):
            with pytest.raises(ValueError):
                Scenario(family=family, ports=(healthy(),))

    def test_rejects_empty_ports(self):
        with pytest.raises(ValueError):
            flat([])

    @pytest.mark.parametrize("family", ("cascade", "multiport"))
    def test_rejects_single_port_composite_topologies(self, family):
        with pytest.raises(ValueError):
            Scenario(family=family, ports=(healthy(),))

    def test_rejects_two_rogues(self):
        with pytest.raises(ValueError):
            flat([rogue(), rogue()])

    def test_rejects_master_and_memory_fault_together(self):
        with pytest.raises(ValueError):
            flat([rogue(), healthy()], memory=MemoryFault(kind="dead"))

    @pytest.mark.parametrize("family", ("multiport",))
    def test_rejects_memory_fault_on_advanced_memories(self, family):
        ports = (healthy(), healthy())
        with pytest.raises(ValueError):
            Scenario(family=family, ports=ports,
                     memory=MemoryFault(kind="freeze"))

    def test_rejects_bad_fault_programs(self):
        with pytest.raises(ValueError):
            MasterFault(mode="explode")
        with pytest.raises(ValueError):
            MasterFault(mode="hung_r", hang_after_beats=-1)
        with pytest.raises(ValueError):
            MemoryFault(kind="haunted")
        with pytest.raises(ValueError):
            flat([healthy()], horizon=0)

    def test_rejects_unknown_fabric(self):
        with pytest.raises(ValueError):
            flat([healthy()], fabric="crossbar")

    def test_fabric_family_pairings(self):
        with pytest.raises(ValueError):        # smartconnect is flat-only
            Scenario(family="cascade", fabric="smartconnect",
                     ports=(healthy(), healthy()))
        with pytest.raises(ValueError):        # mixed is multiport-only
            flat([healthy()], fabric="mixed")

    def test_non_hyperconnect_fabrics_reject_hc_features(self):
        with pytest.raises(ValueError):        # faults need containment
            Scenario(family="flat", fabric="smartconnect",
                     ports=(rogue(),))
        with pytest.raises(ValueError):        # reservation is HC-only
            flat([healthy()], fabric="smartconnect", equal_shares=True)
        with pytest.raises(ValueError):        # watchdogs are HC-only
            flat([healthy(timeout=400)], fabric="smartconnect")

    def test_cascade_depth_rules(self):
        with pytest.raises(ValueError):        # depth < 2
            Scenario(family="cascade", cascade_depth=1,
                     ports=(healthy(), healthy()))
        with pytest.raises(ValueError):        # depth only for cascade
            flat([healthy()], cascade_depth=3)
        with pytest.raises(ValueError):        # needs one port per level
            Scenario(family="cascade", cascade_depth=3,
                     ports=(healthy(), healthy()))

    def test_shares_rules(self):
        ports = [healthy(), healthy()]
        with pytest.raises(ValueError):        # one fraction per port
            flat(ports, shares=(0.5,))
        with pytest.raises(ValueError):        # fractions in [0, 1]
            flat(ports, shares=(1.5, 0.5))
        with pytest.raises(ValueError):        # reserved sum <= 1
            flat(ports, shares=(0.7, 0.7))
        with pytest.raises(ValueError):        # exclusive with equal_shares
            flat(ports, shares=(0.5, 0.5), equal_shares=True)
        with pytest.raises(ValueError):        # flat-family only
            Scenario(family="cascade", ports=tuple(ports),
                     shares=(0.5, 0.5))
        with pytest.raises(ValueError):        # fault-free campaigns only
            flat([rogue(), healthy()], shares=(0.5, 0.5))
        # unreserved ports (1.0) don't count against the reserved sum
        assert flat(ports, shares=(0.6, 1.0)).shares == (0.6, 1.0)

    def test_greedy_port_rules(self):
        with pytest.raises(ValueError):        # exactly one job
            PortPlan(jobs=(("greedy", 0x4000_0000, 8192),
                           ("read", 0x1000_0000, 1024)))
        with pytest.raises(ValueError):        # no fault program
            PortPlan(jobs=(("greedy", 0x4000_0000, 8192),),
                     fault=MasterFault(mode="hung_r"))


class TestBaseline:
    def test_rogue_loses_fault_and_workload(self):
        scenario = flat([healthy(timeout=4000), rogue()])
        baseline = scenario.baseline()
        assert baseline.ports[1].fault == MasterFault()
        assert baseline.ports[1].jobs == ()
        # topology and healthy programming are untouched
        assert baseline.ports[0] == scenario.ports[0]
        assert baseline.ports[1].timeout == scenario.ports[1].timeout
        assert baseline.family == scenario.family
        assert baseline.rogue_index is None

    def test_memory_fault_is_stripped(self):
        scenario = flat([healthy(timeout=400)],
                        memory=MemoryFault(kind="dead", dead_after_beats=0))
        assert scenario.baseline().memory == MemoryFault()

    def test_baseline_of_healthy_scenario_is_itself(self):
        scenario = flat([healthy(), healthy(timeout=4000)])
        assert scenario.baseline() == scenario

    @given(scenario=scenarios())
    def test_baseline_is_always_fault_free(self, scenario):
        baseline = scenario.baseline()
        assert baseline.rogue_index is None
        assert baseline.memory.kind == "none"


class TestAccessors:
    def test_rogue_index(self):
        assert flat([healthy(), rogue()]).rogue_index == 1
        assert flat([rogue(), healthy()]).rogue_index == 0
        assert flat([healthy()]).rogue_index is None

    def test_scenarios_are_frozen(self):
        scenario = flat([healthy()])
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.family = "cascade"
