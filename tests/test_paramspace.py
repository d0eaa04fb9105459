"""Declarative parameter spaces: coverage modes, determinism, grids.

Pins the :class:`~repro.verify.paramspace.ParamSpace` contracts the
campaign machinery relies on: full mode is the exact cartesian product,
pairwise covers every axis-value pair at least once and is byte-for-byte
reproducible per seed, every registered grid compiles into valid
scenarios, and every grid's compiled scenario list is pinned by digest.
"""

import hashlib
from itertools import combinations

import pytest

from repro.verify import (
    COMPOSITES,
    GRIDS,
    ParamSpace,
    Scenario,
    canonical_json,
    grid_names,
    grid_scenarios,
)
from repro.verify.oracles import ALL_CHECKS, DEFAULT_CHECKS

AXES = {
    "depth": (2, 3, 4),
    "program": ("none", "hung_r", "withheld_w", "illegal_burst"),
    "timeout": (300, 400),
}


class TestFullMode:
    def test_cardinality_is_the_product_of_the_axes(self):
        space = ParamSpace(AXES, mode="full")
        assert len(space.assignments()) == 3 * 4 * 2

    def test_every_assignment_is_unique_and_complete(self):
        rows = ParamSpace(AXES, mode="full").assignments()
        keys = {canonical_json(row) for row in rows}
        assert len(keys) == len(rows)
        for row in rows:
            assert set(row) == set(AXES)
            for name, values in AXES.items():
                assert row[name] in values

    def test_iteration_order_is_stable(self):
        a = list(ParamSpace(AXES, mode="full"))
        b = list(ParamSpace(AXES, mode="full"))
        assert a == b


class TestPairwiseMode:
    def test_covers_every_axis_value_pair(self):
        space = ParamSpace(AXES, mode="pairwise")
        rows = space.assignments()
        names = list(AXES)
        for a, b in combinations(names, 2):
            for va in AXES[a]:
                for vb in AXES[b]:
                    assert any(row[a] == va and row[b] == vb
                               for row in rows), (
                        f"pair ({a}={va}, {b}={vb}) never covered")

    def test_is_smaller_than_the_full_product(self):
        full = len(ParamSpace(AXES, mode="full").assignments())
        pairwise = len(ParamSpace(AXES, mode="pairwise").assignments())
        assert pairwise < full

    def test_identical_seeds_yield_byte_identical_streams(self):
        a = ParamSpace(AXES, mode="pairwise", seed=7).assignments()
        b = ParamSpace(AXES, mode="pairwise", seed=7).assignments()
        assert canonical_json(a) == canonical_json(b)

    def test_single_axis_degenerates_to_its_values(self):
        space = ParamSpace({"x": (1, 2, 3)}, mode="pairwise")
        assert space.assignments() == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_wide_axes_pairwise_still_covers(self):
        axes = {"a": tuple(range(6)), "b": tuple(range(5)),
                "c": (True, False), "d": ("x", "y", "z")}
        rows = ParamSpace(axes, mode="pairwise").assignments()
        assert len(rows) >= 6 * 5            # lower bound: largest pair
        for x, y in combinations(axes, 2):
            covered = {(row[x], row[y]) for row in rows}
            assert len(covered) == len(axes[x]) * len(axes[y])


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ParamSpace(AXES, mode="sideways")

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ParamSpace({})

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ValueError):
            ParamSpace({"x": ()})



class TestGridRegistry:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_every_grid_compiles_to_valid_scenarios(self, name):
        scenarios, __ = grid_scenarios(name)
        assert scenarios
        for scenario in scenarios:
            assert isinstance(scenario, Scenario)
            # round-trips (the campaign ships scenarios as JSON)
            assert Scenario.from_json(scenario.to_json()) == scenario

    def test_throughput_grid_is_large_enough_for_the_bench(self):
        scenarios, __ = grid_scenarios("throughput")
        keys = {s.to_json() for s in scenarios}
        assert len(keys) >= 500

    def test_smoke_composite_targets_two_hundred_scenarios(self):
        scenarios, checks = grid_scenarios("smoke")
        assert 150 <= len(scenarios) <= 400
        assert checks == DEFAULT_CHECKS

    def test_horizon_override_and_limit(self):
        scenarios, __ = grid_scenarios("fabric", horizon=2_000, limit=5)
        assert len(scenarios) == 5
        assert all(s.horizon == 2_000 for s in scenarios)

    def test_unknown_grid_raises(self):
        with pytest.raises(KeyError):
            grid_scenarios("no-such-grid")

    def test_grid_names_cover_simple_and_composite(self):
        names = grid_names()
        assert set(GRIDS) <= set(names)
        assert set(COMPOSITES) <= set(names)

    def test_seeded_grids_are_reproducible(self):
        a, __ = grid_scenarios("faults", seed=5)
        b, __ = grid_scenarios("faults", seed=5)
        assert [s.to_json() for s in a] == [s.to_json() for s in b]


#: sha-256 of the newline-joined scenario JSON, scenario count and
#: checks of every grid at its defaults, plus the nightly's full churn
#: grid and CI's 64-row tlm campaign: a drift in grid enumeration fails
#: here, not only in the minutes-long campaign digests
PINNED_GRIDS = [
    ("cascade", {}, 24, "8b312c4532b6b7bb65bd46743eeeba58"
                        "b161373a9c0e41927cfd28828c540164", DEFAULT_CHECKS),
    ("churn", {}, 13, "5744193f9ac5f87de1a7e4d67eb1af6e"
                      "59daeb303eabf191773dd953abc94e26", DEFAULT_CHECKS),
    ("fabric", {}, 17, "91173d365175c1318cac2b81bd65b267"
                       "1b90882b467f2f47415c0bc5e0a87b28", DEFAULT_CHECKS),
    ("faults", {}, 54, "bef7d156205214fb6dfff79ca698ca5b"
                       "17adceb2ff1325e5fdaf8bd237f78b9c", DEFAULT_CHECKS),
    ("isolation", {}, 20, "59751b10eb7f9633fdd76eb5645ab59a"
                          "de95eb246a673be281d6e05f4f580622",
     DEFAULT_CHECKS),
    ("reservation", {}, 96, "d9a58614d209e80c89e73e6aff85bd4b"
                            "639434cc544d8a6da39f8fc98c0883fa",
     DEFAULT_CHECKS),
    ("smoke", {}, 191, "a0310d190f22845667b58da571a31e88"
                       "a8992adbb10a9892d22627271fdafe83", DEFAULT_CHECKS),
    ("throughput", {}, 578, "3c1a47796a54efdf84d5969da7e4b2c6"
                            "8c36d70c6d5f800804a78f8d1fb061f6",
     ("equivalence", "liveness", "protocol")),
    ("tlm", {}, 163, "e567c6d9d6f91e8c55da426a31ecb638"
                     "5706ee2e3ec3fc577d3637ac80b48f7b", ALL_CHECKS),
    ("churn", {"mode": "full"}, 600, "2199f251c6108613978465dfbafabcde"
                                     "55df8959e15f879710ceb7a8e580e353",
     DEFAULT_CHECKS),
    ("tlm", {"limit": 64}, 64, "9cdc90778317bd62891510b8049906fd"
                               "f625019c285acb6d25b3d7704acc7202",
     ALL_CHECKS),
]


@pytest.mark.parametrize(
    "name, kwargs, count, digest, checks", PINNED_GRIDS,
    ids=[f"{name}-{'-'.join(f'{k}={v}' for k, v in kwargs.items())}"
         .rstrip("-") for name, kwargs, *__ in PINNED_GRIDS])
def test_compiled_scenario_lists_are_pinned(name, kwargs, count, digest,
                                            checks):
    scenarios, got_checks = grid_scenarios(name, **kwargs)
    joined = "\n".join(s.to_json() for s in scenarios)
    assert len(scenarios) == count
    assert hashlib.sha256(joined.encode()).hexdigest() == digest
    assert got_checks == checks
