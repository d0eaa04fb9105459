"""Randomized fault-campaign fuzzing (the `fuzz` marker).

Each test draws complete scenarios — topology family, port count,
per-port workloads, watchdog programming, and at most one fault program —
and runs the full oracle stack on every draw: kernel equivalence,
liveness, AXI protocol monitors, and (for single-rogue scenarios) the
analytic containment bound against the fault-free baseline.

Excluded from the tier-1 run by the default ``-m 'not slow and not
fuzz'`` addopts; the CI ``fault-fuzz`` job runs them under the
derandomized ``ci`` hypothesis profile (3 campaigns x 70 examples), and
``HYPOTHESIS_PROFILE=nightly`` deepens the search to 400 examples each.
A falsified draw is persisted by ``check_scenario`` as a
``falsified-*.json`` artifact for triage and corpus promotion.
"""

import pytest
from hypothesis import given

from repro.verify import check_scenario
from repro.verify.strategies import scenarios

pytestmark = pytest.mark.fuzz


@given(scenario=scenarios(families=("flat", "cascade")))
def test_in_order_families(scenario):
    """Flat and cascaded fabrics over the in-order DRAM model — the only
    families where memory-fault programs (dead/freeze/stall/error) are
    drawn alongside rogue masters."""
    check_scenario(scenario)


@given(scenario=scenarios(families=("ooo", "multiport")))
def test_advanced_memory_families(scenario):
    """The out-of-order controller behind the in-order adapter, and the
    dual-HyperConnect multi-port memory subsystem."""
    check_scenario(scenario)


@given(scenario=scenarios())
def test_all_families_mixed(scenario):
    """The full cross-product in one pool, so shrinking can move between
    families while minimizing a counterexample."""
    check_scenario(scenario)

