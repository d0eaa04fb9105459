"""``repro.verify`` — property-based fault-campaign verification.

The subsystem that scales PR 2's five hand-seeded fault scenarios out to
randomized campaigns (ROADMAP: *fault-campaign scale-out*): pure-data
:class:`Scenario` descriptions, a harness that builds any of four
topology families from them, oracle families (liveness, AXI protocol,
fast-vs-reference kernel equivalence, analytic containment bound,
multi-tenant isolation, and the opt-in TLM fast-forward oracle), and a
replayable counterexample corpus.

Campaigns are the scale-out unit: :mod:`repro.verify.paramspace`
compiles declarative axis grids into scenario lists and
:mod:`repro.verify.campaign` streams them across worker processes,
aggregating verdicts into JSON-lines results (``python -m repro
campaign``).

Hypothesis strategies intentionally live in :mod:`repro.verify.
strategies` and are **not** imported here — the runtime package stays
import-clean without the test dependency.
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    campaign_digest,
    evaluate_record,
    load_results,
    run_campaign,
    scenario_id,
    write_results,
)
from .corpus import (
    CorpusEntry,
    add_entry,
    load_corpus,
    save_corpus,
)
from .paramspace import (
    COMPOSITES,
    GRIDS,
    GridSpec,
    ParamSpace,
    grid_names,
    grid_scenarios,
)
from .harness import (
    RECOVERY_POLICY,
    RunResult,
    Station,
    System,
    build_system,
    run_scenario,
    run_system,
)
from .oracles import (
    ALL_CHECKS,
    DEFAULT_CHECKS,
    OracleViolation,
    check_containment_bound,
    check_equivalence,
    check_isolation,
    check_liveness,
    check_protocol,
    check_scenario,
    check_tlm,
    containment_bound_for,
    dump_falsifying_example,
    evaluate_scenario,
    fingerprint_digest,
    isolation_bound_for,
)
from .scenario import (
    FABRICS,
    FAMILIES,
    JOB_KINDS,
    MASTER_FAULTS,
    MEMORY_FAULT_FAMILIES,
    MEMORY_FAULTS,
    MasterFault,
    MemoryFault,
    PortPlan,
    Scenario,
    canonical_json,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "campaign_digest",
    "evaluate_record",
    "load_results",
    "run_campaign",
    "scenario_id",
    "write_results",
    "COMPOSITES",
    "GRIDS",
    "GridSpec",
    "ParamSpace",
    "grid_names",
    "grid_scenarios",
    "CorpusEntry",
    "add_entry",
    "load_corpus",
    "save_corpus",
    "RECOVERY_POLICY",
    "RunResult",
    "Station",
    "System",
    "build_system",
    "run_scenario",
    "run_system",
    "ALL_CHECKS",
    "DEFAULT_CHECKS",
    "OracleViolation",
    "check_containment_bound",
    "check_equivalence",
    "check_isolation",
    "check_liveness",
    "check_protocol",
    "check_scenario",
    "check_tlm",
    "containment_bound_for",
    "dump_falsifying_example",
    "evaluate_scenario",
    "fingerprint_digest",
    "isolation_bound_for",
    "FABRICS",
    "FAMILIES",
    "JOB_KINDS",
    "MASTER_FAULTS",
    "MEMORY_FAULT_FAMILIES",
    "MEMORY_FAULTS",
    "MasterFault",
    "MemoryFault",
    "PortPlan",
    "Scenario",
    "canonical_json",
]
