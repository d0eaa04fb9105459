"""Build and run :class:`~repro.verify.scenario.Scenario` objects.

One scenario runs as a fixed-length simulation (``scenario.horizon`` +
``scenario.settle`` cycles) so the reference and fast kernel paths walk
exactly the same wall of cycles; all oracle checks happen *after* the
run on the collected :class:`RunResult`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..axi import LinkChecker
from ..axi.port import AxiLink
from ..hyperconnect import HyperConnect
from ..hypervisor import Domain, Hypervisor, RecoveryPolicy
from ..masters import AxiDma, FaultInjectingMaster, GreedyTrafficGenerator
from ..memory import FaultInjectingMemory, MemoryStore, MemorySubsystem
from ..platforms import ZCU102
from ..sim import Simulator
from ..smartconnect import SmartConnect
from ..system.builder import build_fabric
from .scenario import PortPlan, Scenario

#: short retry leash so unrecoverable faults give up inside the horizon
RECOVERY_POLICY = RecoveryPolicy(max_retries=2, backoff_cycles=256,
                                 backoff_factor=2)
#: copy jobs write this far above their read address
COPY_DEST_OFFSET = 0x80_0000
#: bytes the beneficiary writes (then reads back) onto a re-granted
#: range right after a revocation commits
CHURN_WRITE_BYTES = 512
#: data width of every link :func:`build_system` builds (the platform's
#: FPGA-PS port width); grid horizons and oracle bounds count beats of it
BEAT_BYTES = ZCU102.hp_data_bytes


@dataclass
class Station:
    """One leaf port of the built system: plan + live components."""

    plan_index: int
    plan: PortPlan
    engine: object
    fabric: HyperConnect | SmartConnect
    port_index: int
    checker: Optional[LinkChecker]
    jobs: List[object] = field(default_factory=list)

    @property
    def supervisor(self):
        """The port's Transaction Supervisor (None on SmartConnect)."""
        supervisors = getattr(self.fabric, "supervisors", None)
        if supervisors is None:
            return None
        return supervisors[self.port_index]


@dataclass
class System:
    """Everything :func:`build_system` wired together."""

    sim: Simulator
    scenario: Scenario
    stations: List[Station]
    fabrics: List[HyperConnect | SmartConnect]
    hypervisors: List[Hypervisor]
    memory: object
    #: functional backing store (tenanted scenarios only; None otherwise)
    store: Optional[MemoryStore] = None


@dataclass(frozen=True)
class RunResult:
    """Deterministic observables of one finished scenario run.

    Each observable is stored once.  :attr:`fingerprint` (what the
    equivalence oracle compares and corpus digests hash) covers only the
    fields it names, so a new field stays outside it until named there.
    """

    #: per-plan-index engine observables
    engines: Tuple[dict, ...]
    #: per-plan-index protocol violations (None = no checker)
    violations: Tuple[Optional[Tuple[str, ...]], ...]
    #: per-plan-index supervisor fault statistics as sorted
    #: ``(counter, value)`` items (empty on SmartConnect ports)
    fault_stats: Tuple[Tuple[Tuple[str, int], ...], ...]
    #: kernel event log (fault/recovery events), already dict-rendered
    events: Tuple[dict, ...]
    now: int
    #: per-plan-index latest job-completion cycle (None = none finished)
    done_cycles: Tuple[Optional[int], ...]
    #: per-churn-op end-state snapshots (pure primitives, in scenario
    #: op order; empty unless the scenario scripts churn) — the
    #: stale-window oracle's raw material
    churn_probes: Tuple[dict, ...] = ()
    #: committed TLM fast-forward epochs (0 on non-TLM runs and on TLM
    #: runs that declined every window; outside the fingerprint)
    tlm_epochs: int = 0

    @property
    def fingerprint(self) -> tuple:
        """``(engines, events, fault stats, now)``, plus the churn probes
        on churn scenarios (churn-free ones keep the historic 4-element
        form, so corpus and golden campaign digests stay pinned)."""
        fingerprint = (
            tuple(tuple(sorted(info.items())) for info in self.engines),
            tuple(tuple(sorted(d.items())) for d in self.events),
            self.fault_stats,
            self.now,
        )
        if self.churn_probes:
            fingerprint += (tuple(tuple(sorted(p.items()))
                                  for p in self.churn_probes),)
        return fingerprint

    @property
    def trips(self) -> Tuple[int, ...]:
        """Per-plan-index containment entries, watchdog plus protocol."""
        return tuple(sum(value for key, value in stats
                         if key in ("watchdog_trips", "protocol_trips"))
                     for stats in self.fault_stats)


def _make_memory(sim: Simulator, scenario: Scenario, link: AxiLink,
                 store: Optional[MemoryStore] = None):
    fault = scenario.memory
    if fault.kind == "none":
        return MemorySubsystem(sim, "mem", link, timing=ZCU102.dram,
                               store=store)
    kwargs: Dict[str, object] = {"seed": fault.seed}
    if fault.kind == "dead":
        kwargs["dead_after_beats"] = fault.dead_after_beats
    elif fault.kind == "freeze":
        kwargs["freeze_window"] = (fault.freeze_start,
                                   fault.freeze_start + fault.freeze_cycles)
    elif fault.kind == "stall":
        kwargs["stall_rate"] = fault.stall_rate
        kwargs["stall_cycles"] = fault.stall_cycles
    elif fault.kind == "error":
        kwargs["error_rate"] = fault.error_rate
    return FaultInjectingMemory(sim, "mem", link, timing=ZCU102.dram,
                                **kwargs)


def _make_engine(sim: Simulator, name: str, plan: PortPlan, link):
    if plan.is_rogue:
        if plan.fault.mode == "wild_addr":
            # protocol-compliant engine; the misbehaviour is entirely in
            # the job addresses (outside the tenant's grant), which the
            # region filter contains at ingest
            return AxiDma(sim, name, link)
        return FaultInjectingMaster(
            sim, name, link, fault_mode=plan.fault.mode,
            hang_after_beats=plan.fault.hang_after_beats,
            persistent=plan.fault.persistent)
    if plan.is_greedy:
        __, window_base, job_bytes = plan.jobs[0]
        return GreedyTrafficGenerator(sim, name, link,
                                      job_bytes=job_bytes,
                                      window_base=window_base, depth=4)
    return AxiDma(sim, name, link)


def _arm(hypervisor: Hypervisor, scenario: Scenario,
         stations: List[Station]) -> None:
    hc = hypervisor.hyperconnect
    for station in stations:
        if station.fabric is hc and station.plan.timeout is not None:
            hypervisor.driver.set_watchdog_timeout(
                station.port_index, station.plan.timeout)
    if scenario.equal_shares:
        share = 1.0 / hc.n_ports
        hypervisor.driver.set_bandwidth_shares(
            {port: share for port in range(hc.n_ports)},
            period=scenario.period)
    elif scenario.shares is not None:
        # flat family only: ports map 1:1 onto the single HyperConnect.
        # 0.0 decouples the port outright; 1.0 leaves it unreserved.
        for port, share in enumerate(scenario.shares):
            if share == 0.0:
                hypervisor.driver.decouple(port)
        reserved = {port: share
                    for port, share in enumerate(scenario.shares)
                    if 0.0 < share < 1.0}
        if reserved:
            hypervisor.driver.set_bandwidth_shares(
                reserved, period=scenario.period)
    hypervisor.default_recovery_policy = RECOVERY_POLICY
    hypervisor.enable_fault_recovery()


def _arm_tenants(hypervisor: Hypervisor, scenario: Scenario,
                 stations: List[Station],
                 store: MemoryStore) -> None:
    """Stamp one tenant domain per port with its scenario-pinned grant.

    Each domain gets a grant over the shared store (recorded in
    ``Domain.regions``) and the port's data-plane region filter — so an
    out-of-grant access (``wild_addr`` rogue) trips containment at the
    HyperConnect instead of reaching memory.
    """
    hypervisor.attach_memory(store)
    hc = hypervisor.hyperconnect
    for st in stations:
        if st.fabric is not hc:
            continue
        base, size = scenario.grants[st.plan_index]
        domain = hypervisor.create_domain(f"tenant{st.plan_index}")
        domain.ports.append(st.port_index)
        hypervisor.adopt_region(domain.name, base, size)


def churn_pattern(seed: int, nbytes: int) -> bytes:
    """Deterministic payload for churn writes (shared with the oracle).

    Payloads only carry data — the DRAM model's timing is
    payload-independent — so adding them never perturbs the cycle
    schedule; they exist so the stale-window check can prove which
    tenant's bytes actually landed in the contested range.
    """
    return bytes((seed * 37 + i * 131 + 11) & 0xFF
                 for i in range(nbytes))


def _arm_churn(hypervisor: Hypervisor, scenario: Scenario,
               stations: List[Station]) -> None:
    """Schedule the scenario's scripted revocations on the controller.

    Each op revokes the victim tenant's grant at its cycle; on commit
    the beneficiary (when any) immediately writes a known pattern into
    the re-granted range and reads it back, exercising the full
    revoke -> scrub -> re-grant -> reuse path inside one run.
    """
    hypervisor.enable_revocation()
    for cycle, victim, beneficiary in scenario.churn:
        base, size = scenario.grants[victim]
        region = next(r for r in hypervisor.domain(f"tenant{victim}").regions
                      if r.base == base)
        regrant_to = f"tenant{beneficiary}" if beneficiary >= 0 else None
        beneficiary_station = (stations[beneficiary]
                               if beneficiary >= 0 else None)

        def on_commit(commit_cycle, order, st=beneficiary_station,
                      base=base, size=size, beneficiary=beneficiary):
            if st is None:
                return
            nbytes = min(CHURN_WRITE_BYTES, size)
            st.jobs.append(st.engine.enqueue_write(
                base, nbytes, data=churn_pattern(beneficiary, nbytes)))
            st.jobs.append(st.engine.enqueue_read(base, nbytes))

        hypervisor.revoke_memory(f"tenant{victim}", region,
                                 regrant_to=regrant_to, at=cycle,
                                 on_commit=on_commit)


def build_system(scenario: Scenario, fast: bool,
                 tlm: bool = False) -> System:
    """Instantiate the scenario's topology family on a fresh simulator.

    ``fast`` selects the kernel path: the candidate leg of the
    kernel-equivalence oracle, checked against the reference leg by
    ``check_equivalence``.  ``tlm`` enables the transaction-level
    fast-forward mode, the candidate leg of the ``tlm`` oracle
    (:func:`~repro.verify.oracles.check_tlm`).
    """
    sim = Simulator("verify", clock_hz=ZCU102.pl_clock_hz, fast=fast,
                    tlm=tlm)
    bus = BEAT_BYTES
    plans = scenario.ports
    stations: List[Station] = []
    fabrics: List[HyperConnect | SmartConnect] = []
    store: Optional[MemoryStore] = None

    def station(index: int, fabric: HyperConnect | SmartConnect,
                port: int) -> None:
        plan = plans[index]
        link = fabric.port(port)
        engine = _make_engine(sim, f"ha{index}", plan, link)
        checker = None if plan.is_rogue else LinkChecker(link)
        stations.append(Station(index, plan, engine, fabric, port, checker))

    if scenario.family == "cascade":
        # depth-d chain: each level before the innermost has 2 ports —
        # port 0 cascades inward, port 1 hosts one leaf — and the
        # innermost level hosts every remaining plan.  Depth 2 keeps the
        # historic "outer"/"inner" naming (corpus digests pin it).
        depth = scenario.cascade_depth
        link, outer = build_fabric(sim, "hyperconnect", "m", "outer", 2,
                                   bus)
        memory = _make_memory(sim, scenario, link)
        fabrics = [outer]
        for level in range(1, depth):
            innermost = level == depth - 1
            name = "inner" if innermost else f"mid{level}"
            n_ports = len(plans) - (depth - 1) if innermost else 2
            fabrics.append(HyperConnect(
                sim, name, n_ports, fabrics[-1].port(0)))
        station(0, outer, 1)
        for level in range(1, depth - 1):
            station(level, fabrics[level], 1)
        inner = fabrics[-1]
        for index in range(depth - 1, len(plans)):
            station(index, inner, index - (depth - 1))
    elif scenario.family == "multiport":
        hp0, hc0 = build_fabric(sim, "hyperconnect", "hp0", "hc0",
                                len(plans) - 1, bus)
        hp1, hc1 = build_fabric(
            sim, "smartconnect" if scenario.fabric == "mixed"
            else "hyperconnect", "hp1", "hc1", 1, bus)
        memory = MemorySubsystem(sim, "mem", [hp0, hp1],
                                 timing=ZCU102.dram)
        fabrics = [hc0, hc1]
        for index in range(len(plans) - 1):
            station(index, hc0, index)
        station(len(plans) - 1, hc1, 0)
    else:  # flat: one interconnect
        link, fabric = build_fabric(sim, scenario.fabric, "m", "hc",
                                    len(plans), bus)
        if scenario.is_tenanted:
            store = MemoryStore()  # functional data for tenants
        memory = _make_memory(sim, scenario, link, store=store)
        fabrics = [fabric]
        for index in range(len(plans)):
            station(index, fabric, index)

    hypervisors = []
    for fabric in fabrics:
        if not isinstance(fabric, HyperConnect):
            continue               # SmartConnect has no hypervisor hooks
        hypervisor = Hypervisor(fabric)
        _arm(hypervisor, scenario, stations)
        hypervisors.append(hypervisor)
    if scenario.is_tenanted:
        _arm_tenants(hypervisors[0], scenario, stations, store)
        if scenario.churn is not None:
            _arm_churn(hypervisors[0], scenario, stations)

    for index, plan in enumerate(plans):
        st = stations[index]
        for kind, address, nbytes in plan.jobs:
            if kind == "greedy":
                continue           # the engine self-issues its traffic
            if kind == "read":
                st.jobs.append(st.engine.enqueue_read(address, nbytes))
            elif kind == "write":
                # churn runs carry payload-bearing healthy writes so the
                # stale-window oracle can inspect what landed in memory
                # (payloads are timing-neutral; see churn_pattern)
                data = None
                if scenario.churn is not None and not plan.is_rogue:
                    data = churn_pattern(100 + index, nbytes)
                st.jobs.append(st.engine.enqueue_write(address, nbytes,
                                                       data=data))
            elif kind == "copy":
                st.jobs.append(st.engine.enqueue_copy(
                    address, address + COPY_DEST_OFFSET, nbytes))
            else:
                raise ValueError(f"unknown job kind {kind!r}")

    return System(sim, scenario, stations, fabrics, hypervisors,
                  memory, store=store)


def _engine_observables(station: Station) -> dict:
    engine = station.engine
    return {
        "name": engine.name,
        "bytes_read": engine.bytes_read,
        "bytes_written": engine.bytes_written,
        "jobs_completed": len(engine.jobs_completed),
        "jobs_enqueued": len(station.jobs),
        "error_responses": engine.error_responses,
        "outstanding": engine.outstanding,
        "hung": bool(getattr(engine, "is_hung", False)),
    }


def _holds_region_at(domain: Domain, base: int) -> bool:
    """What the churn probe's ``*_window`` keys record (the key names
    predate grants living only in ``Domain.regions``; renaming them
    would move every churn fingerprint)."""
    return any(region.base == base for region in domain.regions)


def _churn_probe(system: System, op: Tuple[int, int, int]) -> dict:
    """End-state snapshot of one churn op (pure primitives only).

    Folded into the fingerprint for churn scenarios, so the equivalence
    oracle forces the revocation state machine — not just the traffic —
    to land bit-identically on every kernel path.
    """
    op_cycle, victim, beneficiary = op
    base, size = system.scenario.grants[victim]
    hypervisor = system.hypervisors[0]
    victim_station = system.stations[victim]
    supervisor = victim_station.supervisor
    stats = supervisor.fault_stats
    victim_domain = hypervisor.domain(f"tenant{victim}")
    beneficiary_window = beneficiary >= 0 and _holds_region_at(
        hypervisor.domain(f"tenant{beneficiary}"), base)
    return {
        "op_cycle": op_cycle,
        "victim": victim,
        "beneficiary": beneficiary,
        "base": base,
        "size": size,
        "victim_revocations": supervisor.revocations,
        "victim_outstanding": (supervisor.outstanding_reads
                               + supervisor.outstanding_writes),
        "victim_coupled": bool(
            hypervisor.driver.is_coupled(victim_station.port_index)),
        "victim_window": _holds_region_at(victim_domain, base),
        "victim_regions": len(victim_domain.regions),
        "victim_synth_beats": stats.synth_r_beats + stats.synth_b_beats,
        "epoch": hypervisor.driver.region_epoch(victim_station.port_index),
        "beneficiary_window": beneficiary_window,
        "store_digest": hashlib.sha256(
            system.store.read(base, size)).hexdigest(),
    }


def run_system(system: System) -> RunResult:
    """Run the fixed horizon and collect the deterministic observables."""
    scenario = system.scenario
    sim = system.sim
    sim.run(scenario.horizon)
    sim.run(scenario.settle)
    engines = tuple(_engine_observables(st) for st in system.stations)
    violations = tuple(
        tuple(str(v) for v in st.checker.violations)
        if st.checker is not None else None
        for st in system.stations)
    fault_stats = tuple(
        tuple(sorted(st.supervisor.fault_stats.as_dict().items()))
        if st.supervisor is not None else ()
        for st in system.stations)
    done_cycles = tuple(
        max((job.completed for job in st.jobs if job.completed is not None),
            default=None)
        for st in system.stations)
    churn_probes = tuple(_churn_probe(system, op)
                         for op in scenario.churn or ())
    return RunResult(engines=engines, violations=violations,
                     fault_stats=fault_stats,
                     events=tuple(sim.events.as_dicts()), now=sim.now,
                     done_cycles=done_cycles,
                     churn_probes=churn_probes,
                     tlm_epochs=sim.skip_stats.tlm_epochs)


def run_scenario(scenario: Scenario, fast: bool,
                 tlm: bool = False) -> RunResult:
    """Build, run, then close the simulator so the system frees itself
    as soon as this returns (:func:`run_system` leaves it open for
    callers that inspect the live system)."""
    system = build_system(scenario, fast, tlm=tlm)
    try:
        return run_system(system)
    finally:
        system.sim.close()
