"""Declarative fault-campaign scenarios.

A :class:`Scenario` is a *pure-data* description of one randomized
verification run: the topology family, the per-port work and watchdog
programming, and at most one fault program (a misbehaving master **or** a
misbehaving memory).  Scenarios are deliberately JSON-serializable and
hashable-by-content so that

* hypothesis can shrink them (`repro.verify.strategies` builds them from
  primitive draws),
* falsified examples can be checked into the regression corpus
  (`tests/data/fault_corpus.json`) and replayed byte-identically,
* a scenario prints as something a human can re-run by hand.

The harness (:mod:`repro.verify.harness`) is the only code that turns a
scenario into live simulator components.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Tuple

from ..hyperconnect.regs import REGION_GRANULE
from ..masters.faulty import FAULT_MODES

#: supported topology families
FAMILIES = ("flat", "cascade", "multiport")
#: interconnect fabrics: pure HyperConnect, pure SmartConnect (flat
#: only), or mixed — HyperConnect + SmartConnect side by side on two
#: ports of the in-order memory
FABRICS = ("hyperconnect", "smartconnect", "mixed")
#: master misbehaviours: the fault-injecting master's modes plus
#: "wild_addr", a protocol-compliant master whose jobs target addresses
#: outside its tenant grant — only meaningful in tenanted scenarios,
#: where the HyperConnect's region filter contains it with DECERR
MASTER_FAULTS = FAULT_MODES + ("wild_addr",)
#: granularity of tenant grants: the region-filter registers' granule
GRANT_GRANULE = REGION_GRANULE
#: reads at this 4 KiB offset make an un-legalized 16-beat burst
#: straddle a page
ILLEGAL_OFFSET = 0xF80
#: memory misbehaviours (mirrors FaultInjectingMemory's knobs)
MEMORY_FAULTS = ("none", "dead", "freeze", "stall", "error")
#: families whose memory serves one link, where the fault-injecting
#: memory wrapper exists; a memory with several ports has no faulty
#: variant because :class:`~repro.memory.FaultInjectingMemory` serves
#: one link only
MEMORY_FAULT_FAMILIES = ("flat", "cascade")
#: job kinds a PortPlan may carry; "greedy" turns the whole port into a
#: saturating traffic generator (window base + job size, no completion
#: accounting) for bandwidth-sweep campaigns
JOB_KINDS = ("read", "write", "copy", "greedy")


def job_address(port_index: int, job_index: int = 0,
                offset: int = 0) -> int:
    """The address of a port's ``job_index``-th job in the untenanted
    grids and fuzz draws: one 4 MiB window per port, 64 KiB per job."""
    return 0x1000_0000 + (port_index << 22) + job_index * 0x1_0000 + offset


@dataclass(frozen=True)
class MasterFault:
    """One port's misbehaviour program (``mode="none"`` = compliant)."""

    mode: str = "none"
    hang_after_beats: int = 16
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MASTER_FAULTS:
            raise ValueError(f"unknown master fault mode {self.mode!r}")
        if self.hang_after_beats < 0:
            raise ValueError("hang_after_beats must be >= 0")


@dataclass(frozen=True)
class MemoryFault:
    """The memory subsystem's misbehaviour program."""

    kind: str = "none"
    dead_after_beats: int = 64
    freeze_start: int = 400
    freeze_cycles: int = 800
    stall_rate: float = 0.05
    stall_cycles: int = 20
    error_rate: float = 0.05
    seed: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MEMORY_FAULTS:
            raise ValueError(f"unknown memory fault kind {self.kind!r}")


@dataclass(frozen=True)
class PortPlan:
    """One leaf port: its workload, watchdog, and (optional) fault.

    ``jobs`` is a tuple of ``(kind, address, nbytes)`` with ``kind`` in
    ``read`` / ``write`` / ``copy`` (copies write to ``address +
    0x80_0000``).  ``timeout`` is the port's ``PORT_TIMEOUT`` programming
    (``None`` = disarmed).
    """

    jobs: Tuple[Tuple[str, int, int], ...] = ()
    timeout: Optional[int] = None
    fault: MasterFault = field(default_factory=MasterFault)

    def __post_init__(self) -> None:
        greedy = [job for job in self.jobs if job[0] == "greedy"]
        if greedy:
            if len(self.jobs) != 1:
                raise ValueError("a greedy port carries exactly one job "
                                 "(its window base and job size)")
            if self.fault.mode != "none":
                raise ValueError("greedy ports cannot carry a fault "
                                 "program")

    @property
    def is_rogue(self) -> bool:
        return self.fault.mode != "none"

    @property
    def is_greedy(self) -> bool:
        return bool(self.jobs) and self.jobs[0][0] == "greedy"


@dataclass(frozen=True)
class Scenario:
    """One randomized verification run, fully determined by its fields.

    Family layouts (see :func:`repro.verify.harness.build_system`):

    * ``flat`` — ``len(ports)`` ports on one HyperConnect over the
      in-order DRAM model;
    * ``cascade`` — ``ports[0]`` directly on the outer HyperConnect,
      ``ports[1:]`` on an inner HyperConnect cascaded into the outer's
      port 0 (requires >= 2 ports);
    * ``multiport`` — ``ports[:-1]`` on one HyperConnect, ``ports[-1]``
      on a second, both into two ports of the in-order memory (requires
      >= 2 ports).

    ``equal_shares`` arms the fig. 5-style symmetric bandwidth
    reservation with period ``period`` on every HyperConnect; ``shares``
    instead reserves explicit per-port fractions on a flat fabric (0.0
    decouples the port, 1.0 leaves it unreserved).  ``cascade_depth``
    deepens the cascade family beyond the paper's two levels: each extra
    level hosts one leaf port and forwards the rest inward.  ``fabric``
    swaps the interconnect: ``smartconnect`` builds the flat family on
    the baseline SmartConnect, ``mixed`` puts the multiport family's
    last port on a SmartConnect beside the HyperConnect.  At most one
    fault program may be active: either exactly one rogue
    :class:`PortPlan` or a non-``none`` :class:`MemoryFault`.
    """

    family: str
    ports: Tuple[PortPlan, ...]
    memory: MemoryFault = field(default_factory=MemoryFault)
    equal_shares: bool = False
    period: int = 2048
    horizon: int = 12_000
    settle: int = 256
    cascade_depth: int = 2
    fabric: str = "hyperconnect"
    shares: Optional[Tuple[float, ...]] = None
    #: per-port tenant grants ``(base, size)`` — non-None marks a
    #: *tenanted* scenario: one domain per port, disjoint memory
    #: grants, HyperConnect region filters armed, and (unlike the
    #: single-fault campaigns) any number of rogue tenants at once
    grants: Optional[Tuple[Tuple[int, int], ...]] = None
    #: scripted live revocations ``(cycle, victim, beneficiary)`` —
    #: at ``cycle`` the victim port's grant is revoked mid-burst
    #: (quiesce -> drain -> retarget -> scrub) and, when
    #: ``beneficiary`` >= 0, immediately re-granted to that port's
    #: domain (``-1`` = revoke only).  Requires tenant grants; victims
    #: and beneficiaries must be distinct healthy (non-rogue,
    #: non-greedy) tenants, at most one revocation per victim
    churn: Optional[Tuple[Tuple[int, int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.fabric not in FABRICS:
            raise ValueError(f"unknown fabric {self.fabric!r}")
        if not self.ports:
            raise ValueError("a scenario needs at least one port")
        if self.family in ("cascade", "multiport") and len(self.ports) < 2:
            raise ValueError(f"{self.family} needs >= 2 ports")
        rogues = [p for p in self.ports if p.is_rogue]
        if self.grants is None:
            if len(rogues) > 1:
                raise ValueError("at most one rogue master per "
                                 "(untenanted) scenario")
            if any(p.fault.mode == "wild_addr" for p in self.ports):
                raise ValueError("wild_addr faults need tenant grants "
                                 "(nothing confines an untenanted port)")
        else:
            if self.family != "flat":
                raise ValueError("tenant grants only build the flat "
                                 "family")
            if self.fabric != "hyperconnect":
                raise ValueError("tenant grants need the hyperconnect "
                                 "fabric (region filters)")
            if self.memory.kind != "none":
                raise ValueError("tenanted scenarios model master-side "
                                 "faults only; drop the memory fault")
            if len(self.grants) != len(self.ports):
                raise ValueError("grants must name a (base, size) per "
                                 "port")
            spans = []
            for index, (base, size) in enumerate(self.grants):
                if base < 0 or size <= 0:
                    raise ValueError(
                        f"grant {index}: base must be >= 0 and size > 0")
                if base % GRANT_GRANULE or size % GRANT_GRANULE:
                    raise ValueError(
                        f"grant {index}: base/size must be multiples of "
                        f"0x{GRANT_GRANULE:x}")
                spans.append((base, base + size, index))
            spans.sort()
            for (b0, e0, i0), (b1, e1, i1) in zip(spans, spans[1:]):
                if b1 < e0:
                    raise ValueError(
                        f"grants {i0} and {i1} overlap "
                        f"([0x{b0:x},0x{e0:x}) vs [0x{b1:x},0x{e1:x}))")
        if self.churn is not None:
            if self.grants is None:
                raise ValueError("churn (live revocation) needs tenant "
                                 "grants to revoke")
            if not self.churn:
                raise ValueError("churn must be None or non-empty")
            victims = set()
            beneficiaries = set()
            for op_index, op in enumerate(self.churn):
                if len(op) != 3:
                    raise ValueError(
                        f"churn op {op_index}: expected (cycle, victim, "
                        f"beneficiary), got {op!r}")
                cycle, victim, beneficiary = op
                if not 1 <= cycle < self.horizon:
                    raise ValueError(
                        f"churn op {op_index}: cycle {cycle} outside "
                        f"[1, horizon)")
                if not 0 <= victim < len(self.ports):
                    raise ValueError(
                        f"churn op {op_index}: victim {victim} is not a "
                        "port index")
                if beneficiary != -1 and not 0 <= beneficiary < len(
                        self.ports):
                    raise ValueError(
                        f"churn op {op_index}: beneficiary {beneficiary} "
                        "must be -1 (revoke only) or a port index")
                if beneficiary == victim:
                    raise ValueError(
                        f"churn op {op_index}: a port cannot be granted "
                        "the region it is losing")
                if victim in victims:
                    raise ValueError(
                        f"churn op {op_index}: one revocation per victim "
                        "port")
                for role, index in (("victim", victim),
                                    ("beneficiary", beneficiary)):
                    if index == -1:
                        continue
                    plan = self.ports[index]
                    if plan.is_rogue:
                        raise ValueError(
                            f"churn op {op_index}: {role} {index} is a "
                            "rogue — revoking a faulted tenant is the "
                            "recovery ladder's job")
                    if plan.is_greedy:
                        raise ValueError(
                            f"churn op {op_index}: {role} {index} is a "
                            "greedy port (no grant-confined workload)")
                victims.add(victim)
                if beneficiary != -1:
                    beneficiaries.add(beneficiary)
            if victims & beneficiaries:
                raise ValueError("churn: a beneficiary cannot also be a "
                                 "victim")
        if rogues and self.memory.kind != "none":
            raise ValueError("one fault program per scenario: master "
                             "fault and memory fault are exclusive")
        if (self.memory.kind != "none"
                and self.family not in MEMORY_FAULT_FAMILIES):
            raise ValueError(
                f"memory faults need a single-link memory family "
                f"({MEMORY_FAULT_FAMILIES}); {self.family!r} has no "
                "fault-injecting memory variant")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.cascade_depth < 2:
            raise ValueError("cascade_depth must be >= 2")
        if self.family != "cascade" and self.cascade_depth != 2:
            raise ValueError("cascade_depth only applies to the cascade "
                             "family")
        if self.family == "cascade" and len(self.ports) < self.cascade_depth:
            raise ValueError(
                f"a depth-{self.cascade_depth} cascade hosts one port per "
                f"outer level plus >= 1 at the innermost: needs >= "
                f"{self.cascade_depth} ports, got {len(self.ports)}")
        if self.fabric != "hyperconnect":
            if self.fabric == "smartconnect" and self.family != "flat":
                raise ValueError("the smartconnect fabric only builds the "
                                 "flat family")
            if self.fabric == "mixed" and self.family != "multiport":
                raise ValueError("the mixed fabric only builds the "
                                 "multiport family")
            if rogues or self.memory.kind != "none":
                raise ValueError("fault programs need the hyperconnect "
                                 "fabric (SmartConnect has no containment "
                                 "or recovery path)")
            if self.equal_shares or self.shares is not None:
                raise ValueError("bandwidth reservation needs the "
                                 "hyperconnect fabric")
            if any(p.timeout is not None for p in self.ports):
                raise ValueError("per-port watchdogs need the "
                                 "hyperconnect fabric")
        if self.shares is not None:
            if self.family != "flat":
                raise ValueError("explicit shares only apply to the flat "
                                 "family")
            if self.equal_shares:
                raise ValueError("equal_shares and explicit shares are "
                                 "exclusive")
            if len(self.shares) != len(self.ports):
                raise ValueError("shares must name a fraction per port")
            if any(not 0.0 <= s <= 1.0 for s in self.shares):
                raise ValueError("shares must lie in [0, 1]")
            reserved = sum(s for s in self.shares if s < 1.0)
            if reserved > 1.0 + 1e-9:
                raise ValueError("reserved shares must sum to <= 1")
            if rogues or self.memory.kind != "none":
                raise ValueError("share sweeps are fault-free campaigns; "
                                 "drop the fault program")

    # ------------------------------------------------------------------

    @property
    def rogue_index(self) -> Optional[int]:
        """Index of the (single) rogue port, if any.

        Tenanted scenarios may carry several rogues; this returns the
        first (use :attr:`rogue_indices` for the full set).
        """
        for index, plan in enumerate(self.ports):
            if plan.is_rogue:
                return index
        return None

    @property
    def rogue_indices(self) -> Tuple[int, ...]:
        """Indices of every rogue port (possibly several, tenanted)."""
        return tuple(index for index, plan in enumerate(self.ports)
                     if plan.is_rogue)

    @property
    def is_tenanted(self) -> bool:
        """True when the scenario stamps per-port tenant domains."""
        return self.grants is not None

    @property
    def churn_victims(self) -> Tuple[int, ...]:
        """Port indices losing their grant mid-run (sorted)."""
        if self.churn is None:
            return ()
        return tuple(sorted(victim for _, victim, _ in self.churn))

    @property
    def churn_beneficiaries(self) -> Tuple[int, ...]:
        """Port indices receiving a re-granted range (sorted)."""
        if self.churn is None:
            return ()
        return tuple(sorted({b for _, _, b in self.churn if b >= 0}))

    @property
    def churn_involved(self) -> Tuple[int, ...]:
        """Victims and beneficiaries together (sorted)."""
        return tuple(sorted(set(self.churn_victims)
                            | set(self.churn_beneficiaries)))

    def baseline(self) -> "Scenario":
        """The fault-free twin used to measure interference deltas.

        The rogue port keeps its place in the topology but loses both
        its fault and its workload (matching how `bench_fault_campaign`
        measures healthy-port interference); a memory fault is simply
        stripped.  Scripted churn is *kept*: the twin of a churn-storm
        scenario revokes on the same schedule, so healthy bystanders see
        the same planned transitions and stay bit-comparable (the
        churn-free twin used by the stale-window oracle is
        ``replace(scenario, churn=None)`` instead).
        """
        ports = tuple(
            replace(plan, fault=MasterFault(), jobs=())
            if plan.is_rogue else plan
            for plan in self.ports)
        return replace(self, ports=ports, memory=MemoryFault())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Purely JSON-native types (lists, not tuples) all the way
        down, so ``to_dict() == json.loads(to_json())`` exactly."""
        data = asdict(self)
        data["ports"] = list(data["ports"])
        for plan in data["ports"]:
            plan["jobs"] = [list(job) for job in plan["jobs"]]
        if data["shares"] is not None:
            data["shares"] = list(data["shares"])
        if data["grants"] is None:
            # omitted-when-absent: untenanted scenarios keep the exact
            # canonical JSON (and scenario_id) they had before tenancy
            # existed — corpus and golden campaign digests stay pinned
            del data["grants"]
        else:
            data["grants"] = [list(grant) for grant in data["grants"]]
        if data["churn"] is None:
            # same omitted-when-absent contract as grants
            del data["churn"]
        else:
            data["churn"] = [list(op) for op in data["churn"]]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        ports = tuple(
            PortPlan(
                jobs=tuple((str(k), int(a), int(n))
                           for k, a, n in plan["jobs"]),
                timeout=plan["timeout"],
                fault=MasterFault(**plan["fault"]),
            )
            for plan in data["ports"])
        shares = data.get("shares")
        grants = data.get("grants")
        churn = data.get("churn")
        return cls(
            family=data["family"],
            ports=ports,
            memory=MemoryFault(**data["memory"]),
            equal_shares=data["equal_shares"],
            period=data["period"],
            horizon=data["horizon"],
            settle=data.get("settle", 256),
            cascade_depth=int(data.get("cascade_depth", 2)),
            fabric=data.get("fabric", "hyperconnect"),
            shares=(None if shares is None
                    else tuple(float(s) for s in shares)),
            grants=(None if grants is None
                    else tuple((int(b), int(s)) for b, s in grants)),
            churn=(None if churn is None
                   else tuple((int(c), int(v), int(b))
                              for c, v, b in churn)),
        )

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON — stable for hashing."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


def canonical_json(value) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace drift)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
