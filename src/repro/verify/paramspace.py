"""Declarative parameter spaces compiling down to :class:`Scenario` grids.

The hand-written scenario families (the seeded fault campaign, the
ablation sweeps, the fuzz strategies' fixed ranges) each encode one
slice of the paper's claim space.  A :class:`ParamSpace` makes the slice
declarative instead: name the axes and their values, pick a coverage
mode, and compile every assignment into a pure-data
:class:`~repro.verify.scenario.Scenario` the campaign runner
(:mod:`repro.verify.campaign`) can stream across worker processes.

Two coverage modes (the litex ``ParamSpace`` idiom):

* ``full`` — the exhaustive cartesian product, for small ranges;
* ``pairwise`` — a greedy covering array that hits every *pair* of axis
  values at least once, for broad ranges (size tracks the product of
  the two largest axes instead of all of them).

Both are deterministic: the same axes + mode + seed always yield the
same assignments in the same order, so campaign results are
reproducible byte-for-byte.

The named grids in :data:`GRIDS` cover the sweeps the ROADMAP calls
for — reservation-period sweeps, cascade depth beyond two levels, mixed
HyperConnect+SmartConnect fabrics, and fault-injection knobs — plus the
deliberately tiny ``throughput`` scenarios the campaign benchmark
streams.  :data:`COMPOSITES` stacks grids into one campaign (the
``smoke`` grid CI runs).  Every grid, simple or composite, enumerates
through :func:`_unique`: compiled scenarios deduplicated by their JSON,
then capped at ``limit``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import chain, combinations, product
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, \
    Optional, Sequence, Tuple

from .oracles import ALL_CHECKS, DEFAULT_CHECKS
from .scenario import ILLEGAL_OFFSET, MasterFault, MemoryFault, \
    PortPlan, Scenario, job_address

MODES = ("full", "pairwise")
#: candidate rows per greedy pairwise step (quality/speed trade-off)
_PAIRWISE_CANDIDATES = 24


class ParamSpace:
    """A named-axis grid with a declarative coverage mode.

    ``axes`` maps axis name to a non-empty sequence of JSON-serializable
    values; insertion order is significant (it fixes iteration order).
    """

    def __init__(self, axes: Mapping[str, Sequence], mode: str = "full",
                 seed: int = 0) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        if not axes:
            raise ValueError("a ParamSpace needs at least one axis")
        self.axes: Tuple[Tuple[str, tuple], ...] = tuple(
            (str(name), tuple(values)) for name, values in axes.items())
        for name, values in self.axes:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        self.mode = mode
        self.seed = seed
        self._assignments: Optional[List[dict]] = None

    # ------------------------------------------------------------------

    def assignments(self) -> List[dict]:
        """The grid's assignments, materialized once (stable order)."""
        if self._assignments is None:
            self._assignments = (self._full() if self.mode == "full"
                                 else self._pairwise())
        return list(self._assignments)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.assignments())

    def __len__(self) -> int:
        if self.mode == "full":     # closed form, no materialization
            size = 1
            for __, values in self.axes:
                size *= len(values)
            return size
        return len(self.assignments())

    def __repr__(self) -> str:   # pragma: no cover - debugging nicety
        shape = "x".join(str(len(v)) for __, v in self.axes)
        return f"ParamSpace({shape}, mode={self.mode!r})"

    # ------------------------------------------------------------------
    # modes
    # ------------------------------------------------------------------

    def _full(self) -> List[dict]:
        names = [name for name, __ in self.axes]
        return [dict(zip(names, row))
                for row in product(*(values for __, values in self.axes))]

    def _pairwise(self) -> List[dict]:
        """Greedy pairwise covering array.

        Repeatedly generates seeded candidate rows and keeps the one
        covering the most still-uncovered (axis, value) pairs until every
        pair is covered.  Size is near the product of the two largest
        axes — the classic bound — and the greedy choice is fully
        deterministic for a fixed seed.
        """
        if len(self.axes) == 1:
            name, values = self.axes[0]
            return [{name: value} for value in values]
        sizes = [len(values) for __, values in self.axes]
        uncovered = set()
        for a, b in combinations(range(len(self.axes)), 2):
            uncovered.update(((a, va), (b, vb))
                             for va in range(sizes[a])
                             for vb in range(sizes[b]))
        rng = random.Random(self.seed)
        rows: List[tuple] = []
        while uncovered:
            best_row, best_gain = None, -1
            for __ in range(_PAIRWISE_CANDIDATES):
                row = tuple(rng.randrange(size) for size in sizes)
                gain = sum(1 for pair in combinations(enumerate(row), 2)
                           if pair in uncovered)
                if gain > best_gain:
                    best_row, best_gain = row, gain
            if best_gain == 0:
                # the random candidates missed every remaining pair;
                # construct a row directly from one uncovered pair
                (a, va), (b, vb) = next(iter(sorted(uncovered)))
                row = list(rng.randrange(size) for size in sizes)
                row[a], row[b] = va, vb
                best_row = tuple(row)
            rows.append(best_row)
            uncovered -= set(combinations(enumerate(best_row), 2))
        names = [name for name, __ in self.axes]
        return [dict(zip(names, (self.axes[i][1][v]
                                 for i, v in enumerate(row))))
                for row in rows]


# ----------------------------------------------------------------------
# grid compilers: assignment dict -> Scenario
# ----------------------------------------------------------------------

def _healthy(port_index: int, kind: str = "read", nbytes: int = 1024,
             timeout: Optional[int] = None) -> PortPlan:
    return PortPlan(jobs=((kind, job_address(port_index), nbytes),),
                    timeout=timeout)


def _rogue(port_index: int, mode: str, hang: int, timeout: int,
           nbytes: int, persistent: bool = False) -> PortPlan:
    if mode == "illegal_burst":
        jobs = (("read", job_address(port_index, offset=ILLEGAL_OFFSET),
                 1024),)
        return PortPlan(jobs=jobs, timeout=timeout,
                        fault=MasterFault(mode=mode))
    kind = "read" if mode == "hung_r" else "write"
    beats = nbytes // 16
    return PortPlan(
        jobs=((kind, job_address(port_index), nbytes),), timeout=timeout,
        fault=MasterFault(mode=mode,
                          hang_after_beats=min(hang, max(0, beats - 1)),
                          persistent=persistent))


def compile_reservation(a: dict) -> Scenario:
    """Reservation-period sweep on a flat fabric with greedy traffic.

    ``share0`` is port 0's reserved fraction (0.0 = decoupled); port 1
    holds the complement (1.0 = unreserved when port 0 is decoupled, so
    the endpoint matches the hand-written ablation).
    """
    share = a["share0"]
    shares = (0.0, 1.0) if share == 0.0 else (share, round(1.0 - share, 4))
    job_bytes = a.get("job_bytes", 16384)
    ports = tuple(
        PortPlan(jobs=(("greedy", 0x4000_0000 + (i << 23), job_bytes),))
        for i in range(2))
    return Scenario(family="flat", ports=ports, shares=shares,
                    period=a.get("period", 2048),
                    horizon=a.get("horizon", 20_000), settle=256)


def compile_cascade(a: dict) -> Scenario:
    """Cascade-depth sweep: depth 2-4 chains, optionally with one rogue.

    Invalid combinations are repaired deterministically (port count is
    raised to the depth; the rogue index wraps into range) so pairwise
    rows always compile.
    """
    depth = a.get("depth", 2)
    n_ports = max(a.get("n_ports", depth + 1), depth)
    program = a.get("program", "none")
    job_bytes = a.get("job_bytes", 1024)
    rogue_index = a.get("rogue", 0) % n_ports
    plans = []
    for index in range(n_ports):
        if program != "none" and index == rogue_index:
            plans.append(_rogue(index, program, hang=a.get("hang", 8),
                                timeout=a.get("timeout", 400),
                                nbytes=max(job_bytes, 256)))
        else:
            plans.append(_healthy(index, nbytes=job_bytes))
    return Scenario(family="cascade", cascade_depth=depth,
                    ports=tuple(plans),
                    equal_shares=a.get("equal_shares", False),
                    horizon=12_000)


def compile_fabric(a: dict) -> Scenario:
    """Fabric sweep: HyperConnect vs SmartConnect vs mixed, healthy.

    The fabric axis dominates: ``smartconnect`` forces the flat family,
    ``mixed`` forces multiport (deterministic repair, so family and
    fabric can both be broad pairwise axes).
    """
    fabric = a.get("fabric", "hyperconnect")
    family = a.get("family", "flat")
    if fabric == "smartconnect":
        family = "flat"
    elif fabric == "mixed":
        family = "multiport"
    elif family not in ("flat", "multiport"):
        family = "flat"
    n_ports = max(a.get("n_ports", 2), 2 if family == "multiport" else 1)
    kind = a.get("kind", "read")
    job_bytes = a.get("job_bytes", 1024)
    equal_shares = (a.get("equal_shares", False)
                    and fabric == "hyperconnect")
    plans = tuple(_healthy(i, kind=kind, nbytes=job_bytes)
                  for i in range(n_ports))
    return Scenario(family=family, fabric=fabric, ports=plans,
                    equal_shares=equal_shares, horizon=12_000)


def compile_faults(a: dict) -> Scenario:
    """Fault-injection knob sweep over the single-link memory families.

    ``program`` selects at most one fault program: a rogue-master mode,
    a ``mem:*`` memory fault, or ``none``.
    """
    family = a.get("family", "flat")
    n_ports = a.get("n_ports", 2)
    if family == "cascade":
        n_ports = max(n_ports, 2)
    program = a.get("program", "none")
    timeout = a.get("timeout", 400)
    seed = a.get("seed", 1)
    job_bytes = a.get("job_bytes", 1024)
    memory = MemoryFault()
    plans: List[PortPlan] = []
    if program.startswith("mem:"):
        kind = program.split(":", 1)[1]
        memory = MemoryFault(kind=kind,
                             dead_after_beats=a.get("dead_after_beats", 64),
                             seed=seed)
        # every port is a victim: all watchdogs armed
        plans = [_healthy(i, nbytes=job_bytes, timeout=timeout)
                 for i in range(n_ports)]
    elif program != "none":
        rogue_index = a.get("rogue", 0) % n_ports
        for index in range(n_ports):
            if index == rogue_index:
                plans.append(_rogue(index, program,
                                    hang=a.get("hang", 8),
                                    timeout=timeout,
                                    nbytes=max(job_bytes, 256),
                                    persistent=a.get("persistent", False)))
            else:
                plans.append(_healthy(index, nbytes=job_bytes))
    else:
        plans = [_healthy(i, nbytes=job_bytes) for i in range(n_ports)]
    return Scenario(family=family, ports=tuple(plans), memory=memory,
                    equal_shares=a.get("equal_shares", False),
                    horizon=12_000)


#: per-tenant grant span in the isolation grid (32 register granules)
_ISOLATION_SPAN = 0x20000


def compile_isolation(a: dict) -> Scenario:
    """Many-domain tenant-isolation scenarios (fault storms at scale).

    ``n_domains`` tenants each own one port and one disjoint
    :data:`_ISOLATION_SPAN` grant; ``n_faulted`` of them (seed-chosen)
    run a fault program from ``mix``: ``wild`` rogues are
    protocol-compliant masters whose jobs target the *next* tenant's
    grant (the region filter must contain them), ``hung`` rogues wedge
    their R channel (the watchdog must contain them), ``mixed``
    alternates.  Healthy tenants leave their watchdogs disarmed — the
    region filter is an independent guard — so fair-share queueing at
    scale can never false-trip them, and the horizon scales with the
    total enqueued work so the liveness oracle holds at every grid
    point.

    The ``churn`` axis ("none"/"revoke"/"regrant") composes live grant
    churn with the fault storm: the first healthy tenant becomes the
    victim of a scripted mid-burst revocation at ``churn_cycle`` (its
    plan is swapped for one long write so the quiesce provably lands
    mid-burst), and "regrant" hands the range to the last healthy
    tenant at commit.  ``"none"`` compiles byte-identically to the
    pre-churn grid, so pinned isolation-campaign digests are
    unaffected; churn storms additionally allow ``n_faulted`` = 0
    (pure-churn rows with no rogue at all).
    """
    n = a.get("n_domains", 8)
    churn = a.get("churn", "none")
    regrant = churn == "regrant"
    if churn == "none":
        n_faulted = max(1, min(a.get("n_faulted", 1), n - 1))  # >= 1 healthy
    else:
        # keep the victim, the beneficiary (regrant only), and at least
        # one uninvolved bystander healthy
        healthy_floor = 3 if regrant else 2
        n_faulted = max(0, min(a.get("n_faulted", 1), n - healthy_floor))
    mix = a.get("mix", "wild")
    job_bytes = a.get("job_bytes", 512)
    rng = random.Random(a.get("seed", 0))
    faulted = sorted(rng.sample(range(n), n_faulted))
    modes: Dict[int, str] = {}
    for pos, index in enumerate(faulted):
        if mix == "wild":
            modes[index] = "wild_addr"
        elif mix == "hung":
            modes[index] = "hung_r"
        else:
            modes[index] = "wild_addr" if pos % 2 == 0 else "hung_r"
    span = _ISOLATION_SPAN
    churn_ops: Optional[tuple] = None
    victim = None
    if churn != "none":
        healthy = [i for i in range(n) if i not in modes]
        victim = healthy[0]
        beneficiary = healthy[-1] if regrant else -1
        churn_ops = ((a.get("churn_cycle", 64), victim, beneficiary),)
    plans: List[PortPlan] = []
    for index in range(n):
        base = index * span
        mode = modes.get(index)
        if index == victim:
            # one long write (>= 2 KiB = 128 beats) so the victim is
            # still streaming when the revocation quiesces its port
            plans.append(PortPlan(
                jobs=(("write", base, max(4 * job_bytes, 2048)),)))
        elif mode == "wild_addr":
            target = ((index + 1) % n) * span  # the neighbour's grant
            plans.append(PortPlan(
                jobs=(("read", target, max(job_bytes, 256)),),
                fault=MasterFault(mode="wild_addr")))
        elif mode == "hung_r":
            plans.append(PortPlan(
                # a hung read only wedges (and trips the watchdog) when
                # the beats left after the hang overflow the 32-deep
                # eFIFO data queue; 1 KiB = 64 beats guarantees it
                jobs=(("read", base, max(job_bytes, 1024)),),
                timeout=400,
                fault=MasterFault(mode="hung_r", hang_after_beats=8,
                                  persistent=a.get("persistent", True))))
        else:
            plans.append(PortPlan(jobs=(
                ("read", base, job_bytes),
                ("write", base + span // 2, job_bytes))))
    horizon = 6_000 + 6 * (n * 2 * job_bytes // 16)
    if churn_ops is not None:
        # the victim's long write and the beneficiary's post-commit
        # write + readback add work the legacy formula never counted
        horizon += 6 * (max(4 * job_bytes, 2048) // 16) + 2_048
    return Scenario(family="flat", ports=tuple(plans),
                    grants=tuple((i * span, span) for i in range(n)),
                    equal_shares=a.get("equal_shares", False),
                    horizon=horizon, settle=512, churn=churn_ops)


def compile_throughput(a: dict) -> Scenario:
    """Deliberately tiny scenarios for the campaign-throughput bench.

    Two wide injective axes (``slot`` picks the address window, ``size``
    the transfer) so a pairwise grid stays >= the product of their
    lengths and never collapses under deduplication.  The horizon scales
    with the total enqueued work (copies move their bytes twice) so the
    liveness oracle holds at every grid point while the scenarios stay
    as small as their workload allows.
    """
    slot = a["slot"]
    nbytes = a["size"]
    kind = a.get("kind", "read")
    n_ports = a.get("n_ports", 2)
    ports = tuple(
        PortPlan(jobs=((kind, job_address(i, offset=slot * 0x2000),
                        nbytes),))
        for i in range(n_ports))
    beats = n_ports * (nbytes * (2 if kind == "copy" else 1)) // 16
    return Scenario(family="flat", ports=ports, horizon=1_024 + 3 * beats,
                    settle=64)


# ----------------------------------------------------------------------
# the named grid registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """One named, ready-to-run scenario grid."""

    name: str
    description: str
    axes: Mapping[str, tuple]
    compile: Callable[[dict], Scenario]
    default_mode: str = "pairwise"
    #: oracle families the campaign should run on this grid ("isolation"
    #: is a no-op on untenanted scenarios, so it rides along for free)
    checks: Tuple[str, ...] = DEFAULT_CHECKS

    def compiled(self, mode: Optional[str] = None, seed: int = 0,
                 horizon: Optional[int] = None) -> Iterator[Scenario]:
        """Compile every assignment in order, optionally overriding
        every horizon (duplicates included)."""
        space = ParamSpace(self.axes, mode=mode or self.default_mode,
                           seed=seed)
        for assignment in space:
            scenario = self.compile(assignment)
            yield (scenario if horizon is None
                   else replace(scenario, horizon=horizon))

    def scenarios(self, mode: Optional[str] = None, seed: int = 0,
                  limit: Optional[int] = None,
                  horizon: Optional[int] = None) -> List[Scenario]:
        """The grid's distinct scenarios (see :func:`_unique`)."""
        return _unique(self.compiled(mode, seed, horizon), limit)


def _unique(scenarios: Iterable[Scenario],
            limit: Optional[int]) -> List[Scenario]:
    """Drop scenarios whose JSON repeats an earlier one, then stop at
    ``limit``: the one enumeration rule of every grid."""
    out: List[Scenario] = []
    seen = set()
    for scenario in scenarios:
        key = scenario.to_json()
        if key in seen:
            continue
        seen.add(key)
        out.append(scenario)
        if limit is not None and len(out) >= limit:
            break
    return out


GRIDS: Dict[str, GridSpec] = {}


def _register(spec: GridSpec) -> GridSpec:
    GRIDS[spec.name] = spec
    return spec


RESERVATION_GRID = _register(GridSpec(
    name="reservation",
    description="reservation-period sweep: per-port shares x periods on "
                "greedy traffic (liveness is vacuous on saturating "
                "ports — the oracle skips them)",
    axes={
        "share0": (0.0, 0.1, 0.25, 0.33, 0.5, 0.66, 0.75, 0.9),
        "period": (512, 1024, 2048, 4096),
        "job_bytes": (4096, 8192, 16384),
    },
    compile=compile_reservation,
    default_mode="full",
))

CASCADE_GRID = _register(GridSpec(
    name="cascade",
    description="cascade chains beyond the paper's two levels, with and "
                "without one rogue master",
    axes={
        "depth": (2, 3, 4),
        "n_ports": (3, 4, 5),
        "program": ("none", "hung_r", "withheld_w", "illegal_burst"),
        "rogue": (0, 1, 2),
        "timeout": (250, 300, 400, 500, 650),
        "hang": (0, 8, 24),
        "job_bytes": (512, 1024, 2048),
        "equal_shares": (False, True),
    },
    compile=compile_cascade,
))

FABRIC_GRID = _register(GridSpec(
    name="fabric",
    description="interconnect fabrics: pure HyperConnect, baseline "
                "SmartConnect, and mixed HC+SC on several ports of the "
                "in-order memory",
    axes={
        "family": ("flat", "multiport"),
        "fabric": ("hyperconnect", "smartconnect", "mixed"),
        "n_ports": (2, 3, 4),
        "kind": ("read", "write", "copy"),
        "job_bytes": (256, 512, 1024, 4096),
        "equal_shares": (False, True),
    },
    compile=compile_fabric,
))

FAULTS_GRID = _register(GridSpec(
    name="faults",
    description="fault-injection knobs: rogue-master modes and memory "
                "fault kinds over the single-link memory families",
    axes={
        "family": ("flat", "cascade"),
        "program": ("none", "hung_r", "withheld_w", "illegal_burst",
                    "mem:dead", "mem:freeze", "mem:stall", "mem:error"),
        "n_ports": (2, 3, 4),
        "rogue": (0, 1),
        "timeout": (300, 400, 500),
        "hang": (0, 8, 24),
        "seed": (1, 7, 13, 29, 43, 57),
        "dead_after_beats": (0, 32, 96),
        "persistent": (False, True),
        "equal_shares": (False, True),
        "job_bytes": (512, 1024, 2048),
    },
    compile=compile_faults,
))

ISOLATION_GRID = _register(GridSpec(
    name="isolation",
    description="many-domain tenant isolation: 8-64 tenant domains with "
                "disjoint memory grants, seed-chosen fault storms "
                "(wild-address and hung rogues), and healthy-tenant "
                "leakage/degradation oracles",
    axes={
        "n_domains": (8, 16, 32, 64),
        "n_faulted": (1, 2, 4, 8),
        "mix": ("wild", "hung", "mixed"),
        "seed": (3, 11, 27),
        "job_bytes": (256, 512),
        "equal_shares": (False, True),
        "persistent": (False, True),
    },
    compile=compile_isolation,
))

CHURN_GRID = _register(GridSpec(
    name="churn",
    description="live tenant churn: mid-burst grant revocation and "
                "re-granting under concurrent fault storms, proven by "
                "the stale-window isolation oracle (no beat through a "
                "torn-down window; re-granted ranges reused in-run)",
    axes={
        "n_domains": (4, 8, 16),
        "n_faulted": (0, 1, 2),
        "mix": ("wild", "hung"),
        "churn": ("revoke", "regrant"),
        "churn_cycle": (32, 64, 128),
        "seed": (3, 11),
        "job_bytes": (256, 512),
        "equal_shares": (False, True),
    },
    compile=compile_isolation,
))

THROUGHPUT_GRID = _register(GridSpec(
    name="throughput",
    description="tiny flat scenarios for the campaign-throughput "
                "benchmark (pairwise >= 500 scenarios)",
    axes={
        "slot": tuple(range(24)),
        "size": tuple(256 * k for k in range(1, 25)),
        "kind": ("read", "write", "copy"),
        "n_ports": (2, 3),
    },
    compile=compile_throughput,
    checks=("equivalence", "liveness", "protocol"),
))

#: composite grids: name -> (member grids, oracle checks).  A composite
#: compiles its members in order and deduplicates across them (CI's
#: campaign matrix runs both).  "tlm" adds the opt-in tlm oracle to the
#: default families: fault and churn scenarios must demote to
#: bit-identical execution, steady reservation scenarios must
#: fast-forward within the analytic bounds.
COMPOSITES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "smoke": (("faults", "cascade", "fabric", "reservation"),
              DEFAULT_CHECKS),
    "tlm": (("faults", "churn", "reservation"), ALL_CHECKS),
}


def grid_names() -> List[str]:
    """Every runnable grid name (simple + composite), sorted."""
    return sorted(list(GRIDS) + list(COMPOSITES))


def grid_scenarios(name: str, mode: Optional[str] = None, seed: int = 0,
                   limit: Optional[int] = None,
                   horizon: Optional[int] = None
                   ) -> Tuple[List[Scenario], Tuple[str, ...]]:
    """Resolve a grid name (simple or composite) into (scenarios,
    oracle checks)."""
    if name in COMPOSITES:
        members, checks = COMPOSITES[name]
    elif name in GRIDS:
        members, checks = (name,), GRIDS[name].checks
    else:
        raise KeyError(
            f"unknown grid {name!r}; choose from {grid_names()}")
    compiled = chain.from_iterable(
        GRIDS[member].compiled(mode, seed, horizon) for member in members)
    return _unique(compiled, limit), checks
