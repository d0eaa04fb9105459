"""Hypothesis strategies over fault-campaign scenarios.

Kept out of ``repro.verify``'s package ``__init__`` so the runtime
package never imports hypothesis — only the test-suite (and anything
else that explicitly wants randomized scenarios) pays that dependency.

The strategies compose the randomized dimensions the ROADMAP scale-out
item names: topology family and port count, per-port workloads, hang
points, freeze windows, per-port ``PORT_TIMEOUT`` values, and bandwidth
reservations.  Constraints that keep a draw *meaningful* (a hung reader
must actually receive enough beats to hang; an illegal burst must
actually straddle a 4 KiB boundary; healthy watchdogs must not false-trip
during containment) are encoded here so every generated scenario tests
what it claims to.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from .harness import BEAT_BYTES
from .scenario import (
    FAMILIES,
    ILLEGAL_OFFSET,
    MEMORY_FAULT_FAMILIES,
    MasterFault,
    MemoryFault,
    PortPlan,
    Scenario,
    job_address,
)

#: leaf-port counts per family (cascade/multiport need the extra port)
PORT_RANGE = {"flat": (2, 4), "cascade": (3, 4), "multiport": (3, 4)}
#: job sizes in bytes (multiples of the harness's beat)
SIZES = (256, 512, 1024, 2048)
#: healthy ports are either disarmed or armed far beyond the delay a
#: rogue can inflict on them (ContainmentBound.healthy_port_delay_bound)
#: for every rogue timeout below, so no neighbour trips falsely
SAFE_HEALTHY_TIMEOUT = 4000
ROGUE_TIMEOUT = st.integers(min_value=150, max_value=500)

@st.composite
def _jobs(draw, port_index: int, kinds=("read", "write", "copy"),
          min_jobs: int = 1, max_jobs: int = 3):
    count = draw(st.integers(min_jobs, max_jobs))
    return tuple(
        (draw(st.sampled_from(kinds)), job_address(port_index, job),
         draw(st.sampled_from(SIZES)))
        for job in range(count))


def _beats(jobs, kinds) -> int:
    return sum(nbytes // BEAT_BYTES for kind, _, nbytes in jobs
               if kind in kinds)


@st.composite
def _rogue_plan(draw, port_index: int):
    mode = draw(st.sampled_from(("hung_r", "withheld_w", "illegal_burst")))
    timeout = draw(ROGUE_TIMEOUT)
    if mode == "illegal_burst":
        # one guaranteed-straddling read; the ingest guard DECERRs it
        jobs = ((("read", job_address(port_index, offset=ILLEGAL_OFFSET),
                  1024),)
                + draw(_jobs(port_index, min_jobs=0, max_jobs=1)))
        return PortPlan(jobs=jobs, timeout=timeout,
                        fault=MasterFault(mode=mode))
    data_kinds = ("read", "copy") if mode == "hung_r" else ("write", "copy")
    jobs = draw(_jobs(port_index, kinds=data_kinds, min_jobs=1,
                      max_jobs=2))
    trigger_beats = _beats(jobs, ("read", "copy") if mode == "hung_r"
                           else ("write", "copy"))
    hang = draw(st.integers(0, max(0, min(trigger_beats - 1, 63))))
    persistent = (draw(st.booleans()) if mode == "withheld_w" else False)
    return PortPlan(jobs=jobs, timeout=timeout,
                    fault=MasterFault(mode=mode, hang_after_beats=hang,
                                      persistent=persistent))


@st.composite
def _healthy_plan(draw, port_index: int, armed: bool):
    timeout = (draw(st.integers(300, 600)) if armed
               else draw(st.sampled_from((None, SAFE_HEALTHY_TIMEOUT))))
    return PortPlan(jobs=draw(_jobs(port_index)), timeout=timeout)


@st.composite
def _memory_fault(draw):
    kind = draw(st.sampled_from(("dead", "freeze", "stall", "error")))
    return MemoryFault(
        kind=kind,
        dead_after_beats=draw(st.integers(0, 96)),
        freeze_start=draw(st.integers(200, 600)),
        freeze_cycles=draw(st.integers(300, 1000)),
        stall_rate=draw(st.sampled_from((0.02, 0.05, 0.08))),
        stall_cycles=draw(st.integers(10, 30)),
        error_rate=draw(st.sampled_from((0.02, 0.05, 0.10))),
        seed=draw(st.integers(1, 1 << 16)),
    )


@st.composite
def scenarios(draw, families=FAMILIES):
    """Draw one complete :class:`Scenario`.

    At most one fault program per scenario: a rogue master on any
    family, or a memory fault on the single-link memory families.  Roughly a
    quarter of draws are fully healthy — the oracles must also hold
    vacuously.  Healthy draws occasionally swap the interconnect fabric
    (baseline SmartConnect / mixed HC+SC) or reserve explicit per-port
    shares; cascade draws occasionally deepen the chain to three levels.
    """
    family = draw(st.sampled_from(families))
    lo, hi = PORT_RANGE[family]
    n_ports = draw(st.integers(lo, hi))
    cascade_depth = (draw(st.sampled_from((2, 2, 2, 3)))
                     if family == "cascade" else 2)
    choices = ["healthy", "master", "master"]
    if family in MEMORY_FAULT_FAMILIES:
        choices += ["memory", "memory"]
    program = draw(st.sampled_from(choices))
    memory = MemoryFault()
    plans = []
    if program == "master":
        rogue_index = draw(st.integers(0, n_ports - 1))
        for index in range(n_ports):
            if index == rogue_index:
                plans.append(draw(_rogue_plan(index)))
            else:
                plans.append(draw(_healthy_plan(index, armed=False)))
    elif program == "memory":
        # every port is a victim: all watchdogs armed, as in the seeded
        # dead-slave campaign scenario
        memory = draw(_memory_fault())
        for index in range(n_ports):
            plans.append(draw(_healthy_plan(index, armed=True)))
    else:
        for index in range(n_ports):
            plans.append(draw(_healthy_plan(index, armed=False)))
    equal_shares = draw(st.booleans())
    fabric = "hyperconnect"
    shares = None
    if program == "healthy":
        # ~1 in 4 healthy draws swap the fabric (flat -> SmartConnect,
        # multiport -> mixed); non-HC fabrics carry no watchdogs or
        # reservations, so those knobs are stripped
        if family == "flat" and draw(st.integers(0, 3)) == 0:
            fabric = "smartconnect"
        elif family == "multiport" and draw(st.integers(0, 3)) == 0:
            fabric = "mixed"
        if fabric != "hyperconnect":
            equal_shares = False
            plans = [replace(plan, timeout=None) for plan in plans]
        elif family == "flat" and draw(st.integers(0, 3)) == 0:
            # explicit per-port reservation: port 0 reserved (or
            # decoupled at 0.0), the rest left unreserved
            share0 = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75)))
            shares = (share0,) + (1.0,) * (n_ports - 1)
            equal_shares = False
            # a decoupled/reserved port stalls by design; watchdogs off
            plans = [replace(plan, timeout=None) for plan in plans]
    return Scenario(
        family=family,
        ports=tuple(plans),
        memory=memory,
        equal_shares=equal_shares,
        period=2048,
        horizon=12_000,
        cascade_depth=cascade_depth,
        fabric=fabric,
        shares=shares,
    )
