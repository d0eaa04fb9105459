"""Oracle families checked on every fuzzed scenario.

Three oracle families from the verification plan, plus the analytic
containment bound:

1. **liveness** — every healthy port's outstanding transactions complete
   (genuinely or via synthesized error responses) within the run;
2. **protocol** — the :class:`~repro.axi.LinkChecker` monitors on
   every compliant master's port record no violation;
3. **equivalence** — the reference and fast kernel paths produce
   bit-identical observables (traffic, events, fault statistics,
   elapsed time, per-port completion cycles);
4. **containment bound** — for single-rogue-master scenarios the
   measured healthy-port completion delta against the fault-free
   baseline respects
   :class:`~repro.analysis.containment.ContainmentBound`;
5. **isolation** — on tenanted (multi-domain) scenarios, every faulted
   tenant is contained, quarantined, and either recovered or retired
   (graceful degradation), while every healthy tenant's traffic is
   bit-identical to the fault-free baseline and its completion delay
   respects the serialized multi-fault containment bound.  A no-op on
   untenanted scenarios, so legacy campaign digests are unaffected.
   On scenarios that script live grant churn the family additionally
   runs the **stale-window** oracle (:func:`check_stale_window`)
   against a churn-free twin: after a revocation commits, no beat may
   land through the revoked grant — the evicted tenant
   drains with ``DECERR``, the re-granted range carries exactly the
   beneficiary's bytes over scrubbed zeros, and uninvolved tenants stay
   bit-identical to the twin within the analytic churn delay bound.
6. **tlm** (opt-in, outside :data:`DEFAULT_CHECKS`) — the
   transaction-level fast-forward path (:mod:`repro.sim.tlm`) is either
   *exact* or *bounded*: a run whose every window demoted to
   cycle-accurate execution must be bit-identical to the reference,
   while a run that committed fast-forwarded epochs must respect the
   analytic traffic bounds (shared-bus capacity, per-port reservation
   budgets), make progress wherever the reference did, and synthesize
   no spurious error responses.

Families 4 and 5 compare the run with a *model twin*: the same
scenario with its faults (:meth:`Scenario.baseline`) or its churn
stripped.  Twins run on the fast kernel.  The reference kernel runs
exactly one leg per scenario, the one family 3 compares the fast leg
against; that comparison is what licenses the fast kernel to stand in
for the reference on the twins.

:func:`check_scenario` composes the default families; on failure it
dumps the falsifying scenario as JSON (for CI artifact upload and
corpus promotion) and raises :class:`OracleViolation`.
"""

from __future__ import annotations

import os
from dataclasses import replace
from hashlib import sha256
from itertools import zip_longest
from pathlib import Path
from typing import Dict, Optional, Set

from ..analysis import ContainmentBound
from ..platforms import ZCU102
from .harness import (BEAT_BYTES, CHURN_WRITE_BYTES, RunResult,
                      churn_pattern, run_scenario)
from .scenario import Scenario, canonical_json

#: where falsifying examples are written (CI uploads this directory)
ARTIFACT_DIR_ENV = "VERIFY_ARTIFACT_DIR"
DEFAULT_ARTIFACT_DIR = "fuzz-artifacts"
#: the oracle families, in the order :func:`evaluate_scenario` runs them;
#: campaigns subset this (e.g. greedy bandwidth sweeps drop "liveness")
DEFAULT_CHECKS = ("equivalence", "liveness", "protocol", "containment",
                  "isolation")
#: every selectable family: the defaults plus the opt-in "tlm" oracle
#: (one extra run per scenario, so grids opt in explicitly)
ALL_CHECKS = DEFAULT_CHECKS + ("tlm",)
#: per-port bytes the TLM flush may credit instantly at each epoch
#: boundary: at most 8 outstanding transactions of at most 64 beats on
#: the verify harness's bus (engines there run the defaults — 8
#: outstanding, 16-beat bursts — so this is deliberately generous)
TLM_FLUSH_SLACK_BYTES = 8 * 64 * BEAT_BYTES


class OracleViolation(AssertionError):
    """A scenario falsified one of the verification oracles."""

    def __init__(self, oracle: str, message: str,
                 scenario: Scenario) -> None:
        super().__init__(f"[{oracle}] {message}\nscenario: "
                         f"{scenario.to_json()}")
        self.oracle = oracle
        self.scenario = scenario


def fingerprint_digest(result: RunResult) -> str:
    """Stable content hash of a run's observables (corpus currency)."""
    return sha256(canonical_json(_plain(result.fingerprint))
                  .encode()).hexdigest()


def _plain(value):
    """Fingerprint tuples -> JSON-representable lists/scalars."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# individual oracles
# ----------------------------------------------------------------------

def check_liveness(scenario: Scenario, result: RunResult) -> None:
    """Oracle 1: no healthy port may end the run owed anything.

    A hung reader is the one legitimate exception — it *refuses* its
    answers, so its synthesized beats pile up behind its own closed
    gate.  Ports that never tripped and saw a healthy memory must also
    have finished every job, error-free.  Greedy (saturating) ports and
    deliberately decoupled ports (share 0.0) have no completion
    obligation and are skipped.
    """
    churn_victims = set(scenario.churn_victims)
    for index, (info, trip_count) in enumerate(zip(result.engines,
                                                   result.trips)):
        plan = scenario.ports[index]
        if plan.is_greedy:
            continue
        if (scenario.shares is not None
                and scenario.shares[index] == 0.0):
            continue
        if plan.is_rogue and scenario.is_tenanted:
            # a tenant retired by the recovery policy (giveup) may end
            # the run owed work; the isolation oracle governs it
            continue
        if index in churn_victims:
            # an evicted tenant legitimately ends the run with DECERR'd
            # jobs (and, once retired, unissued ones); the stale-window
            # oracle pins down exactly what it must look like instead
            continue
        if info["hung"]:
            continue
        if info["outstanding"] != 0:
            raise OracleViolation(
                "liveness",
                f"{info['name']} ended with {info['outstanding']} "
                "outstanding transactions", scenario)
        untripped_healthy = (trip_count == 0
                             and scenario.memory.kind == "none")
        if untripped_healthy:
            if info["jobs_completed"] != info["jobs_enqueued"]:
                raise OracleViolation(
                    "liveness",
                    f"{info['name']} completed {info['jobs_completed']}"
                    f"/{info['jobs_enqueued']} jobs with no fault on its "
                    "path", scenario)
            if info["error_responses"] != 0:
                raise OracleViolation(
                    "liveness",
                    f"{info['name']} saw {info['error_responses']} error "
                    "responses with no fault on its path", scenario)


def check_protocol(scenario: Scenario, result: RunResult) -> None:
    """Oracle 2: AXI monitors on compliant ports stay clean."""
    for info, violations in zip(result.engines, result.violations):
        if violations:
            raise OracleViolation(
                "protocol",
                f"{info['name']} port monitor flagged: {violations[0]} "
                f"(+{len(violations) - 1} more)", scenario)


def check_equivalence(scenario: Scenario, reference: RunResult,
                      candidate: RunResult, label: str = "fast") -> None:
    """Oracle 3: a candidate kernel path must agree bit-for-bit with the
    reference path: same fingerprint and same per-port completion
    cycles.  ``label`` names the candidate ("fast") in the violation
    message, which for a fingerprint mismatch also carries both paths'
    corpus digests for cross-run triage."""
    if reference.fingerprint != candidate.fingerprint:
        detail = f"{label} fingerprint differs from reference"
        for index, (r, f) in enumerate(zip(reference.fingerprint,
                                           candidate.fingerprint)):
            if r != f:
                detail = (f"{label} fingerprint component {index} "
                          f"differs: {r!r} != {f!r}")
                break
        detail += (f" [digests: reference="
                   f"{fingerprint_digest(reference)[:12]} "
                   f"{label}={fingerprint_digest(candidate)[:12]}]")
        raise OracleViolation("equivalence", detail, scenario)
    if reference.done_cycles != candidate.done_cycles:
        # the twin-based oracles read these, and the fingerprint omits them
        index, (r, f) = next(
            (i, pair) for i, pair in enumerate(zip_longest(
                reference.done_cycles, candidate.done_cycles))
            if pair[0] != pair[1])
        raise OracleViolation(
            "equivalence",
            f"{label} completion cycle of port {index} differs from "
            f"reference: {r!r} != {f!r}", scenario)


def _harness_bound(scenario: Scenario, timeout: int) -> ContainmentBound:
    """The containment bound for the harness's masters on ZCU102's DRAM:
    16-beat nominal bursts, 8 outstanding per rogue, a period only under
    equal shares."""
    return ContainmentBound(
        n_ports=len(scenario.ports), nominal_burst=16, memory=ZCU102.dram,
        timeout_cycles=timeout, rogue_outstanding=8,
        period=scenario.period if scenario.equal_shares else None)


def containment_bound_for(scenario: Scenario) -> Optional[ContainmentBound]:
    """The analytic bound instance governing a scenario, if applicable.

    Applicable exactly when one rogue master misbehaves over a healthy
    memory with its watchdog armed: then containment (not the fault)
    bounds the healthy ports' extra delay.
    """
    rogue = scenario.rogue_index
    if rogue is None or scenario.memory.kind != "none":
        return None
    if len(scenario.rogue_indices) > 1:
        return None  # multi-fault scenarios are governed by "isolation"
    timeout = scenario.ports[rogue].timeout
    if timeout is None:
        return None
    return _harness_bound(scenario, timeout)


def _healthy_done(scenario: Scenario, result: RunResult) -> Optional[int]:
    """Latest job completion over the scenario's non-rogue ports (None
    when no healthy job completed)."""
    return max((done for plan, done in zip(scenario.ports,
                                           result.done_cycles)
                if not plan.is_rogue and done is not None), default=None)


def check_containment_bound(scenario: Scenario, result: RunResult,
                            baseline: RunResult) -> None:
    """Oracle 4: measured healthy-port interference respects the bound."""
    bound = containment_bound_for(scenario)
    if bound is None:
        return
    done = _healthy_done(scenario, result)
    base_done = _healthy_done(scenario, baseline)
    if done is None or base_done is None:
        return  # no healthy work to compare (liveness handles the rest)
    limit = bound.healthy_port_delay_bound()
    if scenario.family == "cascade":
        limit += bound.cascade_slack(levels=scenario.cascade_depth)
    delta = done - base_done
    if delta > limit:
        raise OracleViolation(
            "containment-bound",
            f"healthy ports finished {delta} cycles later than the "
            f"fault-free baseline; analytic bound is {limit} "
            f"(detection={bound.detection_cycles} "
            f"drain={bound.drain_cycles})", scenario)


def isolation_bound_for(scenario: Scenario) -> Optional[ContainmentBound]:
    """The per-tenant bound governing a tenanted fault scenario.

    Applicable when every non-``wild_addr`` rogue has its watchdog
    armed over a healthy memory.  ``wild_addr`` rogues need no timeout
    — the region filter catches them at ingest — so an all-wild storm
    uses a nominal 1-cycle detection term.  The largest armed timeout
    governs the shared detection window otherwise.
    """
    if not scenario.is_tenanted or not scenario.rogue_indices:
        return None
    if scenario.memory.kind != "none":
        return None
    timeouts = []
    for index in scenario.rogue_indices:
        plan = scenario.ports[index]
        if plan.fault.mode == "wild_addr":
            continue
        if plan.timeout is None:
            return None  # undetectable fault: no analytic bound
        timeouts.append(plan.timeout)
    return _harness_bound(scenario, max(timeouts) if timeouts else 1)


def check_isolation(scenario: Scenario, result: RunResult,
                    baseline: RunResult) -> None:
    """Oracle 5: a tenant's fault stays inside its own domain.

    Structural checks, per faulted tenant:

    * the rogue port actually tripped (containment engaged);
    * the hypervisor quarantined it and then either recoupled it or
      gave up — graceful degradation, never a silent wedge;

    and per healthy tenant:

    * traffic observables (bytes moved, jobs completed, error
      responses) are bit-identical to the fault-free baseline — no
      data or bandwidth leakage across domain boundaries;
    * job completion is delayed at most the serialized multi-fault
      containment bound
      (:meth:`~repro.analysis.containment.ContainmentBound.multi_fault_delay_bound`).
    """
    if not scenario.is_tenanted:
        return
    rogues = set(scenario.rogue_indices)
    if not rogues:
        return
    # flat family only (scenario validation pins it), so the event-log
    # port index is the plan index
    recovery: Dict[int, Set[str]] = {}
    for event in result.events:
        if event.get("event") == "port_recovery":
            recovery.setdefault(event["port"], set()).add(event["kind"])
    for index in sorted(rogues):
        info = result.engines[index]
        if result.trips[index] == 0:
            raise OracleViolation(
                "isolation",
                f"rogue tenant {info['name']} was never contained "
                "(0 trips)", scenario)
        kinds = recovery.get(index, set())
        if "quarantine" not in kinds:
            raise OracleViolation(
                "isolation",
                f"rogue tenant {info['name']} tripped but was never "
                "quarantined", scenario)
        if not kinds & {"recouple", "giveup"}:
            raise OracleViolation(
                "isolation",
                f"rogue tenant {info['name']} left in limbo: recovery "
                "neither recoupled nor gave up within the run", scenario)
    bound = isolation_bound_for(scenario)
    # churn-involved ports are skipped: the baseline revokes on the same
    # schedule, but a rogue's containment can legitimately shift *when*
    # the victim's drain lands (synth beat counts) and when the
    # beneficiary's post-commit jobs run; the stale-window oracle
    # governs both
    _check_bystanders(
        scenario, result, baseline,
        skip=rogues | set(scenario.churn_involved),
        limit=(bound.multi_fault_delay_bound(len(rogues))
               if bound is not None else None),
        oracle="isolation")


def _check_bystanders(scenario: Scenario, result: RunResult,
                      twin: RunResult, skip: Set[int],
                      limit: Optional[int], oracle: str) -> None:
    """Every port outside ``skip`` moves exactly its twin's traffic (no
    data or bandwidth leakage across domains) and finishes at most
    ``limit`` cycles after it (``None`` = no delay bound)."""
    for index, (info, base) in enumerate(zip(result.engines,
                                             twin.engines)):
        if index in skip:
            continue
        for key in ("bytes_read", "bytes_written", "jobs_completed",
                    "error_responses"):
            if info[key] != base[key]:
                raise OracleViolation(
                    oracle,
                    f"bystander tenant {info['name']} {key} changed "
                    f"under a neighbour's fault or churn: {info[key]} "
                    f"!= twin {base[key]}", scenario)
        done = result.done_cycles[index]
        base_done = twin.done_cycles[index]
        if limit is None or done is None or base_done is None:
            continue
        if done - base_done > limit:
            raise OracleViolation(
                oracle,
                f"bystander tenant {info['name']} finished "
                f"{done - base_done} cycles after its twin; the analytic "
                f"bound is {limit}", scenario)


def churn_delay_bound_for(scenario: Scenario) -> int:
    """Analytic bystander-delay bound for scripted grant churn.

    Each revocation reuses the containment ladder with an immediate
    (1-cycle detection) quiesce, so the serialized multi-fault bound
    applies with ``timeout_cycles=1``; on top of that every re-granting
    op injects the beneficiary's post-commit write + readback (each at
    most ``CHURN_WRITE_BYTES``), charged as that many beats of extra
    round-robin interference per port.
    """
    n_ops = len(scenario.churn or ())
    bound = _harness_bound(scenario, 1)
    return (bound.multi_fault_delay_bound(n_ops)
            + n_ops * (2 * CHURN_WRITE_BYTES // BEAT_BYTES)
            * len(scenario.ports))


def check_stale_window(scenario: Scenario, result: RunResult,
                       churnfree: RunResult) -> None:
    """Stale-window oracle (isolation family, churn scenarios only).

    For every scripted revocation, against the churn-free twin
    (``replace(scenario, churn=None)``):

    * the victim's supervisor actually entered revocation containment,
      drained to zero outstanding beats, and — when the op left the
      domain grantless — stayed decoupled (retired), else recoupled;
    * the victim no longer holds a grant over the revoked range and
      the port's region-filter epoch recorded the retarget, so no beat
      can land through the old grant after the commit;
    * a victim that was provably mid-burst (its churn-free twin
      finishes well after the op cycle) drained via synthesized beats,
      and synthesized beats surfaced as ``DECERR`` at its engine;
    * the contested physical range ends the run carrying exactly the
      beneficiary's pattern over scrubbed zeros (or all zeros on a
      revoke-only op) — proof the old tenant's bytes neither survived
      nor reappeared;
    * the beneficiary received, completed, and error-free'd its
      post-commit write + readback through its own new grant;
    * every uninvolved healthy tenant is bit-identical to the
      churn-free twin, finishing within the analytic churn delay
      bound.
    """
    if scenario.churn is None:
        return
    for probe in result.churn_probes:
        victim = probe["victim"]
        name = result.engines[victim]["name"]
        where = (f"range [{probe['base']:#x}+{probe['size']:#x}] "
                 f"revoked from {name} at cycle {probe['op_cycle']}")
        if probe["victim_revocations"] < 1:
            raise OracleViolation(
                "stale-window",
                f"{where}: the supervisor never entered revocation "
                "containment", scenario)
        if probe["victim_window"]:
            raise OracleViolation(
                "stale-window",
                f"{where}: stale grant survived the commit",
                scenario)
        if probe["victim_outstanding"] != 0:
            raise OracleViolation(
                "stale-window",
                f"{where}: victim still owed "
                f"{probe['victim_outstanding']} beats after the drain",
                scenario)
        if probe["victim_regions"] == 0 and probe["victim_coupled"]:
            raise OracleViolation(
                "stale-window",
                f"{where}: grantless evicted tenant left coupled to "
                "the bus", scenario)
        if probe["victim_regions"] > 0 and not probe["victim_coupled"]:
            raise OracleViolation(
                "stale-window",
                f"{where}: victim kept {probe['victim_regions']} "
                "region(s) but was never recoupled", scenario)
        if probe["epoch"] < 2:
            raise OracleViolation(
                "stale-window",
                f"{where}: region-filter epoch register never recorded "
                f"the retarget (epoch={probe['epoch']})", scenario)
        twin_done = churnfree.done_cycles[victim]
        if (twin_done is not None
                and twin_done > probe["op_cycle"] + 16
                and probe["victim_synth_beats"] == 0):
            raise OracleViolation(
                "stale-window",
                f"{where}: victim was mid-burst (churn-free twin "
                f"finishes at cycle {twin_done}) yet the drain "
                "synthesized no beats", scenario)
        if (probe["victim_synth_beats"] > 0
                and result.engines[victim]["error_responses"] == 0):
            raise OracleViolation(
                "stale-window",
                f"{where}: drain synthesized "
                f"{probe['victim_synth_beats']} beats but the evicted "
                "tenant never saw DECERR", scenario)
        beneficiary = probe["beneficiary"]
        size = probe["size"]
        if beneficiary < 0:
            expected = sha256(bytes(size)).hexdigest()
            label = "scrubbed zeros"
        else:
            info = result.engines[beneficiary]
            if not probe["beneficiary_window"]:
                raise OracleViolation(
                    "stale-window",
                    f"{where}: re-granted range never appeared in "
                    f"beneficiary {info['name']}'s grants",
                    scenario)
            planned = len(scenario.ports[beneficiary].jobs)
            if info["jobs_enqueued"] != planned + 2:
                raise OracleViolation(
                    "stale-window",
                    f"{where}: beneficiary {info['name']} never "
                    "received its post-commit write + readback "
                    f"({info['jobs_enqueued']} jobs, expected "
                    f"{planned + 2})", scenario)
            if info["jobs_completed"] != info["jobs_enqueued"]:
                raise OracleViolation(
                    "stale-window",
                    f"{where}: beneficiary {info['name']} completed "
                    f"{info['jobs_completed']}/{info['jobs_enqueued']} "
                    "jobs — re-granted range never reused within the "
                    "horizon", scenario)
            if info["error_responses"] != 0:
                raise OracleViolation(
                    "stale-window",
                    f"{where}: beneficiary {info['name']} saw "
                    f"{info['error_responses']} error responses on the "
                    "re-granted range", scenario)
            nbytes = min(CHURN_WRITE_BYTES, size)
            expected = sha256(churn_pattern(beneficiary, nbytes)
                              + bytes(size - nbytes)).hexdigest()
            label = f"{info['name']}'s pattern over scrubbed zeros"
        if probe["store_digest"] != expected:
            raise OracleViolation(
                "stale-window",
                f"{where}: contested range ends the run with digest "
                f"{probe['store_digest'][:12]}, expected {label} "
                f"({expected[:12]}) — a stale-window beat landed",
                scenario)
    greedy = {index for index, plan in enumerate(scenario.ports)
              if plan.is_greedy}
    _check_bystanders(
        scenario, result, churnfree,
        skip=(set(scenario.churn_involved) | set(scenario.rogue_indices)
              | greedy),
        limit=churn_delay_bound_for(scenario), oracle="stale-window")


def check_tlm(scenario: Scenario, reference: RunResult,
              candidate: RunResult) -> None:
    """Oracle 6: the TLM fast-forward path is either exact or bounded.

    The candidate is the scenario re-run with ``tlm=True``.  Two
    regimes, split on :attr:`RunResult.tlm_epochs`:

    * **0 committed epochs** — the engine declined every window, so by
      construction it executed the serial fast path cycle-for-cycle;
      the run must be *bit-identical* to the reference
      (:func:`check_equivalence` with label ``tlm``).
    * **>= 1 committed epochs** — per-cycle observables are summarized,
      so exact equality is out; instead the analytic models that drove
      the fast-forward must hold on the outcome:

      - aggregate traffic fits the shared bus (one beat per cycle per
        memory link) plus the per-epoch in-flight flush slack;
      - every reserved port (``0 < share < 1``) moved at most its
        programmed budget's worth of beats per reservation period
        (:meth:`~repro.analysis.reservation.ReservationAnalysis.for_share`),
        again plus flush slack;
      - every healthy port that made progress under the reference made
        progress under TLM (fast-forwarding must not starve anyone);
      - no error responses appear on healthy ports over a healthy
        memory when the reference saw none.
    """
    if candidate.tlm_epochs == 0:
        check_equivalence(scenario, reference, candidate, label="tlm")
        return
    links = 2 if scenario.family == "multiport" else 1
    slack = candidate.tlm_epochs * TLM_FLUSH_SLACK_BYTES
    total = sum(info["bytes_read"] + info["bytes_written"]
                for info in candidate.engines)
    capacity = (candidate.now * BEAT_BYTES * links
                + len(scenario.ports) * slack)
    if total > capacity:
        raise OracleViolation(
            "tlm",
            f"TLM run moved {total} bytes over a bus whose "
            f"{candidate.now}-cycle capacity (plus flush slack for "
            f"{candidate.tlm_epochs} epochs) is {capacity}", scenario)
    shares = None
    if scenario.equal_shares:
        shares = tuple(1.0 / len(scenario.ports)
                       for __ in scenario.ports)
    elif scenario.shares is not None:
        shares = scenario.shares
    if shares is not None:
        from ..analysis.reservation import ReservationAnalysis
        periods = candidate.now // scenario.period + 2
        for index, share in enumerate(shares):
            if not 0.0 < share < 1.0:
                continue       # decoupled (0.0) / unreserved (1.0)
            analysis = ReservationAnalysis.for_share(share,
                                                     scenario.period)
            info = candidate.engines[index]
            moved = info["bytes_read"] + info["bytes_written"]
            limit = (analysis.budget * analysis.nominal_burst
                     * BEAT_BYTES * periods + slack)
            if moved > limit:
                raise OracleViolation(
                    "tlm",
                    f"reserved port {info['name']} (share {share}) "
                    f"moved {moved} bytes under TLM; budget "
                    f"{analysis.budget}/{scenario.period} caps "
                    f"{periods} periods (plus flush slack) at {limit}",
                    scenario)
    for index, (info, ref) in enumerate(zip(candidate.engines,
                                            reference.engines)):
        if scenario.ports[index].is_rogue:
            continue
        if (ref["bytes_read"] + ref["bytes_written"] > 0
                and info["bytes_read"] + info["bytes_written"] == 0):
            raise OracleViolation(
                "tlm",
                f"{info['name']} moved bytes under the reference but "
                "none under TLM — fast-forwarding starved the port",
                scenario)
        if (scenario.memory.kind == "none"
                and ref["error_responses"] == 0
                and info["error_responses"] != 0):
            raise OracleViolation(
                "tlm",
                f"{info['name']} saw {info['error_responses']} error "
                "responses under TLM where the reference saw none",
                scenario)


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------

def dump_falsifying_example(scenario: Scenario, oracle: str) -> Path:
    """Persist a falsifying scenario for CI artifact upload / triage."""
    directory = Path(os.environ.get(ARTIFACT_DIR_ENV,
                                    DEFAULT_ARTIFACT_DIR))
    directory.mkdir(parents=True, exist_ok=True)
    digest = sha256(scenario.to_json().encode()).hexdigest()[:12]
    path = directory / f"falsified-{oracle}-{digest}.json"
    path.write_text(canonical_json({
        "oracle": oracle,
        "scenario": scenario.to_dict(),
    }) + "\n")
    return path


def evaluate_scenario(scenario: Scenario,
                      checks: tuple = DEFAULT_CHECKS) -> RunResult:
    """Run the selected oracle families on one scenario.

    ``checks`` subsets :data:`ALL_CHECKS`; "equivalence" runs the
    scenario on the fast kernel path against the reference; "tlm" adds
    the transaction-level fast-forward leg (:func:`check_tlm`);
    "containment" and "isolation" additionally run the fault-free
    baseline twin, and "isolation" the churn-free twin, when their
    oracles apply.  Twins run on the fast kernel, so the reference
    kernel runs only the scenario itself.  Raises
    :class:`OracleViolation` on the first falsified oracle; returns the
    reference run.  This is the worker body of the campaign runner
    (:mod:`repro.verify.campaign`), which records violations as verdicts
    instead of raising.
    """
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown oracle checks {sorted(unknown)}")
    reference = run_scenario(scenario, fast=False)
    if "equivalence" in checks:
        fast = run_scenario(scenario, fast=True)
        check_equivalence(scenario, reference, fast, label="fast")
    if "tlm" in checks:
        check_tlm(scenario, reference,
                  run_scenario(scenario, fast=True, tlm=True))
    if "liveness" in checks:
        check_liveness(scenario, reference)
    if "protocol" in checks:
        check_protocol(scenario, reference)
    baseline: Optional[RunResult] = None
    if ("containment" in checks
            and containment_bound_for(scenario) is not None):
        baseline = run_scenario(scenario.baseline(), fast=True)
        check_containment_bound(scenario, reference, baseline)
    if ("isolation" in checks and scenario.is_tenanted
            and scenario.rogue_indices):
        if baseline is None:
            baseline = run_scenario(scenario.baseline(), fast=True)
        check_isolation(scenario, reference, baseline)
    if "isolation" in checks and scenario.churn is not None:
        # the stale-window oracle's twin strips *only* the churn (the
        # fault storm stays), unlike baseline() which keeps churn and
        # strips faults — the two twins probe orthogonal properties
        churnfree = run_scenario(replace(scenario, churn=None),
                                 fast=True)
        check_stale_window(scenario, reference, churnfree)
    return reference


def check_scenario(scenario: Scenario) -> RunResult:
    """Run every oracle family on one scenario; returns the reference run.

    Runs the scenario on both kernel paths — reference and fast — plus
    the fault-free and churn-free twins (fast path) where the
    containment, isolation and stale-window oracles apply.  On
    violation, the scenario is dumped to the artifact directory and the
    :class:`OracleViolation` re-raised for hypothesis to shrink.
    """
    try:
        return evaluate_scenario(scenario)
    except OracleViolation as violation:
        dump_falsifying_example(scenario, violation.oracle)
        raise
