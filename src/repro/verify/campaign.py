"""Shared-nothing multi-process campaign runner.

A *campaign* streams many independent JSON-serializable
:class:`~repro.verify.scenario.Scenario` objects across worker
processes, runs the oracle families
(:func:`~repro.verify.oracles.evaluate_scenario`) on each, and
aggregates verdicts plus perf stats into a JSON-lines results file.
This is the ROADMAP's "millions of users" traffic shape: many
independent simulations run at throughput, not one big one —
scenarios/sec is the first-class benchmark
(``benchmarks/bench_campaign_throughput.py``).

Design points:

* **shared-nothing** — workers receive scenario JSON strings and return
  plain-dict records; each worker builds its simulators from scratch,
  so there is no shared simulator state to race on;
* **crash containment** — any exception a scenario raises inside a
  worker (bad job kind, harness bug, oracle crash) becomes an
  ``"error"`` verdict on that record; the campaign always completes;
* **determinism** — records are keyed and re-ordered by scenario index,
  so the results file and the campaign verdict digest are byte-identical
  for any worker count (the regression tests and the throughput bench
  both pin 1-worker vs N-worker digest equality).

The record schema is golden-file pinned
(``tests/data/golden_campaign_results.jsonl``); bump
:data:`RESULT_SCHEMA` when changing fields so downstream aggregation
scripts fail loudly instead of silently.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .oracles import ALL_CHECKS, DEFAULT_CHECKS, OracleViolation, \
    evaluate_scenario, fingerprint_digest
from .scenario import Scenario, canonical_json

#: bump when the record schema changes field names or meanings
RESULT_SCHEMA = 1
#: volatile per-record fields excluded from the campaign verdict digest
VOLATILE_FIELDS = ("elapsed_ms",)


@dataclass(frozen=True)
class CampaignConfig:
    """What the workers run on every scenario."""

    #: oracle families (subset of ALL_CHECKS; "tlm" is opt-in)
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    #: embed the full scenario dict in each record (replayability)
    embed_scenario: bool = True
    #: wall-clock seconds one record may take before its worker is
    #: declared hung and the straggler becomes an ``error`` verdict
    #: (reason "timeout"); ``None`` (default) waits forever, preserving
    #: historic digests.  Needs ``workers >= 2`` (:func:`run_campaign`
    #: raises otherwise): the inline path cannot interrupt a wedged
    #: evaluation.
    record_timeout: Optional[float] = None
    #: test hook: evaluate scenarios with this callable instead of
    #: :func:`~repro.verify.oracles.evaluate_scenario` (must be a
    #: picklable top-level function so it survives the worker handoff)
    evaluate_hook: Optional[Callable] = None

    def __post_init__(self) -> None:
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown oracle checks {sorted(unknown)}")
        if self.record_timeout is not None and self.record_timeout <= 0:
            raise ValueError("record_timeout must be > 0 seconds")


@dataclass(frozen=True)
class CampaignResult:
    """One finished campaign: ordered records plus aggregate stats."""

    records: Tuple[dict, ...]
    #: sha-256 over the ordered records minus volatile timing fields
    digest: str
    counts: Dict[str, int]
    wall_s: float
    scenarios_per_sec: float
    total_cycles: int
    workers: int

    @property
    def ok(self) -> bool:
        """True when every verdict is ``pass``."""
        return set(self.counts) <= {"pass"}


def scenario_id(scenario: Scenario) -> str:
    """Short content hash naming a scenario across result files."""
    return sha256(scenario.to_json().encode()).hexdigest()[:16]


def evaluate_record(index: int, scenario_json: str,
                    config: CampaignConfig) -> dict:
    """Run one scenario through the oracles; never raises.

    The record's ``verdict`` is ``pass`` (all selected oracles hold),
    ``fail`` (an oracle was falsified — ``oracle``/``detail`` name it),
    or ``error`` (the scenario could not be evaluated at all; the
    exception is recorded, the campaign continues).
    """
    started = time.perf_counter()
    record = {
        "schema": RESULT_SCHEMA,
        "index": index,
        "scenario_id": None,
        "verdict": "pass",
        "oracle": None,
        "detail": None,
        "digest": None,
        "cycles": None,
        "engines": None,
        "elapsed_ms": None,
        "scenario": None,
    }
    scenario: Optional[Scenario] = None
    try:
        scenario = Scenario.from_json(scenario_json)
        record["scenario_id"] = scenario_id(scenario)
        if config.embed_scenario:
            record["scenario"] = scenario.to_dict()
        evaluate = config.evaluate_hook or evaluate_scenario
        reference = evaluate(scenario, checks=config.checks)
        record["digest"] = fingerprint_digest(reference)
        record["cycles"] = reference.now
        # per-port engine observables (byte counts etc.), so campaigns
        # double as measurement sweeps (e.g. the reservation ablation)
        record["engines"] = [dict(info) for info in reference.engines]
    except OracleViolation as violation:
        record["verdict"] = "fail"
        record["oracle"] = violation.oracle
        record["detail"] = str(violation).splitlines()[0]
    except Exception as error:   # noqa: BLE001 - crash containment
        record["verdict"] = "error"
        record["detail"] = f"{type(error).__name__}: {error}"
    record["elapsed_ms"] = round(
        (time.perf_counter() - started) * 1e3, 3)
    return record


# ----------------------------------------------------------------------
# the multi-process pump
# ----------------------------------------------------------------------

_WORKER_CONFIG: Optional[CampaignConfig] = None


def _init_worker(config: CampaignConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _worker(item: Tuple[int, str]) -> dict:
    index, scenario_json = item
    assert _WORKER_CONFIG is not None
    return evaluate_record(index, scenario_json, _WORKER_CONFIG)


def _context() -> multiprocessing.context.BaseContext:
    """Fork where the platform has it (cheap, inherits the
    already-imported package), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _timeout_record(index: int, scenario_json: str,
                    config: CampaignConfig) -> dict:
    """An ``error`` verdict for a record whose worker never returned."""
    record = {
        "schema": RESULT_SCHEMA,
        "index": index,
        "scenario_id": None,
        "verdict": "error",
        "oracle": None,
        "detail": f"timeout: record exceeded {config.record_timeout}s "
                  "wall clock; worker terminated",
        "digest": None,
        "cycles": None,
        "engines": None,
        "elapsed_ms": None,
        "scenario": None,
    }
    try:
        scenario = Scenario.from_json(scenario_json)
        record["scenario_id"] = scenario_id(scenario)
        if config.embed_scenario:
            record["scenario"] = scenario.to_dict()
    except Exception:  # noqa: BLE001 - id fields stay None
        pass
    return record


def campaign_digest(records: Iterable[dict]) -> str:
    """Verdict digest: stable hash of the ordered, timing-free records."""
    hasher = sha256()
    for record in records:
        stable = {key: value for key, value in record.items()
                  if key not in VOLATILE_FIELDS}
        hasher.update(canonical_json(stable).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def run_campaign(scenarios: Iterable[Scenario], workers: int = 0,
                 config: CampaignConfig = CampaignConfig(),
                 output: Optional[os.PathLike] = None,
                 progress: Optional[Callable[[dict], None]] = None
                 ) -> CampaignResult:
    """Stream scenarios through the oracles on ``workers`` processes.

    ``workers`` <= 1 runs inline (no processes) — the determinism
    reference for the N-worker digest-equality regression.  ``output``
    writes the ordered records as canonical JSON-lines.  ``progress``
    is called once per finished record (completion order, not index
    order — useful for live reporting only).  A ``record_timeout`` in
    ``config`` needs ``workers >= 2``; with fewer it raises
    :class:`ValueError` rather than run with no timeout at all.
    """
    if workers <= 1 and config.record_timeout is not None:
        raise ValueError(
            "record_timeout needs workers >= 2: the inline path cannot "
            "interrupt a wedged evaluation")
    payloads = [(index, scenario.to_json())
                for index, scenario in enumerate(scenarios)]
    started = time.perf_counter()
    if workers <= 1:
        records = []
        for index, scenario_json in payloads:
            record = evaluate_record(index, scenario_json, config)
            if progress is not None:
                progress(record)
            records.append(record)
    else:
        context = _context()
        records = []
        timeout = config.record_timeout
        chunksize = max(1, len(payloads) // (workers * 8))
        if timeout is not None:
            chunksize = 1  # a hung record must not strand its chunk-mates
        with context.Pool(processes=workers, initializer=_init_worker,
                          initargs=(config,)) as pool:
            results = pool.imap_unordered(_worker, payloads,
                                          chunksize=chunksize)
            stream = results
            if timeout is not None:
                # only the chunksize-1 iterator has next(timeout); with
                # larger chunks imap_unordered returns a plain generator
                stream = (results.next(timeout) for __ in payloads)
            pending = {index for index, __ in payloads}
            try:
                for record in stream:
                    pending.discard(record["index"])
                    if progress is not None:
                        progress(record)
                    records.append(record)
            except multiprocessing.TimeoutError:
                # a worker is hung: abandon the pool and report every
                # unfinished record as a timeout error — the campaign
                # always terminates
                pool.terminate()
                for index, scenario_json in payloads:
                    if index not in pending:
                        continue
                    record = _timeout_record(index, scenario_json,
                                             config)
                    if progress is not None:
                        progress(record)
                    records.append(record)
        records.sort(key=lambda record: record["index"])
    wall_s = time.perf_counter() - started
    counts: Dict[str, int] = {}
    total_cycles = 0
    for record in records:
        counts[record["verdict"]] = counts.get(record["verdict"], 0) + 1
        total_cycles += record["cycles"] or 0
    result = CampaignResult(
        records=tuple(records),
        digest=campaign_digest(records),
        counts=counts,
        wall_s=wall_s,
        scenarios_per_sec=(len(records) / wall_s if wall_s > 0
                           else float("inf")),
        total_cycles=total_cycles,
        workers=max(1, workers),
    )
    if output is not None:
        write_results(output, records)
    return result


# ----------------------------------------------------------------------
# JSON-lines results files
# ----------------------------------------------------------------------

def write_results(path: os.PathLike, records: Iterable[dict]) -> None:
    """Write records as canonical JSON-lines (one record per line)."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(canonical_json(record) + "\n")


def load_results(path: os.PathLike) -> List[dict]:
    """Read a JSON-lines results file back into record dicts."""
    import json

    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported campaign result schema "
                f"{record.get('schema')!r} (expected {RESULT_SCHEMA})")
        records.append(record)
    return records
