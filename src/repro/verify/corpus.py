"""The checked-in counterexample corpus and its replay machinery.

Every scenario that ever falsified an oracle (plus the original five
hand-seeded campaign scenarios) lives in
``tests/data/fault_corpus.json`` together with the sha-256 digest of its
reference-run fingerprint.  The replay test re-runs each entry through
the full oracle stack and requires the digest to match **byte-for-byte**
— so a corpus entry simultaneously pins

* that the historic failure stays fixed (oracles pass),
* that the simulation's observable behaviour on that scenario has not
  drifted (digest identity), on both kernel paths (the equivalence
  oracle runs inside :func:`~repro.verify.oracles.check_scenario`).

Promotion workflow: take the ``falsified-*.json`` artifact a CI fuzz
failure uploaded, fix the defect, then append the scenario here via
:func:`add_entry` with the freshly computed digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List

from .oracles import check_scenario, fingerprint_digest
from .scenario import Scenario

CORPUS_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One replayable regression scenario."""

    name: str
    scenario: Scenario
    #: sha-256 of the reference run's fingerprint at check-in time
    digest: str


def load_corpus(path) -> List[CorpusEntry]:
    data = json.loads(Path(path).read_text())
    if data.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version {data.get('version')}")
    return [
        CorpusEntry(name=entry["name"],
                    scenario=Scenario.from_dict(entry["scenario"]),
                    digest=entry["digest"])
        for entry in data["entries"]
    ]


def save_corpus(path, entries: List[CorpusEntry]) -> None:
    payload = {
        "version": CORPUS_VERSION,
        "entries": [
            {"name": entry.name,
             "scenario": entry.scenario.to_dict(),
             "digest": entry.digest}
            for entry in entries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def add_entry(path, name: str, scenario: Scenario) -> CorpusEntry:
    """Run the scenario, record its digest, and append it to the corpus."""
    result = check_scenario(scenario)
    entry = CorpusEntry(name=name, scenario=scenario,
                        digest=fingerprint_digest(result))
    entries = load_corpus(path) if Path(path).exists() else []
    if any(existing.name == name for existing in entries):
        raise ValueError(f"corpus already has an entry named {name!r}")
    entries.append(entry)
    save_corpus(path, entries)
    return entry


def run_corpus_campaign(path):
    """Replay the whole corpus through the campaign runner.

    Returns ``(entries, CampaignResult)`` with records in corpus order;
    callers assert ``result.ok`` and per-record ``digest`` identity
    against each entry's checked-in digest.  This is the corpus replay
    (`tests/test_verify_corpus.py`) running on the same machinery as the
    large grid campaigns, so the runner itself is regression-covered by
    the corpus digests.
    """
    from .campaign import run_campaign

    entries = load_corpus(path)
    result = run_campaign([entry.scenario for entry in entries])
    return entries, result
