"""Regression replay of the checked-in fault-scenario corpus.

Every corpus entry is re-run through the complete oracle stack (both
kernel paths, all oracle families) and its reference-run fingerprint
digest must match the checked-in value **byte-for-byte** — any drift in
observable simulation behaviour on these scenarios fails here before it
can hide inside a randomized campaign.  The replay rides the campaign
runner (:func:`repro.verify.corpus.run_corpus_campaign`), so the runner
itself is pinned by the same digests.
"""

import json
from pathlib import Path

import pytest

from repro.verify import (
    PortPlan,
    Scenario,
    add_entry,
    check_scenario,
    fingerprint_digest,
    load_corpus,
    save_corpus,
)
from repro.verify.corpus import CORPUS_VERSION, CorpusEntry, \
    run_corpus_campaign

CORPUS_PATH = Path(__file__).parent / "data" / "fault_corpus.json"

#: the five seeded campaign scenarios, in check-in order
EXPECTED_NAMES = ("dead-slave", "frozen-slave", "hung-reader",
                  "withheld-writes", "illegal-burst")


def tiny_scenario(nbytes=256):
    """A minimal healthy scenario for corpus-management tests."""
    return Scenario(
        family="flat",
        ports=(PortPlan(jobs=(("read", 0x1000_0000, nbytes),)),),
        horizon=3_000, settle=64)


class TestCheckedInCorpus:
    def test_contains_the_seeded_campaign(self):
        entries = load_corpus(CORPUS_PATH)
        assert tuple(e.name for e in entries) == EXPECTED_NAMES
        families = {e.scenario.family for e in entries}
        assert "flat" in families

    def test_replays_byte_identically_through_the_campaign_runner(self):
        entries, result = run_corpus_campaign(CORPUS_PATH)
        assert result.ok, result.counts
        assert len(result.records) == len(EXPECTED_NAMES)
        for entry, record in zip(entries, result.records):
            assert record["verdict"] == "pass", entry.name
            assert record["digest"] == entry.digest, (
                f"{entry.name} drifted from its checked-in digest")

    def test_file_is_canonically_formatted(self, tmp_path):
        """Re-saving must be a no-op, so corpus diffs stay reviewable."""
        text = CORPUS_PATH.read_text()
        assert json.loads(text)["version"] == CORPUS_VERSION
        path = tmp_path / "corpus.json"
        save_corpus(path, load_corpus(CORPUS_PATH))
        assert path.read_text() == text


class TestCorpusManagement:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "corpus.json"
        entries = [CorpusEntry(name="tiny", scenario=tiny_scenario(),
                               digest="0" * 64)]
        save_corpus(path, entries)
        assert load_corpus(path) == entries

    def test_add_entry_runs_oracles_and_records_digest(self, tmp_path):
        path = tmp_path / "corpus.json"
        entry = add_entry(path, "tiny", tiny_scenario())
        assert len(entry.digest) == 64
        (loaded,) = load_corpus(path)
        assert loaded == entry
        # replaying immediately reproduces the recorded digest
        assert fingerprint_digest(check_scenario(loaded.scenario)) == \
            entry.digest

    def test_add_entry_rejects_duplicate_names(self, tmp_path):
        path = tmp_path / "corpus.json"
        add_entry(path, "tiny", tiny_scenario())
        with pytest.raises(ValueError):
            add_entry(path, "tiny", tiny_scenario(nbytes=512))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        with pytest.raises(ValueError):
            load_corpus(path)
