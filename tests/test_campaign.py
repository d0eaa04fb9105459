"""The multi-process campaign runner: containment, determinism, schema.

The contracts the CI campaign job and the throughput benchmark lean on:

* a scenario that crashes inside a worker becomes an ``error`` record —
  the campaign always completes;
* records come back in scenario order and the campaign digest is
  identical for any worker count;
* the JSON-lines record schema is golden-file pinned
  (``tests/data/golden_campaign_results.jsonl``).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verify import (
    CampaignConfig,
    PortPlan,
    Scenario,
    campaign_digest,
    evaluate_record,
    load_results,
    run_campaign,
    scenario_id,
    write_results,
)
from repro.verify.campaign import RESULT_SCHEMA, VOLATILE_FIELDS

GOLDEN_PATH = Path(__file__).parent / "data" / \
    "golden_campaign_results.jsonl"


def tiny(nbytes=256, kind="read", port=0):
    return Scenario(
        family="flat",
        ports=(PortPlan(jobs=((kind, 0x1000_0000 + (port << 22),
                               nbytes),)),),
        horizon=1_500, settle=64)


def exploding():
    """Valid as pure data, raises inside the harness (unknown job kind).

    This is the crash-containment fixture: the scenario model round-trips
    it, but `build_system` refuses the job kind at run time.
    """
    return Scenario(
        family="flat",
        ports=(PortPlan(jobs=(("explode", 0x1000_0000, 256),)),),
        horizon=1_500, settle=64)


def golden_scenarios():
    """The pinned golden campaign: two passing runs and one error."""
    return [tiny(256), tiny(512, kind="write", port=1), exploding()]


GOLDEN_CONFIG = CampaignConfig()


class TestEvaluateRecord:
    def test_pass_record_carries_digest_and_cycles(self):
        record = evaluate_record(0, tiny().to_json(), CampaignConfig())
        assert record["schema"] == RESULT_SCHEMA
        assert record["verdict"] == "pass"
        assert record["oracle"] is None
        assert len(record["digest"]) == 64
        assert record["cycles"] == 1_500 + 64
        (engine,) = record["engines"]
        assert engine["bytes_read"] == 256
        assert record["scenario_id"] == scenario_id(tiny())
        assert record["scenario"] == tiny().to_dict()
        assert record["elapsed_ms"] >= 0

    def test_undecodable_scenario_becomes_an_error_record(self):
        record = evaluate_record(3, "{\"not\": \"a scenario\"}",
                                 CampaignConfig())
        assert record["verdict"] == "error"
        assert record["detail"]
        assert record["digest"] is None

    def test_harness_crash_becomes_an_error_record(self):
        record = evaluate_record(0, exploding().to_json(),
                                 CampaignConfig())
        assert record["verdict"] == "error"
        assert "explode" in record["detail"]

    def test_oracle_violation_becomes_a_fail_record(self, monkeypatch):
        from repro.verify import campaign as campaign_mod
        from repro.verify.oracles import OracleViolation

        def falsify(scenario, checks):
            raise OracleViolation("liveness", "synthetic", scenario)

        monkeypatch.setattr(campaign_mod, "evaluate_scenario", falsify)
        record = evaluate_record(0, tiny().to_json(), CampaignConfig())
        assert record["verdict"] == "fail"
        assert record["oracle"] == "liveness"
        assert record["detail"].startswith("[liveness] synthetic")

    def test_embed_scenario_off_keeps_records_lean(self):
        record = evaluate_record(
            0, tiny().to_json(), CampaignConfig(embed_scenario=False))
        assert record["verdict"] == "pass"
        assert record["scenario"] is None


class TestCrashContainment:
    def test_inline_campaign_survives_a_raising_scenario(self):
        result = run_campaign([tiny(), exploding(), tiny(512)],
                              workers=0, config=GOLDEN_CONFIG)
        assert [r["verdict"] for r in result.records] == \
            ["pass", "error", "pass"]
        assert result.counts == {"pass": 2, "error": 1}
        assert not result.ok

    def test_worker_processes_survive_a_raising_scenario(self):
        result = run_campaign([tiny(), exploding(), tiny(512)],
                              workers=2, config=GOLDEN_CONFIG)
        assert [r["verdict"] for r in result.records] == \
            ["pass", "error", "pass"]
        assert result.workers == 2


class TestDeterminism:
    def scenarios(self):
        return [tiny(256 * k, kind=kind, port=k % 3)
                for k, kind in enumerate(
                    ("read", "write", "copy", "read", "write", "copy"),
                    start=1)]

    def test_records_come_back_in_scenario_order(self):
        for workers in (0, 2, 3):
            result = run_campaign(self.scenarios(), workers=workers,
                                  config=GOLDEN_CONFIG)
            assert [r["index"] for r in result.records] == \
                list(range(6)), f"workers={workers}"

    def test_digest_is_identical_for_any_worker_count(self):
        digests = {
            workers: run_campaign(self.scenarios(), workers=workers,
                                  config=GOLDEN_CONFIG).digest
            for workers in (0, 2, 3)}
        assert len(set(digests.values())) == 1, digests

    def test_chunked_workers_without_timeout_match_inline(self):
        """Enough records for chunksize > 1, where imap_unordered hands
        back a plain generator instead of its timeout-capable iterator."""
        scenarios = [tiny(256 * (k % 4 + 1), kind=("read", "write")[k % 2],
                          port=k % 3) for k in range(40)]
        inline = run_campaign(scenarios, workers=0, config=GOLDEN_CONFIG)
        pooled = run_campaign(scenarios, workers=2, config=GOLDEN_CONFIG)
        assert GOLDEN_CONFIG.record_timeout is None
        assert [r["index"] for r in pooled.records] == list(range(40))
        assert pooled.digest == inline.digest
        assert pooled.counts == {"pass": 40}

    def test_digest_ignores_volatile_timing_fields(self):
        records = run_campaign(self.scenarios()[:2], workers=0,
                               config=GOLDEN_CONFIG).records
        perturbed = [dict(r, elapsed_ms=1e9) for r in records]
        assert campaign_digest(records) == campaign_digest(perturbed)

    def test_digest_sees_verdict_changes(self):
        records = run_campaign(self.scenarios()[:2], workers=0,
                               config=GOLDEN_CONFIG).records
        tampered = [dict(r) for r in records]
        tampered[0]["verdict"] = "fail"
        assert campaign_digest(records) != campaign_digest(tampered)


class TestResultsFile:
    def test_write_load_round_trip(self, tmp_path):
        out = tmp_path / "results.jsonl"
        result = run_campaign([tiny(), tiny(512)], workers=0,
                              config=GOLDEN_CONFIG, output=out)
        loaded = load_results(out)
        assert loaded == list(result.records)

    def test_load_rejects_unknown_schema(self, tmp_path):
        out = tmp_path / "results.jsonl"
        out.write_text(json.dumps({"schema": 999}) + "\n")
        with pytest.raises(ValueError):
            load_results(out)

    def test_lines_are_canonical_json(self, tmp_path):
        out = tmp_path / "results.jsonl"
        run_campaign([tiny()], workers=0, config=GOLDEN_CONFIG,
                     output=out)
        (line,) = out.read_text().splitlines()
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


class TestConfig:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(checks=("equivalence", "vibes"))

    def test_check_subset_is_honored(self, monkeypatch):
        from repro.verify import campaign as campaign_mod
        real = campaign_mod.evaluate_scenario
        seen = {}

        def spy(scenario, checks):
            seen["checks"] = checks
            return real(scenario, checks=checks)

        monkeypatch.setattr(campaign_mod, "evaluate_scenario", spy)
        config = CampaignConfig(checks=("protocol",))
        run_campaign([tiny()], workers=0, config=config)
        assert seen == {"checks": ("protocol",)}


class TestGoldenFile:
    """Field-by-field pin of the JSON-lines record schema."""

    def test_golden_campaign_results_match(self):
        result = run_campaign(golden_scenarios(), workers=0,
                              config=GOLDEN_CONFIG)
        golden = load_results(GOLDEN_PATH)
        assert len(golden) == len(result.records)
        for fresh, pinned in zip(result.records, golden):
            assert set(fresh) == set(pinned), "record fields drifted"
            for key in pinned:
                if key in VOLATILE_FIELDS:
                    continue
                assert fresh[key] == pinned[key], (
                    f"record {pinned['index']} field {key!r} drifted "
                    "from tests/data/golden_campaign_results.jsonl; "
                    "if intentional, bump RESULT_SCHEMA and regenerate")

    def test_golden_file_is_canonically_formatted(self):
        for line in GOLDEN_PATH.read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))


class TestCli:
    def test_campaign_list_and_tiny_run(self, capsys, tmp_path):
        assert cli_main(["campaign", "--list"]) == 0
        assert "smoke" in capsys.readouterr().out
        out = tmp_path / "r.jsonl"
        code = cli_main(["campaign", "--grid", "throughput",
                         "--limit", "3", "--output", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "pass=3" in captured
        assert "scenarios/s" in captured
        assert len(load_results(out)) == 3

    def test_campaign_exits_nonzero_on_non_pass(self, capsys,
                                                monkeypatch, tmp_path):
        def broken_grid(name, **kwargs):
            return [exploding()], ("protocol",)

        monkeypatch.setattr("repro.verify.grid_scenarios", broken_grid)
        code = cli_main(["campaign", "--grid", "faults"])
        assert code == 1
        assert "[error]" in capsys.readouterr().out

    def test_campaign_requires_a_grid(self):
        with pytest.raises(SystemExit):
            cli_main(["campaign"])


# ----------------------------------------------------------------------
# per-record wall-clock timeouts (hung-worker containment)
# ----------------------------------------------------------------------

def _sleepy_evaluate(scenario, checks):
    """Picklable evaluate hook: wedges on the marker scenario.

    Module-level on purpose — `CampaignConfig.evaluate_hook` crosses the
    worker handoff by reference, so it must be importable in the child.
    The marker is `settle == 99`; everything else evaluates for real.
    """
    if scenario.settle == 99:
        import time
        time.sleep(300)
    from repro.verify import evaluate_scenario
    return evaluate_scenario(scenario, checks=checks)


def hanging():
    """A perfectly valid scenario the hook above refuses to finish."""
    return Scenario(
        family="flat",
        ports=(PortPlan(jobs=(("read", 0x1000_0000, 256),)),),
        horizon=1_500, settle=99)


class TestRecordTimeout:
    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(record_timeout=0)
        with pytest.raises(ValueError):
            CampaignConfig(record_timeout=-1.5)

    def test_hung_worker_becomes_a_timeout_error_record(self):
        config = CampaignConfig(record_timeout=5.0,
                                evaluate_hook=_sleepy_evaluate)
        scenarios = [tiny(256), hanging(), tiny(512, port=1)]
        result = run_campaign(scenarios, workers=2, config=config)
        assert [r["index"] for r in result.records] == [0, 1, 2]
        stuck = result.records[1]
        assert stuck["verdict"] == "error"
        assert "timeout" in stuck["detail"]
        assert stuck["scenario_id"] == scenario_id(hanging())
        # the healthy records finished before the straggler was culled
        assert result.records[0]["verdict"] == "pass"
        assert result.records[2]["verdict"] == "pass"
        assert result.counts == {"pass": 2, "error": 1}
        assert not result.ok

    def test_generous_timeout_leaves_the_digest_untouched(self):
        scenarios = [tiny(256), tiny(512, kind="write", port=1)]
        plain = run_campaign(scenarios, workers=1,
                             config=CampaignConfig())
        timed = run_campaign(scenarios, workers=2,
                             config=CampaignConfig(record_timeout=120.0))
        assert timed.digest == plain.digest

    def test_cli_flag_reaches_the_config(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["campaign", "--grid", "smoke", "--record-timeout", "2.5"])
        assert args.record_timeout == 2.5

    @pytest.mark.parametrize("workers", [0, 1])
    def test_inline_run_rejects_a_timeout(self, workers):
        """The inline path cannot interrupt a record, so a timeout there
        is an error, not a silently ignored setting."""
        with pytest.raises(ValueError, match="workers >= 2"):
            run_campaign([tiny()], workers=workers,
                         config=CampaignConfig(record_timeout=5.0))

    def test_cli_rejects_a_timeout_without_workers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["campaign", "--grid", "throughput", "--limit", "1",
                      "--record-timeout", "5"])
        assert "workers >= 2" in str(exit_info.value)
        assert "verdicts:" not in capsys.readouterr().out
