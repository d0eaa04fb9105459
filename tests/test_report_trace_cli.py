"""Tests for the utilization monitor, trace record/replay, and the CLI."""

import pytest

from repro.cli import main
from repro.masters import (
    AxiDma,
    BusTraceRecorder,
    TraceRecord,
    TraceReplayMaster,
    load_trace,
)
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import BusUtilizationMonitor, CaseStudyResult, SocSystem

from conftest import drain


class TestBusUtilizationMonitor:
    def test_counts_and_utilization(self, hc_soc):
        monitor = BusUtilizationMonitor(hc_soc.master_link, window=1024)
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        dma.enqueue_read(0x0, 4096)
        drain(hc_soc)
        assert monitor.total_beats == 256
        assert monitor.read_beats == 256
        assert monitor.write_beats == 0
        assert 0.5 < monitor.utilization() <= 1.0

    def test_per_port_attribution(self, hc_soc):
        monitor = BusUtilizationMonitor(hc_soc.master_link)
        a = AxiDma(hc_soc.sim, "a", hc_soc.port(0))
        b = AxiDma(hc_soc.sim, "b", hc_soc.port(1))
        a.enqueue_read(0x0, 4096)
        b.enqueue_read(0x8000, 12288)
        drain(hc_soc)
        shares = monitor.port_shares()
        assert shares[0] == pytest.approx(0.25, abs=0.01)
        assert shares[1] == pytest.approx(0.75, abs=0.01)

    def test_series_and_render(self, hc_soc):
        monitor = BusUtilizationMonitor(hc_soc.master_link, window=256)
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        dma.enqueue_write(0x0, 8192)
        drain(hc_soc)
        series = monitor.series()
        assert sum(sum(bucket.values()) for bucket in series) == 512
        text = monitor.render()
        assert "bus utilization" in text
        assert "port 0" in text
        assert "timeline" in text

    def test_empty_monitor(self, hc_soc):
        monitor = BusUtilizationMonitor(hc_soc.master_link)
        assert monitor.utilization() == 0.0
        assert monitor.port_shares() == {}
        assert monitor.series() == []
        assert "0 beats" in monitor.render()

    def test_invalid_window(self, hc_soc):
        with pytest.raises(ValueError):
            BusUtilizationMonitor(hc_soc.master_link, window=0)


class TestTraceRecordReplay:
    def test_record_captures_requests(self, hc_soc):
        recorder = BusTraceRecorder(hc_soc.port(0))
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        dma.enqueue_read(0x1000, 512)
        dma.enqueue_write(0x9000, 256)
        drain(hc_soc)
        kinds = [record.kind for record in recorder.records]
        assert kinds.count("read") == 2   # 512 B = 2 bursts of 16 beats
        assert kinds.count("write") == 1
        assert recorder.records[0].address == 0x1000

    def test_save_load_round_trip(self, hc_soc, tmp_path):
        recorder = BusTraceRecorder(hc_soc.port(0))
        dma = AxiDma(hc_soc.sim, "dma", hc_soc.port(0))
        dma.enqueue_read(0x1000, 1024)
        drain(hc_soc)
        path = recorder.save(tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert loaded == recorder.records

    def test_replay_reproduces_traffic(self, tmp_path):
        # record a workload ...
        source = SocSystem.build(ZCU102, n_ports=2)
        recorder = BusTraceRecorder(source.port(0))
        dma = AxiDma(source.sim, "dma", source.port(0))
        dma.enqueue_read(0x1000, 2048)
        dma.enqueue_write(0x9000, 1024)
        drain(source)
        # ... and replay it in a fresh system
        replay_soc = SocSystem.build(ZCU102, n_ports=2)
        replayer = TraceReplayMaster(replay_soc.sim, "replay",
                                     replay_soc.port(0),
                                     trace=recorder.records)
        replayer.start()
        replay_soc.sim.run_until(lambda: replayer.done,
                                 max_cycles=100_000)
        assert replayer.bytes_read == 2048
        assert replayer.bytes_written == 1024
        assert replayer.replays_completed == len(recorder.records)

    def test_replay_preserves_pacing(self):
        trace = [TraceRecord(0, "read", 0x0, 16),
                 TraceRecord(5000, "read", 0x1000, 16)]
        soc = SocSystem.build(ZCU102, n_ports=2)
        replayer = TraceReplayMaster(soc.sim, "replay", soc.port(0),
                                     trace=trace)
        replayer.start()
        soc.sim.run_until(lambda: replayer.done, max_cycles=50_000)
        jobs = replayer.jobs_completed
        assert jobs[1].started - jobs[0].started >= 5000

    def test_replay_idle_until_started(self):
        trace = [TraceRecord(0, "read", 0x0, 16)]
        soc = SocSystem.build(ZCU102, n_ports=2)
        replayer = TraceReplayMaster(soc.sim, "replay", soc.port(0),
                                     trace=trace)
        soc.sim.run(2000)
        assert replayer.bytes_read == 0
        assert not replayer.done

    def test_invalid_record_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceRecord(0, "copy", 0, 16)
        with pytest.raises(ConfigurationError):
            TraceRecord(-1, "read", 0, 16)
        with pytest.raises(ConfigurationError):
            TraceRecord(0, "read", 0, 0)


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "AXI HyperConnect" in out
        assert "ZCU102" in out

    def test_latency(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "AR" in out and "82%" in out

    def test_access_time(self, capsys):
        assert main(["access-time", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "28.3%" in out

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "3020" in out and "7137" in out

    def test_wcrt(self, capsys):
        assert main(["wcrt", "--bytes", "4096"]) == 0
        out = capsys.readouterr().out
        assert "WCRT bound" in out

    def test_case_study_small(self, capsys):
        assert main(["case-study", "--share", "70", "--window", "60000",
                     "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "HC-70-30" in out

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["--platform", "Versal", "info"])

    def test_share_requires_hyperconnect(self):
        with pytest.raises(SystemExit):
            main(["case-study", "--interconnect", "smartconnect",
                  "--share", "50"])

    @pytest.mark.parametrize("argv", [
        ["case-study", "--share", "150"],
        ["access-time", "--size", "0"],
        ["wcrt", "--bytes", "0"],
        ["wcrt", "--bytes", "4096", "--budget", "0", "--period", "1024"],
        ["wcrt", "--bytes", "4096", "--budget", "10"],
        ["wcrt", "--bytes", "4096", "--nominal", "0"],
    ], ids=("share-150", "size-0", "bytes-0", "budget-0",
            "budget-without-period", "nominal-0"))
    def test_bad_argument_exits_without_a_traceback(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value.code).startswith(f"{argv[0]}: ")

    def test_tlm_flag_belongs_to_case_study(self, monkeypatch, capsys):
        """``--tlm`` is a ``case-study`` option passed straight to
        ``run_case_study``: no other command accepts it, and it leaves
        no state behind for later builds in the process."""
        calls = []

        def fake_case_study(interconnect, **kwargs):
            calls.append(kwargs)
            return CaseStudyResult(0.0, 0.0, 0, 0, kwargs["window_cycles"])

        monkeypatch.setattr("repro.cli.run_case_study", fake_case_study)
        assert main(["case-study", "--window", "100", "--tlm"]) == 0
        assert [call["tlm"] for call in calls] == [True]
        with pytest.raises(SystemExit) as exit_info:
            main(["--tlm", "latency"])
        assert exit_info.value.code == 2
        assert "--tlm" in capsys.readouterr().err
        assert not SocSystem.build(ZCU102, n_ports=2).sim.tlm
