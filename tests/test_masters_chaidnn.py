"""Unit tests for the phased accelerator and CHaiDNN model."""

import pytest

from repro.masters import (
    GOOGLENET_LAYERS,
    ChaiDnnAccelerator,
    Phase,
    PhasedAccelerator,
    googlenet_total_macs,
    googlenet_total_weight_bytes,
)
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem


class TestPhase:
    def test_invalid_kind(self):
        with pytest.raises(ConfigurationError):
            Phase("sleep", cycles=10)

    def test_compute_needs_cycles(self):
        with pytest.raises(ConfigurationError):
            Phase("compute", cycles=0)

    def test_memory_needs_bytes(self):
        with pytest.raises(ConfigurationError):
            Phase("read", nbytes=0)


class TestPhasedAccelerator:
    def phases(self):
        return [
            Phase("read", nbytes=256, address=0x1000),
            Phase("compute", cycles=100),
            Phase("write", nbytes=128, address=0x9000),
        ]

    def test_idle_until_started(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = PhasedAccelerator(soc.sim, "acc", soc.port(0),
                                  self.phases(), frames=1)
        soc.sim.run(2000)
        assert accel.frames_completed == 0
        assert accel.bytes_read == 0

    def test_completes_requested_frames(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = PhasedAccelerator(soc.sim, "acc", soc.port(0),
                                  self.phases(), frames=3)
        accel.start()
        soc.sim.run_until(lambda: accel.done, max_cycles=100_000)
        assert accel.frames_completed == 3
        assert accel.done
        assert accel.bytes_read == 3 * 256
        assert accel.bytes_written == 3 * 128

    def test_frame_includes_compute_time(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = PhasedAccelerator(soc.sim, "acc", soc.port(0),
                                  self.phases(), frames=1)
        accel.start()
        soc.sim.run_until(lambda: accel.done, max_cycles=100_000)
        assert accel.frame_latency.minimum >= 100  # at least the compute

    def test_runs_forever_without_frame_target(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = PhasedAccelerator(soc.sim, "acc", soc.port(0),
                                  self.phases())
        accel.start()
        soc.sim.run(60_000)
        assert accel.frames_completed > 5
        assert not accel.done

    def test_empty_phases_rejected(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        with pytest.raises(ConfigurationError):
            PhasedAccelerator(soc.sim, "acc", soc.port(0), [])


class TestGoogleNetTable:
    def test_totals_in_published_ballpark(self):
        # GoogleNet: ~1.5-1.6 G MACs, ~6-7 MB of INT8 weights
        assert 1.0e9 < googlenet_total_macs() < 2.5e9
        assert 5e6 < googlenet_total_weight_bytes() < 8e6

    def test_layer_count(self):
        assert len(GOOGLENET_LAYERS) == 12


class TestChaiDnn:
    def test_phase_structure(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0), scale=0.05)
        kinds = [phase.kind for phase in accel.phases]
        # per layer: weights read, ifmap read, compute, ofmap write
        assert kinds[:4] == ["read", "read", "compute", "write"]
        assert len(accel.phases) == 4 * len(GOOGLENET_LAYERS)

    def test_scaling_reduces_traffic_and_compute(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        full = ChaiDnnAccelerator(soc.sim, "dnn1", soc.port(0), scale=1.0)
        tiny = ChaiDnnAccelerator(soc.sim, "dnn2", soc.port(1), scale=0.1)
        assert tiny.traffic_bytes_per_frame() < full.traffic_bytes_per_frame()
        def compute_cycles(accel):
            return sum(phase.cycles for phase in accel.phases
                       if phase.kind == "compute")

        assert compute_cycles(tiny) < compute_cycles(full)

    def test_invalid_scale(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        with pytest.raises(ConfigurationError):
            ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0), scale=0.0)
        with pytest.raises(ConfigurationError):
            ChaiDnnAccelerator(soc.sim, "dnn2", soc.port(0), scale=1.5)

    def test_processes_frames(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0),
                                   scale=0.02, frames=2)
        accel.start()
        soc.sim.run_until(lambda: accel.done, max_cycles=2_000_000)
        assert accel.frames_completed == 2
        assert accel.frame_rate.rate() > 0

    def test_traffic_accounting_matches_run(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0),
                                   scale=0.02, frames=1)
        accel.start()
        soc.sim.run_until(lambda: accel.done, max_cycles=2_000_000)
        moved = accel.bytes_read + accel.bytes_written
        assert moved == accel.traffic_bytes_per_frame()

    def test_weights_at_distinct_addresses(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        accel = ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0), scale=0.05)
        weight_addresses = [phase.address for phase in accel.phases
                            if phase.label.endswith("weights")]
        assert len(set(weight_addresses)) == len(weight_addresses)
