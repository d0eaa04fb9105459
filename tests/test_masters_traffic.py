"""Unit tests for the synthetic traffic generators."""

import pytest

from repro.masters import (
    GreedyTrafficGenerator,
    PeriodicTrafficGenerator,
)
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem


class TestGreedy:
    def test_saturates_the_bus(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        greedy = GreedyTrafficGenerator(soc.sim, "g", soc.port(0),
                                        job_bytes=4096, depth=2)
        soc.sim.run(50_000)
        # near-saturation: at 16 B/beat, ideal is 16 B/cycle
        bandwidth = greedy.bytes_read / 50_000
        assert bandwidth > 14.0

    def test_disable_stops_replenishment(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        greedy = GreedyTrafficGenerator(soc.sim, "g", soc.port(0),
                                        job_bytes=1024, depth=2)
        soc.sim.run(2000)
        greedy.enabled = False
        soc.run_until_quiescent()
        done = len(greedy.jobs_completed)
        soc.sim.run(2000)
        assert len(greedy.jobs_completed) == done

    def test_write_fraction_mixes_traffic(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        greedy = GreedyTrafficGenerator(soc.sim, "g", soc.port(0),
                                        job_bytes=1024, depth=2,
                                        write_fraction=0.5)
        soc.sim.run(30_000)
        assert greedy.bytes_written > 0
        assert greedy.bytes_read > 0

    def test_invalid_write_fraction(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        with pytest.raises(ConfigurationError):
            GreedyTrafficGenerator(soc.sim, "g", soc.port(0),
                                   write_fraction=1.5)

    def test_window_wraps(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        greedy = GreedyTrafficGenerator(soc.sim, "g", soc.port(0),
                                        job_bytes=1024, depth=1,
                                        window_bytes=2048)
        soc.sim.run(20_000)
        assert len(greedy.jobs_completed) > 4  # cursor wrapped several times


class TestPeriodic:
    def test_releases_on_period(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        periodic = PeriodicTrafficGenerator(soc.sim, "p", soc.port(0),
                                            period=1000, job_bytes=256)
        soc.sim.run(5500)
        assert periodic.releases == 6  # cycles 0,1000,...,5000

    def test_no_misses_when_lightly_loaded(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        periodic = PeriodicTrafficGenerator(soc.sim, "p", soc.port(0),
                                            period=5000, job_bytes=256)
        soc.sim.run(30_000)
        assert periodic.deadline_misses == 0

    def test_misses_detected_when_overloaded(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        # job takes far longer than the period
        periodic = PeriodicTrafficGenerator(soc.sim, "p", soc.port(0),
                                            period=50, job_bytes=65536)
        soc.sim.run(5000)
        assert 0 < periodic.deadline_misses < periodic.releases

    def test_invalid_period(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        with pytest.raises(ConfigurationError):
            PeriodicTrafficGenerator(soc.sim, "p", soc.port(0),
                                     period=0, job_bytes=256)
