"""Unit and property tests for the statistics collectors."""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Histogram, OnlineStats, RateCounter


class TestOnlineStats:
    def test_empty(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.minimum is None and stats.maximum is None

    def test_single_sample(self):
        stats = OnlineStats()
        stats.add(42.0)
        assert stats.count == 1
        assert stats.mean == 42.0
        assert stats.minimum == stats.maximum == 42.0

    def test_known_values(self):
        stats = OnlineStats()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.add(value)
        assert stats.mean == pytest.approx(5.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200))
    def test_matches_statistics_module(self, values):
        stats = OnlineStats()
        for value in values:
            stats.add(value)
        assert stats.mean == pytest.approx(statistics.fmean(values),
                                           rel=1e-9, abs=1e-6)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_as_dict(self):
        stats = OnlineStats()
        stats.add(1.0)
        stats.add(3.0)
        summary = stats.as_dict()
        assert summary["count"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == 2.0


class TestHistogram:
    def test_binning(self):
        histogram = Histogram(bin_width=10)
        for value in (0, 5, 9, 10, 25):
            histogram.add(value)
        assert histogram.bins() == [(0, 3), (10, 1), (20, 1)]

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0)

    def test_percentile(self):
        histogram = Histogram(bin_width=1)
        for value in range(100):
            histogram.add(value)
        assert histogram.percentile(0.5) == pytest.approx(49, abs=1)
        assert histogram.percentile(1.0) == 99

    def test_percentile_bounds(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        assert histogram.percentile(0.5) == 0.0  # empty


class TestRateCounter:
    def test_rate_over_window(self):
        counter = RateCounter(clock_hz=100.0)
        for cycle in (10, 20, 30, 40):
            counter.record(cycle)
        # 4 events by cycle 40 at 100 Hz -> 10 events/s
        assert counter.rate() == pytest.approx(10.0)

    def test_explicit_window(self):
        counter = RateCounter(clock_hz=100.0)
        counter.record(5)
        assert counter.rate(window_cycles=50) == pytest.approx(2.0)

    def test_empty_rate_is_zero(self):
        assert RateCounter(100.0).rate() == 0.0

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            RateCounter(0.0)
