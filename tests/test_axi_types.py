"""Unit tests for AXI protocol types."""

import pytest

from repro.axi import (
    AxiVersion,
    BurstType,
    Resp,
    check_beat_size,
    check_burst_length,
)


class TestResp:
    def test_error_detection(self):
        assert Resp.SLVERR.is_error
        assert Resp.DECERR.is_error
        assert not Resp.OKAY.is_error
        assert not Resp.EXOKAY.is_error

    def test_merge_okay(self):
        assert Resp.OKAY.merged_with(Resp.OKAY) is Resp.OKAY

    def test_merge_worst_wins(self):
        assert Resp.OKAY.merged_with(Resp.SLVERR) is Resp.SLVERR
        assert Resp.SLVERR.merged_with(Resp.DECERR) is Resp.DECERR
        assert Resp.DECERR.merged_with(Resp.OKAY) is Resp.DECERR

    def test_merge_exokay_demoted(self):
        # a merged transaction is no longer a single exclusive access
        assert Resp.EXOKAY.merged_with(Resp.OKAY) is Resp.OKAY
        assert Resp.EXOKAY.merged_with(Resp.EXOKAY) is Resp.EXOKAY

    def test_merge_commutative(self):
        for left in Resp:
            for right in Resp:
                assert left.merged_with(right) is right.merged_with(left)


class TestVersion:
    def test_max_burst_lengths(self):
        assert AxiVersion.AXI3.max_burst_length == 16
        assert AxiVersion.AXI4.max_burst_length == 256


class TestValidators:
    def test_beat_sizes(self):
        for size in (1, 2, 4, 8, 16, 32, 64, 128):
            assert check_beat_size(size) == size
        for size in (0, 3, 256):
            with pytest.raises(ValueError):
                check_beat_size(size)

    def test_burst_length_incr(self):
        assert check_burst_length(256) == 256
        with pytest.raises(ValueError):
            check_burst_length(257)
        with pytest.raises(ValueError):
            check_burst_length(0)

    def test_burst_length_axi3(self):
        assert check_burst_length(16, AxiVersion.AXI3) == 16
        with pytest.raises(ValueError):
            check_burst_length(17, AxiVersion.AXI3)

    def test_burst_length_fixed_cap(self):
        with pytest.raises(ValueError):
            check_burst_length(32, AxiVersion.AXI4, BurstType.FIXED)

    def test_wrap_lengths(self):
        for length in (2, 4, 8, 16):
            assert check_burst_length(
                length, AxiVersion.AXI4, BurstType.WRAP) == length
        for length in (3, 5, 12):
            with pytest.raises(ValueError):
                check_burst_length(length, AxiVersion.AXI4, BurstType.WRAP)


class TestBurstType:
    def test_str(self):
        assert str(BurstType.INCR) == "INCR"
