"""Unit and property tests for AXI burst address arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.axi import (
    BOUNDARY_4KB,
    AxiVersion,
    BurstType,
    beat_addresses,
    crosses_4kb,
    legalize,
    max_legal_length,
    split_burst,
)


class TestBeatAddresses:
    def test_incr(self):
        assert beat_addresses(0x100, 4, 8) == [0x100, 0x108, 0x110, 0x118]

    def test_fixed(self):
        assert beat_addresses(0x40, 3, 4, BurstType.FIXED) == [0x40] * 3

    def test_wrap_wraps_at_container(self):
        # 4 beats x 4 bytes = 16-byte container; start mid-container
        addresses = beat_addresses(0x48, 4, 4, BurstType.WRAP)
        assert addresses == [0x48, 0x4C, 0x40, 0x44]

    def test_wrap_unaligned_start_rejected(self):
        with pytest.raises(ValueError):
            beat_addresses(0x41, 4, 4, BurstType.WRAP)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            beat_addresses(0, 0, 4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            beat_addresses(0, 1, 3)


class TestBoundary:
    def test_burst_inside_page(self):
        assert not crosses_4kb(0x0, 256, 16)  # exactly fills the page

    def test_burst_crossing_page(self):
        assert crosses_4kb(0xFF0, 2, 16)

    def test_fixed_never_crosses(self):
        assert not crosses_4kb(0xFFF, 16, 16, BurstType.FIXED)

    def test_wrap_never_crosses(self):
        assert not crosses_4kb(0xFC0, 16, 4, BurstType.WRAP)

    def test_max_legal_length_at_page_start(self):
        assert max_legal_length(0x0, 16) == 256

    def test_max_legal_length_near_boundary(self):
        assert max_legal_length(BOUNDARY_4KB - 32, 16) == 2

    def test_max_legal_length_axi3_cap(self):
        assert max_legal_length(0x0, 16, AxiVersion.AXI3) == 16


class TestSplitBurst:
    def test_exact_multiple(self):
        assert split_burst(0x0, 32, 16, 16) == [(0x0, 16), (0x100, 16)]

    def test_remainder(self):
        pieces = split_burst(0x0, 20, 16, 16)
        assert pieces == [(0x0, 16), (0x100, 4)]

    def test_short_burst_untouched(self):
        assert split_burst(0x40, 8, 16, 16) == [(0x40, 8)]

    def test_invalid_nominal(self):
        with pytest.raises(ValueError):
            split_burst(0, 8, 16, 0)

    @given(address=st.integers(min_value=0, max_value=1 << 32).map(
               lambda a: a * 16),
           length=st.integers(min_value=1, max_value=1024),
           nominal=st.integers(min_value=1, max_value=64))
    def test_split_covers_same_beats(self, address, length, nominal):
        """Splitting must preserve the exact set of beat addresses."""
        pieces = split_burst(address, length, 16, nominal)
        original = beat_addresses(address, length, 16)
        recombined = []
        for sub_address, sub_length in pieces:
            assert 1 <= sub_length <= nominal
            recombined.extend(beat_addresses(sub_address, sub_length, 16))
        assert recombined == original

    @given(length=st.integers(min_value=1, max_value=2048),
           nominal=st.integers(min_value=1, max_value=256))
    def test_split_piece_count(self, length, nominal):
        pieces = split_burst(0, length, 16, nominal)
        assert len(pieces) == -(-length // nominal)  # ceil division


class TestLegalize:
    def test_no_split_needed(self):
        assert legalize(0x0, 16, 16) == [(0x0, 16)]

    def test_split_at_4kb(self):
        pieces = legalize(BOUNDARY_4KB - 64, 8, 16)
        # 4 beats to the boundary, then 4 beyond
        assert pieces == [(BOUNDARY_4KB - 64, 4), (BOUNDARY_4KB, 4)]

    def test_axi3_length_cap(self):
        pieces = legalize(0x0, 64, 16, AxiVersion.AXI3)
        assert all(length <= 16 for (_, length) in pieces)

    @given(address=st.integers(min_value=0, max_value=1 << 20).map(
               lambda a: a * 16),
           beats=st.integers(min_value=1, max_value=4096))
    def test_legalized_bursts_are_legal_and_cover(self, address, beats):
        pieces = legalize(address, beats, 16)
        covered = []
        for sub_address, sub_length in pieces:
            assert 1 <= sub_length <= 256
            assert not crosses_4kb(sub_address, sub_length, 16)
            covered.extend(beat_addresses(sub_address, sub_length, 16))
        assert covered == beat_addresses(address, beats, 16)
