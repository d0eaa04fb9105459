"""Unit and property tests for the sparse backing store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import MemoryStore


class TestBasics:
    def test_unwritten_reads_zero(self):
        store = MemoryStore()
        assert store.read(0x1234, 8) == bytes(8)

    def test_round_trip(self):
        store = MemoryStore()
        store.write(0x100, b"hello world")
        assert store.read(0x100, 11) == b"hello world"

    def test_partial_overwrite(self):
        store = MemoryStore()
        store.write(0x0, b"aaaaaaaa")
        store.write(0x2, b"bb")
        assert store.read(0x0, 8) == b"aabbaaaa"

    def test_page_boundary_crossing(self):
        store = MemoryStore()
        data = bytes(range(64)) * 2
        store.write(4096 - 64, data)
        assert store.read(4096 - 64, 128) == data

    def test_multi_page_write(self):
        store = MemoryStore()
        blob = b"x" * 10_000
        store.write(100, blob)
        assert store.read(100, 10_000) == blob


class TestBounds:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MemoryStore(size=0)

    def test_read_past_end(self):
        store = MemoryStore(size=1024)
        with pytest.raises(ValueError):
            store.read(1020, 8)

    def test_write_past_end(self):
        store = MemoryStore(size=1024)
        with pytest.raises(ValueError):
            store.write(1023, b"ab")

    def test_negative_address(self):
        store = MemoryStore()
        with pytest.raises(ValueError):
            store.read(-1, 4)


class TestPattern:
    def test_fill_pattern_deterministic(self):
        a, b = MemoryStore(), MemoryStore()
        a.fill_pattern(0x40, 512, seed=7)
        b.fill_pattern(0x40, 512, seed=7)
        assert a.read(0x40, 512) == b.read(0x40, 512)

    def test_fill_pattern_seed_changes_content(self):
        store = MemoryStore()
        store.fill_pattern(0, 64, seed=1)
        first = store.read(0, 64)
        store.fill_pattern(0, 64, seed=2)
        assert store.read(0, 64) != first


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=60_000),
        st.binary(min_size=1, max_size=500)), min_size=1, max_size=30))
    def test_matches_reference_model(self, writes):
        """The sparse store must behave like one flat bytearray."""
        store = MemoryStore(size=1 << 17)
        reference = bytearray(1 << 17)
        for address, data in writes:
            store.write(address, data)
            reference[address:address + len(data)] = data
        for address, data in writes:
            count = len(data) + 16
            count = min(count, (1 << 17) - address)
            assert store.read(address, count) == bytes(
                reference[address:address + count])
