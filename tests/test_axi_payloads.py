"""Unit tests for payload objects and ID allocation."""

import pytest

from repro.axi import (
    AddrBeat,
    ChannelName,
    IdAllocator,
    Resp,
    make_read_request,
    make_write_request,
)
from repro.sim import ConfigurationError


class TestAddrBeat:
    def test_request_factories(self):
        ar = make_read_request(0x1000, 16, 16, txn_id=3)
        assert ar.channel is ChannelName.AR and ar.is_read
        assert ar.address == 0x1000 and ar.length == 16
        assert ar.txn_id == 3 and ar.issued is None and ar.data is None

        aw = make_write_request(0x2000, 4, 16, txn_id=1, data=b"\x5a" * 64)
        assert aw.channel is ChannelName.AW and not aw.is_read
        assert aw.txn_id == 1 and aw.data == b"\x5a" * 64

    def test_origin_of_unsplit_beat_is_itself(self):
        beat = make_read_request(0, 4, 16)
        assert beat.origin() is beat

    def test_split_child_chains_to_origin(self):
        parent = make_read_request(0, 32, 16)
        child = parent.split_child(0x100, 16, final_sub=False)
        grandchild = child.split_child(0x180, 8, final_sub=True)
        assert child.origin() is parent
        assert grandchild.origin() is parent
        assert child.parent is parent
        assert not child.final_sub and grandchild.final_sub

    def test_split_child_inherits_metadata(self):
        parent = make_read_request(0, 32, 16, txn_id=5)
        parent.port = 2
        child = parent.split_child(0x10, 16, final_sub=False)
        assert child.txn_id == 5
        assert child.port == 2
        assert child.size_bytes == 16

    def test_default_resp_acc(self):
        beat = make_write_request(0, 4, 16)
        assert beat.resp_acc is Resp.OKAY


class TestIdAllocator:
    def test_allocate_release_cycle(self):
        pool = IdAllocator(2)
        ids = {pool.allocate() for _ in range(4)}
        assert ids == {0, 1, 2, 3}
        assert not pool.available()
        pool.release(2)
        assert pool.available()

    def test_exhaustion_raises(self):
        pool = IdAllocator(1)
        pool.allocate()
        pool.allocate()
        with pytest.raises(ConfigurationError):
            pool.allocate()

    def test_double_release_raises(self):
        pool = IdAllocator(1)
        txn_id = pool.allocate()
        pool.release(txn_id)
        with pytest.raises(ConfigurationError):
            pool.release(txn_id)

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            IdAllocator(0)
        with pytest.raises(ConfigurationError):
            IdAllocator(17)
