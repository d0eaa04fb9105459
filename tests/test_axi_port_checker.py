"""Unit tests for AXI links and the protocol checker."""

import pytest

from repro.axi import (
    AxiLink,
    AxiVersion,
    ChannelName,
    DataBeat,
    LinkChecker,
    ProtocolError,
    RespBeat,
    WriteBeat,
    check_addr_beat,
    make_read_request,
    make_write_request,
)


def read_beat(address=0x0, length=4, size=16, txn_id=0):
    return make_read_request(address, length, size, txn_id=txn_id)


def write_beat(address=0x0, length=4, size=16, txn_id=0):
    return make_write_request(address, length, size, txn_id=txn_id)


class TestAxiLink:
    def test_channels_created(self, sim):
        link = AxiLink(sim, "l")
        assert [c.name for c in link.channels] == [
            "l.AR", "l.AW", "l.W", "l.R", "l.B"]

    def test_per_channel_latency_dict(self, sim):
        link = AxiLink(sim, "l", latency={"AR": 12, "R": 11})
        assert link.ar.latency == 12
        assert link.r.latency == 11
        assert link.w.latency == 1   # unspecified roles default to 1

    def test_capacity_widened_for_deep_pipelines(self, sim):
        link = AxiLink(sim, "l", latency={"AR": 12}, addr_depth=4)
        assert link.ar.capacity >= 13

    def test_is_idle_and_clear(self, sim):
        link = AxiLink(sim, "l")
        assert link.is_idle()
        link.ar.push(read_beat())
        assert not link.is_idle()
        link.clear()
        assert link.is_idle()

    def test_invalid_width_rejected(self, sim):
        with pytest.raises(ValueError):
            AxiLink(sim, "l", data_bytes=5)


class TestCheckAddrBeat:
    def test_legal_beat_passes(self):
        check_addr_beat(read_beat(length=256))

    def test_4kb_crossing_rejected(self):
        with pytest.raises(ProtocolError):
            check_addr_beat(read_beat(address=0xFF0, length=4))

    def test_axi3_length_rejected(self):
        with pytest.raises(ProtocolError):
            check_addr_beat(read_beat(length=32), AxiVersion.AXI3)

    def test_beat_wider_than_bus_rejected(self):
        with pytest.raises(ProtocolError):
            check_addr_beat(read_beat(size=32), bus_bytes=16)


class TestLinkChecker:
    def test_clean_write_sequence(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        aw = write_beat(length=2)
        link.aw.push(aw)
        link.w.push(WriteBeat(last=False))
        link.w.push(WriteBeat(last=True))
        link.b.push(RespBeat())
        checker.assert_clean()
        assert not checker.violations

    def test_early_wlast_detected(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.aw.push(write_beat(length=3))
        link.w.push(WriteBeat(last=True))   # 2 beats early
        assert checker.violations
        with pytest.raises(ProtocolError):
            checker.assert_clean()

    def test_missing_wlast_detected(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.aw.push(write_beat(length=1))
        link.w.push(WriteBeat(last=False))
        assert any("WLAST" in v for v in checker.violations)

    def test_orphan_w_detected_at_drain(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.w.push(WriteBeat(last=True))
        # early W is legal while in flight ...
        assert not checker.violations
        # ... but an orphan once the traffic has drained
        with pytest.raises(ProtocolError):
            checker.assert_clean()

    def test_early_w_matched_by_later_aw(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.w.push(WriteBeat(last=False))
        link.w.push(WriteBeat(last=True))
        link.aw.push(write_beat(length=2))   # AW arrives after its data
        checker.assert_clean()

    def test_orphan_b_detected(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.b.push(RespBeat())
        assert any("no outstanding AW" in v for v in checker.violations)

    def test_read_order_checked(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.ar.push(read_beat(length=2))
        link.r.push(DataBeat(last=False))
        link.r.push(DataBeat(last=True))
        assert not checker.violations

    def test_early_rlast_detected(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.ar.push(read_beat(length=4))
        link.r.push(DataBeat(last=True))
        assert any("RLAST" in v for v in checker.violations)

    def test_orphan_r_detected(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.r.push(DataBeat(last=True))
        assert any("no outstanding AR" in v for v in checker.violations)

    def test_violation_recorded_then_raised_by_assert_clean(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.aw.push(write_beat(address=0xFFF8, length=4))  # 4KB cross
        assert any("4 KiB" in v for v in checker.violations)
        with pytest.raises(ProtocolError, match="l: 1 protocol violations"):
            checker.assert_clean()

    def test_illegal_addr_beat_recorded(self, sim):
        link = AxiLink(sim, "l")
        checker = LinkChecker(link)
        link.ar.push(read_beat(address=0xFF8, length=4))
        assert any("4 KiB" in v for v in checker.violations)
