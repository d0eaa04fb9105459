"""Unit tests for the Transaction Supervisor."""

import pytest

from repro.axi import make_read_request, make_write_request
from repro.hyperconnect import (
    CentralUnit,
    EFifoLink,
    PortConfig,
    TransactionSupervisor,
)
from repro.sim import Channel, ConfigurationError, Simulator


def build(config=None, fast=False):
    sim = Simulator("ts-test", fast=fast)
    link = EFifoLink(sim, "p0")
    out_ar = Channel(sim, "ts.AR", 1, None)
    out_aw = Channel(sim, "ts.AW", 1, None)
    ts = TransactionSupervisor(sim, "TS0", 0, link, out_ar, out_aw,
                               config or PortConfig())
    return sim, link, out_ar, out_aw, ts


def read_request(address=0, length=16):
    return make_read_request(address, length, 16)


def write_request(address=0, length=16):
    return make_write_request(address, length, 16)


class TestSplitting:
    def test_short_burst_passes_unsplit(self):
        sim, link, out_ar, __, ts = build()
        link.ar.push(read_request(length=8))
        sim.run(4)
        subs = out_ar.drain()
        assert len(subs) == 1
        assert subs[0].final_sub
        assert subs[0].parent is None

    def test_long_burst_equalized(self):
        config = PortConfig(nominal_burst=16)
        sim, link, out_ar, __, ts = build(config)
        link.ar.push(read_request(length=40))
        sim.run(8)
        subs = out_ar.drain()
        assert [sub.length for sub in subs] == [16, 16, 8]
        assert [sub.final_sub for sub in subs] == [False, False, True]
        assert all(sub.origin() is subs[0].origin() for sub in subs)
        assert ts.splits_performed == 1

    def test_sub_addresses_are_contiguous(self):
        sim, link, out_ar, __, ts = build(PortConfig(nominal_burst=4))
        link.ar.push(read_request(address=0x1000, length=12))
        sim.run(8)
        subs = out_ar.drain()
        assert [sub.address for sub in subs] == [0x1000, 0x1040, 0x1080]

    def test_port_index_stamped(self):
        sim, link, out_ar, __, ts = build()
        link.ar.push(read_request())
        sim.run(4)
        assert out_ar.pop().port == 0

    def test_writes_split_independently(self):
        sim, link, __, out_aw, ts = build(PortConfig(nominal_burst=8))
        link.aw.push(write_request(length=24))
        sim.run(8)
        subs = out_aw.drain()
        assert [sub.length for sub in subs] == [8, 8, 8]


class TestOutstandingLimit:
    def test_limit_stalls_forwarding(self):
        config = PortConfig(nominal_burst=16, max_outstanding=2)
        sim, link, out_ar, __, ts = build(config)
        link.ar.push(read_request(length=16 * 5))
        sim.run(20)
        assert len(out_ar.drain()) == 2
        assert ts.outstanding_reads == 2

    def test_completion_frees_slot(self):
        config = PortConfig(nominal_burst=16, max_outstanding=1)
        sim, link, out_ar, __, ts = build(config)
        link.ar.push(read_request(length=32))
        sim.run(10)
        assert len(out_ar.drain()) == 1
        ts.note_read_complete()
        sim.run(4)
        assert len(out_ar.drain()) == 1

    def test_reads_and_writes_tracked_separately(self):
        config = PortConfig(max_outstanding=1)
        sim, link, out_ar, out_aw, ts = build(config)
        link.ar.push(read_request())
        link.aw.push(write_request())
        sim.run(6)
        # one of each may be outstanding simultaneously
        assert len(out_ar.drain()) == 1
        assert len(out_aw.drain()) == 1

    def test_spurious_completion_raises(self):
        sim, link, __, ___, ts = build()
        with pytest.raises(ConfigurationError):
            ts.note_read_complete()
        with pytest.raises(ConfigurationError):
            ts.note_write_complete()


class TestBudget:
    def test_budget_limits_issue(self):
        config = PortConfig(budget=2, max_outstanding=16)
        sim, link, out_ar, __, ts = build(config)
        ts.recharge()
        link.ar.push(read_request(length=16 * 6))
        sim.run(30)
        assert len(out_ar.drain()) == 2
        assert ts.budget_remaining == 0
        # the other four subs wait on the budget, not on the outstanding
        # limit or the output channel
        assert len(ts._pending_ar) == 4
        assert ts.outstanding_reads == 2
        assert out_ar.can_push()

    def test_recharge_restores_budget(self):
        config = PortConfig(budget=2, max_outstanding=16)
        sim, link, out_ar, __, ts = build(config)
        ts.recharge()
        link.ar.push(read_request(length=16 * 6))
        sim.run(30)
        ts.recharge()
        sim.run(30)
        assert ts.config.issued_read == 4

    def test_budget_counts_reads_and_writes_together(self):
        config = PortConfig(budget=3, max_outstanding=16)
        sim, link, out_ar, out_aw, ts = build(config)
        ts.recharge()
        link.ar.push(read_request(length=32))   # 2 subs
        link.aw.push(write_request(length=32))  # 2 subs
        sim.run(30)
        issued = len(out_ar.drain()) + len(out_aw.drain())
        assert issued == 3

    def test_unlimited_budget(self):
        sim, link, out_ar, __, ts = build(PortConfig(budget=None,
                                                     max_outstanding=64))
        link.ar.push(read_request(length=16 * 10))
        sim.run(40)
        assert len(out_ar.drain()) == 10

    def test_zero_budget_blocks_everything(self):
        config = PortConfig(budget=0)
        sim, link, out_ar, __, ts = build(config)
        ts.recharge()
        link.ar.push(read_request())
        sim.run(20)
        assert not out_ar.can_pop()


class TestDecouplingAndEnable:
    def test_decoupled_port_forwards_nothing(self):
        sim, link, out_ar, __, ts = build()
        link.ar.push(read_request())
        sim.step()
        link.decouple()
        sim.run(10)
        assert not out_ar.can_pop()

    def test_recouple_resumes(self):
        sim, link, out_ar, __, ts = build()
        link.ar.push(read_request())
        sim.step()
        link.decouple()
        sim.run(5)
        link.couple()
        sim.run(5)
        assert out_ar.can_pop()

    def test_disabled_ts_forwards_nothing(self):
        sim, link, out_ar, __, ts = build()
        ts.enabled = False
        link.ar.push(read_request())
        sim.run(10)
        assert not out_ar.can_pop()

    def test_reset_clears_state(self):
        config = PortConfig(budget=4)
        sim, link, out_ar, __, ts = build(config)
        ts.recharge()
        link.ar.push(read_request(length=64))
        sim.run(10)
        out_ar.drain()
        ts.reset()
        assert ts.outstanding_reads == 0
        assert ts.budget_remaining == 4


class TestIdleTick:
    """Guards for the early return of an idle supervisor tick."""

    @pytest.mark.parametrize("fast", (False, True), ids=("reference",
                                                         "fast"))
    def test_budget_stall_waits_for_each_recharge(self, fast):
        period = 20
        config = PortConfig(nominal_burst=16, max_outstanding=16, budget=1)
        sim, link, out_ar, __, ts = build(config, fast=fast)
        central = CentralUnit(sim, "central", [ts], period)
        link.ar.push(read_request(length=16 * 4))
        sim.run(10)
        assert ts.config.issued_read == 1
        assert len(ts._pending_ar) == 3
        assert link.ar.is_idle and link.aw.is_idle
        sim.run(4 * period)
        # one sub per recharge, on the cycle after the central unit's
        assert list(ts._read_issue_cycles) == [1, period, 2 * period,
                                               3 * period]
        assert central.recharges == 4
        assert not ts._pending_ar
        if fast:
            # the stall between recharges is skipped, not polled
            assert sim.skip_stats.cycles_frozen > 3 * (period - 4)

    @pytest.mark.parametrize("gate", ("decoupled", "disabled"))
    def test_gated_tick_is_a_noop(self, gate):
        config = PortConfig(nominal_burst=16, max_outstanding=16, budget=1,
                            timeout_cycles=5)
        sim, link, out_ar, __, ts = build(config)
        ts.recharge()
        link.ar.push(read_request(length=32))
        sim.run(2)                  # one sub issued, one pending on budget
        link.ar.push(read_request())
        sim.run(2)                  # the second request waits in the eFIFO
        if gate == "decoupled":
            link.decouple()
        else:
            ts.enabled = False

        def state():
            return (len(ts._pending_ar), ts.outstanding_reads, ts.faulted,
                    len(link.ar), out_ar.pushed_total, ts.fault_stats.trips)

        before = state()
        sim.run(50)                 # far past the armed watchdog deadline
        assert state() == before
        assert before[:4] == (1, 1, False, 1)


class TestConfigValidation:
    def test_invalid_nominal(self):
        with pytest.raises(ConfigurationError):
            PortConfig(nominal_burst=0).validate()

    def test_invalid_outstanding(self):
        with pytest.raises(ConfigurationError):
            PortConfig(max_outstanding=0).validate()

    def test_negative_budget(self):
        with pytest.raises(ConfigurationError):
            PortConfig(budget=-1).validate()
