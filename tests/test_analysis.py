"""Tests for the closed-form analysis — including bound-vs-simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AccessTimeModel,
    HyperConnectWcrt,
    InterferenceModel,
    ReservationAnalysis,
    bandwidth_fraction,
    hyperconnect_propagation,
    improvement,
    interfering_transactions,
    read_propagation,
    smartconnect_propagation,
    supply_transactions,
    transaction_service_cycles,
    wcrt_transactions,
    worst_case_grant_delay,
    write_propagation,
)
from repro.masters import AxiDma, GreedyTrafficGenerator
from repro.platforms import ZCU102
from repro.system import SocSystem
from repro.verify import PortPlan, Scenario, build_system, run_scenario
from repro.verify.scenario import job_address

from conftest import drain


class TestPropagation:
    def test_hyperconnect_values(self):
        latencies = hyperconnect_propagation()
        assert latencies == {"AR": 4, "AW": 4, "R": 2, "W": 2, "B": 2}

    def test_smartconnect_values(self):
        latencies = smartconnect_propagation()
        assert latencies == {"AR": 12, "AW": 12, "R": 11, "W": 3, "B": 2}

    def test_paper_improvement_percentages(self):
        hc = hyperconnect_propagation()
        sc = smartconnect_propagation()
        assert improvement(sc["AR"], hc["AR"]) == pytest.approx(0.666, abs=0.01)
        assert improvement(sc["R"], hc["R"]) == pytest.approx(0.818, abs=0.01)
        assert improvement(sc["W"], hc["W"]) == pytest.approx(0.333, abs=0.01)
        assert improvement(sc["B"], hc["B"]) == 0.0
        # read transaction: 74 %, write transaction: ~41 % (paper values)
        assert improvement(read_propagation(sc),
                           read_propagation(hc)) == pytest.approx(0.739,
                                                                  abs=0.01)
        assert improvement(write_propagation(sc),
                           write_propagation(hc)) >= 0.40

    def test_access_time_model_matches_simulation(self):
        model = AccessTimeModel(hyperconnect_propagation(), ZCU102.dram)
        for beats in (1, 16):
            soc = SocSystem.build(ZCU102, n_ports=2)
            dma = AxiDma(soc.sim, "dma", soc.port(0))
            job = dma.enqueue_read(0x0, beats * 16)
            drain(soc)
            assert job.latency == model.read_access_cycles(beats)

    def test_streaming_model_close_to_simulation(self):
        model = AccessTimeModel(hyperconnect_propagation(), ZCU102.dram)
        soc = SocSystem.build(ZCU102, n_ports=2)
        dma = AxiDma(soc.sim, "dma", soc.port(0))
        job = dma.enqueue_read(0x0, 16384)
        drain(soc)
        predicted = model.streaming_cycles(1024, 16, outstanding=8)
        assert job.latency == pytest.approx(predicted, rel=0.05)

    def test_improvement_validation(self):
        with pytest.raises(ValueError):
            improvement(0, 1)


class TestInterference:
    def test_fixed_granularity_bound(self):
        assert interfering_transactions(4, 1) == 3

    def test_variable_granularity_bound(self):
        assert interfering_transactions(4, 8) == 24

    def test_service_cycles(self):
        assert transaction_service_cycles(16) == 17

    def test_grant_delay_composition(self):
        delay = worst_case_grant_delay(3, 2, 16)
        assert delay == 2 * 2 * 17

    def test_model_ratio_greater_than_one(self):
        model = InterferenceModel(n_ports=2)
        assert model.bound_ratio() > 1.0
        assert model.hyperconnect_bound() < model.baseline_bound()

    def test_single_port_no_interference(self):
        assert interfering_transactions(1, 8) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            interfering_transactions(0)
        with pytest.raises(ValueError):
            transaction_service_cycles(0)

    def test_simulated_interference_within_bound(self):
        """One transaction under full contention never exceeds the bound."""
        soc = SocSystem.build(ZCU102, n_ports=2)
        GreedyTrafficGenerator(soc.sim, "noise", soc.port(1),
                               job_bytes=65536, depth=4)
        soc.sim.run(5000)   # interferer at full tilt
        dma = AxiDma(soc.sim, "victim", soc.port(0))
        job = dma.enqueue_read(0x0, 256)   # one equalized transaction
        soc.sim.run_until(lambda: job.completed is not None,
                          max_cycles=100_000)
        bound = HyperConnectWcrt(2, 16, ZCU102.dram).job_bound_cycles(16)
        assert job.latency <= bound
        # ... and the bound is not absurdly loose (within ~4x)
        assert bound < 4 * job.latency


class TestReservation:
    def test_bandwidth_fraction(self):
        assert bandwidth_fraction(32, 1024, 16) == 0.5

    def test_infeasible_reservation_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_fraction(100, 1024, 16)

    def test_supply_blackout(self):
        assert supply_transactions(8, 1000, 1000) == 0
        assert supply_transactions(8, 1000, 2000) == 8
        assert supply_transactions(8, 1000, 3500) == 16

    def test_wcrt_single_transaction(self):
        assert wcrt_transactions(1, 4, 1000, 16) == 1000 + 16

    def test_wcrt_multiple_periods(self):
        # 10 transactions at 4/period: 2 full periods + 2 remaining
        assert wcrt_transactions(10, 4, 1000, 16) == 1000 + 2000 + 2 * 16

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 64), budget=st.integers(1, 16),
           period=st.integers(100, 2000))
    def test_wcrt_dominates_brute_force(self, m, budget, period):
        """The closed form must dominate an exact worst-case replay.

        Brute-force model: the stream arrives right after a recharge was
        fully consumed; thereafter each period serves `budget`
        transactions back-to-back at its start.
        """
        service = 16
        if budget * service > period:
            return  # infeasible configurations are rejected elsewhere
        completed = 0
        time = period  # blackout
        while completed < m:
            served = min(budget, m - completed)
            time += served * service
            completed += served
            if completed < m:
                time += period - served * service
        assert wcrt_transactions(m, budget, period, service) >= time

    def test_analysis_bundle(self):
        analysis = ReservationAnalysis(budget=32, period=1024,
                                       nominal_burst=16)
        assert analysis.fraction == 0.5
        assert analysis.guaranteed_bytes(3 * 1024, 16) == 2 * 32 * 256
        assert analysis.wcrt_bytes(256 * 16, 16) > 0

    def test_for_share_matches_driver_formula(self):
        analysis = ReservationAnalysis.for_share(0.7, 2048, 16)
        assert analysis.budget == int(0.7 * 2048 / 16)

    def test_simulated_transfer_meets_wcrt_bound(self):
        """A reserved port's job finishes within the analytic WCRT."""
        period = 1024
        soc = SocSystem.build(ZCU102, n_ports=2, period=period)
        GreedyTrafficGenerator(soc.sim, "noise", soc.port(1),
                               job_bytes=65536, depth=4)
        soc.driver.set_budget(0, 16)
        soc.sim.run(2 * period)   # budget active, interferer saturating
        dma = AxiDma(soc.sim, "victim", soc.port(0))
        nbytes = 64 * 256         # 64 sub-transactions
        job = dma.enqueue_read(0x0, nbytes)
        wcrt = HyperConnectWcrt(2, 16, ZCU102.dram, budget=16,
                                period=period)
        bound = wcrt.job_bound_bytes(nbytes, 16)
        soc.sim.run(bound + 10_000)
        assert job.completed is not None
        assert job.latency <= bound


class TestHyperConnectWcrt:
    def test_unreserved_bound_linear_in_size(self):
        wcrt = HyperConnectWcrt(2, 16, ZCU102.dram)
        small = wcrt.job_bound_cycles(16)
        large = wcrt.job_bound_cycles(160)
        assert large > small
        assert large - small == 9 * (wcrt.job_bound_cycles(32) - small)

    def test_reserved_bound_at_least_unreserved(self):
        base = HyperConnectWcrt(2, 16, ZCU102.dram)
        reserved = HyperConnectWcrt(2, 16, ZCU102.dram, budget=1,
                                    period=4096)
        assert (reserved.job_bound_cycles(256)
                >= base.job_bound_cycles(256))

    def test_more_ports_larger_bound(self):
        two = HyperConnectWcrt(2, 16, ZCU102.dram)
        eight = HyperConnectWcrt(8, 16, ZCU102.dram)
        assert eight.job_bound_cycles(256) > two.job_bound_cycles(256)

    def test_validation(self):
        wcrt = HyperConnectWcrt(2, 16, ZCU102.dram)
        with pytest.raises(ValueError):
            wcrt.job_bound_cycles(0)
        with pytest.raises(ValueError):
            wcrt.job_bound_bytes(0, 16)
        for kwargs in (dict(n_ports=0), dict(nominal_burst=0),
                       dict(interferer_outstanding=-1),
                       dict(budget=10), dict(period=1024),
                       dict(budget=0, period=1024),
                       dict(budget=10, period=0)):
            with pytest.raises(ValueError):
                HyperConnectWcrt(**{"n_ports": 2, "nominal_burst": 16,
                                    "memory": ZCU102.dram, **kwargs})


class TestWcrtReproducer:
    """A reserved port whose completion broke a one-sided backlog term.

    Six flat ports with asymmetric shares and period 128 give port 5 a
    budget of 1; the other ports run mixed reads, writes and copies.
    Port 5's one 1 KiB write is its only job, so the port-level bound
    is the job's own bound.  It completes at cycle 1542, past the 1318
    a backlog of ``interferer_outstanding`` transactions per competitor
    gave: a TS admits that many reads and as many writes, and the
    in-order memory queues both.
    """

    SHARES = (0.308, 0.022, 0.132, 0.396, 0.044, 0.088)
    PERIOD = 128
    JOBS = (
        (("read", 256), ("copy", 8192), ("copy", 4096)),
        (("read", 8192), ("write", 4096), ("copy", 256)),
        (("write", 64), ("copy", 4096)),
        (("copy", 4096), ("read", 64), ("copy", 4096)),
        (("write", 4096), ("write", 4096), ("read", 4096)),
        (("write", 1024),),
    )

    def scenario(self):
        ports = tuple(
            PortPlan(jobs=tuple((kind, job_address(port, index), nbytes)
                                for index, (kind, nbytes)
                                in enumerate(jobs)))
            for port, jobs in enumerate(self.JOBS))
        return Scenario("flat", ports, shares=self.SHARES,
                        period=self.PERIOD)

    def bound(self):
        return HyperConnectWcrt(
            6, 16, ZCU102.dram, budget=1, period=self.PERIOD,
            interferer_outstanding=8).job_bound_bytes(1024, 16,
                                                      is_read=False)

    def test_setup_reserves_one_sub_transaction_for_port_5(self):
        system = build_system(self.scenario(), fast=True)
        assert system.fabrics[0].configs[5].budget == 1
        done = [run_scenario(self.scenario(), fast=fast).done_cycles[5]
                for fast in (False, True)]
        assert done[0] is not None and done[0] == done[1]

    def test_port_5_completes_within_its_bound(self):
        result = run_scenario(self.scenario(), fast=True)
        assert result.done_cycles[5] <= self.bound()
