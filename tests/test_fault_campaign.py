"""Liveness-checked fault-injection campaign for the watchdog subsystem.

Five seeded fault scenarios — a dead slave, a transiently stalled slave,
a master that stops accepting read data, a master that withholds write
data mid-burst, and a master issuing a protocol-illegal burst — run
against watchdog-armed fabrics.  Each scenario asserts the liveness
invariants the containment design promises:

* healthy masters keep making progress and finish their work;
* every transaction a master issued is eventually answered (genuinely
  or with a synthesized error response) unless the master itself refuses
  the answer;
* :class:`~repro.axi.LinkChecker` monitors stay clean on every
  port whose master keeps responding;
* the reference and fast kernel paths produce bit-identical outcomes,
  event logs included.

The recovery layer is exercised end-to-end: transient faults (stalled
slave, withheld writes) are automatically reset and re-coupled, while
unrecoverable ones (dead slave, hung reader) exhaust their retry budget
and stay quarantined.
"""

import pytest

from repro.analysis import ContainmentBound
from repro.axi import LinkChecker
from repro.axi.port import AxiLink
from repro.hyperconnect import HyperConnect
from repro.hypervisor import Hypervisor, RecoveryPolicy
from repro.masters import AxiDma, FaultInjectingMaster
from repro.memory import FaultInjectingMemory, MemorySubsystem
from repro.platforms import ZCU102
from repro.sim import Simulator, Tracer
from repro.sim.errors import ConfigurationError
from repro.sim.events import PortFaultEvent, PortRecoveryEvent

TIMEOUT = 400
#: short leash so unrecoverable scenarios give up inside the test window
POLICY = RecoveryPolicy(max_retries=2, backoff_cycles=256, backoff_factor=2)


def build(fast, n_ports=2, memory_cls=MemorySubsystem, memory_kwargs=None,
          recovery=True, policy=POLICY, shares=None, timeout=TIMEOUT):
    """A watchdog-armed HyperConnect system under hypervisor control."""
    sim = Simulator("campaign", clock_hz=ZCU102.pl_clock_hz, fast=fast)
    link = AxiLink(sim, "m", data_bytes=16)
    hc = HyperConnect(sim, "hc", n_ports, link)
    memory = memory_cls(sim, "mem", link, timing=ZCU102.dram,
                        **(memory_kwargs or {}))
    hv = Hypervisor(hc)
    hv.default_recovery_policy = policy
    if timeout is not None:
        for port in range(n_ports):
            hv.driver.set_watchdog_timeout(port, timeout)
    if shares:
        hv.driver.set_bandwidth_shares(shares, period=2048)
    if recovery:
        hv.enable_fault_recovery()
    return sim, hc, hv, memory


def fingerprint(sim, hc, engines):
    """Everything observable: traffic, events, fault stats, elapsed time."""
    return (
        tuple((engine.name, engine.bytes_read, engine.bytes_written,
               len(engine.jobs_completed), engine.error_responses,
               engine.outstanding)
              for engine in engines),
        tuple(sim.events.as_dicts()),
        tuple(tuple(sorted(s.fault_stats.as_dict().items()))
              for s in hc.supervisors),
        sim.now,
    )


def recoveries(sim, kind):
    return [e for e in sim.events.events(PortRecoveryEvent)
            if e.kind == kind]


def both(run):
    """Run a scenario (asserts included) on both kernel paths."""
    reference, fast = run(fast=False), run(fast=True)
    assert reference == fast
    return reference


class TestWatchdogConfig:
    """Arming, disarming, and the disarmed-by-default contract."""

    def test_watchdog_disarmed_by_default(self):
        __, hc, hv, __ = build(fast=False, recovery=False, timeout=None)
        for port in range(hc.n_ports):
            assert hv.driver.watchdog_timeout(port) is None
            assert hc.supervisors[port].config.timeout_cycles is None

    def test_timeout_register_roundtrip(self):
        __, hc, hv, __ = build(fast=False, recovery=False, timeout=None)
        hv.driver.set_watchdog_timeout(0, 123)
        assert hv.driver.watchdog_timeout(0) == 123
        assert hc.supervisors[0].config.timeout_cycles == 123
        hv.driver.set_watchdog_timeout(0, None)
        assert hv.driver.watchdog_timeout(0) is None
        assert hc.supervisors[0].config.timeout_cycles is None
        with pytest.raises(ConfigurationError):
            hv.driver.set_watchdog_timeout(0, -1)
        with pytest.raises(ConfigurationError):
            hv.driver.set_watchdog_timeout(9, 100)

    def test_armed_watchdog_preserves_healthy_behaviour(self):
        """With well-behaved traffic the armed fabric must be cycle-exact
        against the disarmed one, on both kernel paths."""
        def run(fast, timeout):
            sim, hc, hv, __ = build(fast=fast, timeout=timeout)
            checkers = [LinkChecker(hc.port(port)) for port in range(2)]
            a = AxiDma(sim, "a", hc.port(0))
            b = AxiDma(sim, "b", hc.port(1))
            a.enqueue_read(0x1000_0000, 8192)
            a.enqueue_write(0x1100_0000, 4096)
            b.enqueue_copy(0x2000_0000, 0x2800_0000, 4096)
            sim.run_until(lambda: not (a.busy or b.busy),
                          max_cycles=100_000)
            sim.run(256)
            assert sim.events.log == []
            assert all(s.fault_stats.trips == 0 for s in hc.supervisors)
            for checker in checkers:
                checker.assert_clean()
            return fingerprint(sim, hc, (a, b))

        armed_reference = run(fast=False, timeout=TIMEOUT)
        armed_fast = run(fast=True, timeout=TIMEOUT)
        disarmed = run(fast=False, timeout=None)
        assert armed_reference == armed_fast
        assert armed_reference == disarmed

    def test_armed_watchdog_keeps_fast_path_skipping(self):
        """Watchdog deadlines must bound frozen horizons, not kill them."""
        sim, hc, __, __ = build(fast=True)
        dma = AxiDma(sim, "dma", hc.port(0))
        job = dma.enqueue_read(0x1000_0000, 1024)
        sim.run_until(lambda: job.completed is not None, max_cycles=50_000)
        sim.run(512)
        assert sim.skip_stats.ticks_skipped > 0


class TestFaultCampaign:
    """The five seeded scenarios, each on both kernel paths."""

    @pytest.mark.parametrize("shares", (None, {0: 0.5, 1: 0.5}),
                             ids=("free-for-all", "fig5-shares"))
    def test_dead_slave_contained_and_abandoned(self, shares):
        """Scenario 1: the memory goes permanently silent mid-run.

        Both ports trip, every issued transaction is answered with a
        synthesized error, and — because a port wedged on a dead slave
        can never drain — recovery exhausts its retries and leaves both
        ports quarantined.
        """
        def run(fast):
            sim, hc, hv, __ = build(
                fast=fast, memory_cls=FaultInjectingMemory,
                memory_kwargs={"dead_after_beats": 64, "seed": 3},
                shares=shares)
            tracer = Tracer(limit=None)
            sim.events.attach_tracer(tracer)
            a = AxiDma(sim, "a", hc.port(0))
            b = AxiDma(sim, "b", hc.port(1))
            for index in range(4):
                a.enqueue_read(0x1000_0000 + index * 0x1_0000, 2048)
                b.enqueue_read(0x2000_0000 + index * 0x1_0000, 2048)
            sim.run(20_000)
            # Liveness: every transaction a master *issued* was answered
            # (with synthesized errors).  Work still queued behind the
            # quarantined port stays parked — the gate holds READY low,
            # exactly the paper's decoupling semantics.
            for engine in (a, b):
                assert engine.outstanding == 0
                assert engine.error_responses > 0
                assert engine.jobs_completed
            for port in (0, 1):
                supervisor = hc.supervisors[port]
                assert supervisor.fault_stats.watchdog_trips == 1
                assert supervisor.fault_stats.synth_r_beats > 0
                assert hv.driver.faults(port) == 1
                assert not hv.driver.is_coupled(port)
            assert hv.quarantined == {0, 1}
            assert hv.recovery.gave_up == {0, 1}
            faults = sim.events.events(PortFaultEvent)
            assert sorted(e.port for e in faults) == [0, 1]
            assert all(e.kind == "watchdog_timeout" for e in faults)
            assert all(e.age == TIMEOUT for e in faults)
            assert len(recoveries(sim, "giveup")) == 2
            assert not recoveries(sim, "recouple")
            assert len(tracer.events(kind="watchdog_timeout")) == 2
            return fingerprint(sim, hc, (a, b))

        both(run)

    def test_stalled_slave_trips_then_recovers(self):
        """Scenario 2: the memory freezes for 800 cycles, then revives.

        The watchdog contains both ports during the freeze; once the
        slave is back the contained ports drain, and the recovery agent
        resets and re-couples them.  Fresh work then completes cleanly.
        """
        policy = RecoveryPolicy(max_retries=4, backoff_cycles=256,
                                backoff_factor=2)

        def run(fast):
            sim, hc, hv, __ = build(
                fast=fast, memory_cls=FaultInjectingMemory,
                memory_kwargs={"freeze_window": (1500, 2300)},
                policy=policy)
            checkers = [LinkChecker(hc.port(port)) for port in range(2)]
            a = AxiDma(sim, "a", hc.port(0))
            b = AxiDma(sim, "b", hc.port(1))
            for index in range(6):
                a.enqueue_read(0x1000_0000 + index * 0x1_0000, 4096)
                b.enqueue_read(0x2000_0000 + index * 0x1_0000, 4096)
            sim.run_until(lambda: len(recoveries(sim, "recouple")) >= 2,
                          max_cycles=60_000)
            assert len(recoveries(sim, "recouple")) >= 2
            assert hv.quarantined == set()
            for port in (0, 1):
                assert hv.driver.is_coupled(port)
                assert hc.supervisors[port].fault_stats.watchdog_trips == 1
            errors_before = (a.error_responses, b.error_responses)
            fresh = [a.enqueue_read(0x1800_0000, 2048),
                     b.enqueue_write(0x2800_0000, 2048)]
            sim.run_until(
                lambda: all(job.completed is not None for job in fresh),
                max_cycles=20_000)
            assert (a.error_responses, b.error_responses) == errors_before
            for engine in (a, b):
                assert engine.outstanding == 0
                assert not engine.busy
            for checker in checkers:
                checker.assert_clean()
            return fingerprint(sim, hc, (a, b))

        both(run)

    @pytest.mark.parametrize("topology",
                             ("fig3a", "fig5-shares", "fig4-3port"))
    def test_hung_read_master_bounded_interference(self, topology):
        """Scenario 3: a master stops accepting R beats mid-burst.

        The rogue's backpressure stalls the shared return path until the
        watchdog decouples it; from then on the EXBAR drops its beats and
        the healthy masters finish within a bounded delay of their
        rogue-free baseline.  The rogue never drains (it refuses its own
        completions), so recovery gives up and quarantines it for good.
        """
        n_ports = 3 if topology == "fig4-3port" else 2
        shares = {0: 0.5, 1: 0.5} if topology == "fig5-shares" else None

        def run(fast, rogue_active):
            sim, hc, hv, __ = build(fast=fast, n_ports=n_ports,
                                    shares=shares)
            checker = LinkChecker(hc.port(0))
            healthy = [AxiDma(sim, f"h{port}", hc.port(port))
                       for port in range(n_ports - 1)]
            rogue_port = n_ports - 1
            # A watchdog cannot tell victim from culprit: while the rogue
            # clogs the shared return path, the victims' transactions age
            # too.  Timeouts are therefore per port, and a healthy port's
            # must exceed a neighbour's worst-case containment latency
            # (the neighbour's timeout plus the post-trip drain).
            for port in range(n_ports - 1):
                hv.driver.set_watchdog_timeout(port, 4 * TIMEOUT)
            rogue = FaultInjectingMaster(sim, "rogue", hc.port(rogue_port),
                                         fault_mode="hung_r",
                                         hang_after_beats=(8, 24), seed=5)
            for engine in healthy:
                for index in range(6):
                    engine.enqueue_read(0x1000_0000 + index * 0x1_0000,
                                        4096)
            if rogue_active:
                rogue.enqueue_read(0x3000_0000, 8192)
            sim.run_until(
                lambda: all(not engine.busy for engine in healthy),
                max_cycles=120_000)
            done_at = sim.now
            sim.run(4000)  # let recovery exhaust its retry budget
            for engine in healthy:
                assert len(engine.jobs_completed) == 6
                assert engine.error_responses == 0
                assert engine.outstanding == 0
            checker.assert_clean()
            if rogue_active:
                assert rogue.is_hung
                supervisor = hc.supervisors[rogue_port]
                assert supervisor.fault_stats.watchdog_trips == 1
                assert hc.exbar.dropped_beats > 0
                assert not hv.driver.is_coupled(rogue_port)
                assert rogue_port in hv.recovery.gave_up
                assert recoveries(sim, "giveup")
            return fingerprint(sim, hc, healthy + [rogue]), done_at

        __, baseline_done = run(fast=False, rogue_active=False)
        reference, reference_done = run(fast=False, rogue_active=True)
        fast_result, fast_done = run(fast=True, rogue_active=True)
        assert reference == fast_result
        assert reference_done == fast_done
        # the analytic containment bound, not a magic slack: the healthy
        # ports' extra delay is capped by detection + drain + refill
        # (+ one reservation period when shares are armed)
        bound = ContainmentBound(
            n_ports=n_ports, nominal_burst=16, memory=ZCU102.dram,
            timeout_cycles=TIMEOUT,
            period=2048 if shares else None)
        assert (reference_done - baseline_done
                <= bound.healthy_port_delay_bound())

    def test_withheld_write_master_cured_by_reset(self):
        """Scenario 4: a master stops supplying W beats mid-burst.

        The EXBAR flushes null W beats so the shared write path drains,
        the orphaned write completes with a synthesized error, and —
        since the port drains fully — recovery resets the accelerator
        (curing the transient fault) and re-couples the port.
        """
        def run(fast):
            sim, hc, hv, __ = build(fast=fast)
            # the victim port rides out the culprit's containment window
            # (same per-port sizing rule as the hung-reader scenario)
            hv.driver.set_watchdog_timeout(0, 4 * TIMEOUT)
            healthy = AxiDma(sim, "healthy", hc.port(0))
            rogue = FaultInjectingMaster(sim, "rogue", hc.port(1),
                                         fault_mode="withheld_w",
                                         hang_after_beats=12, seed=7)
            guest = hv.create_domain("guest")
            guest.ports.append(1)
            hv.attach_accelerator("guest", 1, rogue)
            for index in range(4):
                healthy.enqueue_read(0x1000_0000 + index * 0x1_0000, 4096)
            rogue.enqueue_write(0x3000_0000, 1024)
            sim.run_until(lambda: len(recoveries(sim, "recouple")) >= 1,
                          max_cycles=60_000)
            assert hv.driver.is_coupled(1)
            assert 1 not in hv.quarantined
            supervisor = hc.supervisors[1]
            assert supervisor.fault_stats.watchdog_trips == 1
            assert supervisor.fault_stats.synth_b_beats >= 1
            assert hc.exbar.flush_beats > 0
            assert rogue.fault_mode == "none"  # reset cured the fault
            assert not rogue.is_hung
            errors_before = rogue.error_responses
            assert errors_before >= 1  # the orphaned write got its SLVERR
            job = rogue.enqueue_write(0x3000_4000, 512)
            sim.run_until(lambda: job.completed is not None,
                          max_cycles=20_000)
            assert rogue.error_responses == errors_before
            sim.run_until(lambda: not healthy.busy, max_cycles=60_000)
            assert len(healthy.jobs_completed) == 4
            assert healthy.error_responses == 0
            sim.run(256)
            return fingerprint(sim, hc, (healthy, rogue))

        both(run)

    def test_illegal_burst_rejected_at_ingest(self):
        """Scenario 5: a master issues a burst straddling a 4 KiB page.

        The ingest-time protocol guard trips before the request reaches
        the shared path: the rogue's burst is answered with DECERR and
        the healthy master's completion time is *exactly* its rogue-free
        baseline — zero interference, not merely bounded.
        """
        def run(fast, rogue_active):
            sim, hc, hv, __ = build(fast=fast, recovery=False)
            checker = LinkChecker(hc.port(0))
            healthy = AxiDma(sim, "healthy", hc.port(0))
            rogue = FaultInjectingMaster(sim, "rogue", hc.port(1),
                                         fault_mode="illegal_burst")
            for index in range(4):
                healthy.enqueue_read(0x1000_0000 + index * 0x1_0000, 4096)
            bad = None
            if rogue_active:
                # 16 beats x 16 B from 0xF80 crosses the 4 KiB boundary
                bad = rogue.enqueue_read(0x0F80, 256)
            sim.run_until(lambda: not healthy.busy, max_cycles=60_000)
            done_at = sim.now
            sim.run(1024)
            assert healthy.error_responses == 0
            checker.assert_clean()
            if rogue_active:
                supervisor = hc.supervisors[1]
                assert supervisor.fault_stats.protocol_trips == 1
                events = sim.events.events(PortFaultEvent, port=1)
                assert [e.kind for e in events] == ["protocol_violation"]
                assert bad.completed is not None  # answered, with DECERR
                assert rogue.error_responses >= 16
                assert rogue.outstanding == 0
                assert not rogue.busy
                assert not hv.driver.is_coupled(1)
                assert hv.driver.faults(1) == 1
            return fingerprint(sim, hc, (healthy, rogue)), done_at

        __, baseline_done = run(fast=False, rogue_active=False)
        reference, reference_done = run(fast=False, rogue_active=True)
        fast_result, fast_done = run(fast=True, rogue_active=True)
        assert reference == fast_result
        assert reference_done == fast_done
        assert reference_done == baseline_done


class TestIsolationContrast:
    """The paper's case for hypervisor-level containment: the
    SmartConnect baseline has no watchdog, so a hung master starves its
    healthy neighbour; the HyperConnect's Transaction Supervisor contains
    the fault and the neighbour finishes error-free."""

    @pytest.mark.parametrize("fault_mode", ["hung_r", "withheld_w"])
    def test_healthy_dma_behind_a_hung_master(self, fault_mode):
        from repro.smartconnect import SmartConnect

        def run(fast, fabric):
            if fabric == "hc":
                sim, hc, hv, __ = build(fast, timeout=None)
                hv.driver.set_watchdog_timeout(1, TIMEOUT)
                ports = hc.ports
            else:
                sim = Simulator("sc", clock_hz=ZCU102.pl_clock_hz, fast=fast)
                link = AxiLink(sim, "m", data_bytes=16)
                ports = SmartConnect(sim, "sc", 2, link).ports
                MemorySubsystem(sim, "mem", link, timing=ZCU102.dram)
            rogue = FaultInjectingMaster(sim, "rogue", ports[1],
                                         fault_mode=fault_mode,
                                         hang_after_beats=8)
            if fault_mode == "hung_r":
                rogue.enqueue_read(0x3000_0000, 8192)
            else:
                rogue.enqueue_write(0x3000_0000, 8192)
            sim.run(200)
            healthy = AxiDma(sim, "healthy", ports[0])
            for index in range(4):
                healthy.enqueue_read(0x1000_0000 + index * 0x1_0000, 4096)
                healthy.enqueue_write(0x2000_0000 + index * 0x1_0000, 4096)
            sim.run(60_000)
            if fabric == "hc":
                events = sim.events.events(PortFaultEvent, port=1)
                assert events[0].kind == "watchdog_timeout"
            return (len(healthy.jobs_completed), healthy.error_responses,
                    healthy.bytes_read, healthy.bytes_written,
                    tuple(sim.events.as_dicts()), sim.now)

        for fabric, jobs in (("sc", 0), ("hc", 8)):
            reference = run(False, fabric)
            assert reference == run(True, fabric)
            assert reference[:2] == (jobs, 0)
