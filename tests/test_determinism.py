"""Determinism guarantees of the whole stack.

The kernel's registered channel timing promises that results do not
depend on the order components were registered (= tick order), and that
identical configurations produce bit-identical outcomes.  These tests
check those claims on full systems, not just toy pipelines — they are
what makes every number in EXPERIMENTS.md exactly reproducible.
"""

import pytest
from conftest import run_with_arrivals, seeded_arrivals

from repro.masters import (
    AxiDma,
    ChaiDnnAccelerator,
    GreedyTrafficGenerator,
)
from repro.platforms import ZCU102
from repro.system import SocSystem


def _signature(*engines):
    """Order-insensitive fingerprint of what every engine experienced."""
    return tuple(
        (engine.name, engine.bytes_read, engine.bytes_written,
         len(engine.jobs_completed),
         engine.read_latency.count, engine.read_latency.mean,
         engine.write_latency.count, engine.write_latency.mean)
        for engine in engines)


class TestRunToRunDeterminism:
    def test_identical_contention_runs_match_exactly(self):
        def run():
            soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
            a = GreedyTrafficGenerator(soc.sim, "a", soc.port(0),
                                       job_bytes=8192, depth=3)
            b = GreedyTrafficGenerator(soc.sim, "b", soc.port(1),
                                       job_bytes=4096, burst_len=64,
                                       depth=2)
            soc.driver.set_bandwidth_shares({0: 0.6, 1: 0.4})
            soc.sim.run(60_000)
            return _signature(a, b)

        assert run() == run()

    def test_case_study_deterministic(self):
        def run():
            soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
            dnn = ChaiDnnAccelerator(soc.sim, "dnn", soc.port(0),
                                     scale=1 / 128)
            dma = AxiDma(soc.sim, "dma", soc.port(1))
            dnn.start()
            dma.enqueue_read(0x0, 65536)
            soc.sim.run(80_000)
            return (_signature(dnn, dma), dnn.frames_completed)

        assert run() == run()

    def test_seeded_random_traffic_deterministic(self):
        def run():
            soc = SocSystem.build(ZCU102, n_ports=2)
            dma = AxiDma(soc.sim, "r", soc.port(0))
            run_with_arrivals(soc.sim, 40_000, seeded_arrivals(
                dma, seed=99, horizon=40_000, probability=0.005))
            return _signature(dma)

        assert run() == run()


class TestRegistrationOrderIndependence:
    def test_master_construction_order_is_irrelevant(self):
        def run(swap):
            soc = SocSystem.build(ZCU102, n_ports=2, period=2048)
            if swap:
                b = GreedyTrafficGenerator(soc.sim, "b", soc.port(1),
                                           job_bytes=4096, depth=2)
                a = GreedyTrafficGenerator(soc.sim, "a", soc.port(0),
                                           job_bytes=8192, depth=3)
            else:
                a = GreedyTrafficGenerator(soc.sim, "a", soc.port(0),
                                           job_bytes=8192, depth=3)
                b = GreedyTrafficGenerator(soc.sim, "b", soc.port(1),
                                           job_bytes=4096, depth=2)
            soc.sim.run(60_000)
            return _signature(a, b)

        assert run(False) == run(True)

    def test_probe_attachment_does_not_perturb_results(self):
        """Heisenberg check: monitors must be purely observational."""
        from repro.axi import PropagationProbe
        from repro.system import BusUtilizationMonitor

        def run(instrumented):
            soc = SocSystem.build(ZCU102, n_ports=2)
            if instrumented:
                PropagationProbe(soc.port(0).ar, soc.master_link.ar)
                BusUtilizationMonitor(soc.master_link)
            dma = AxiDma(soc.sim, "dma", soc.port(0))
            job = dma.enqueue_read(0x0, 16384)
            soc.run_until_quiescent()
            return job.latency

        assert run(False) == run(True)
