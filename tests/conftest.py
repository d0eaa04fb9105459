"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.platforms import ZCU102
from repro.sim import Simulator
from repro.system import SocSystem

# Hypothesis budget profiles (select via HYPOTHESIS_PROFILE):
#   dev     — local default; stock example counts, no wall-clock deadline
#             (cycle-accurate runs vary too much for per-example deadlines).
#   ci      — the quick fault-fuzz budget: derandomized so the CI seed set
#             is fixed and every run replays the exact same scenarios.
#             70 examples x 3 fuzz campaigns > the 200-scenario floor.
#   nightly — the deep search budget; fresh randomness every night.
settings.register_profile("dev", deadline=None)
settings.register_profile("ci", max_examples=70, deadline=None,
                          derandomize=True)
settings.register_profile("nightly", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator clocked like the ZCU102 PL."""
    return Simulator("test", clock_hz=ZCU102.pl_clock_hz)


@pytest.fixture
def hc_soc() -> SocSystem:
    """A two-port HyperConnect system on the ZCU102 model."""
    return SocSystem.build(ZCU102, interconnect="hyperconnect", n_ports=2)


@pytest.fixture
def sc_soc() -> SocSystem:
    """A two-port SmartConnect system on the ZCU102 model."""
    return SocSystem.build(ZCU102, interconnect="smartconnect", n_ports=2)


def drain(soc: SocSystem, max_cycles: int = 2_000_000) -> int:
    """Run a system until quiescent; returns elapsed cycles."""
    return soc.run_until_quiescent(max_cycles=max_cycles)


def seeded_arrivals(dma, seed: int, horizon: int, probability: float):
    """A seeded schedule of irregular jobs for ``dma`` before ``horizon``.

    Returns ``(cycle, dma, write, address, nbytes)`` tuples in cycle
    order.  Gaps are about geometric with mean ``1 / probability``
    cycles; each job reads or writes 64 B - 4 KiB (whole 16 B beats) at
    a random 4 KiB page of the 16 MiB window at 0x6000_0000.
    """
    rng = random.Random(seed)
    schedule = []
    cycle = 1 + int(rng.expovariate(probability))
    while cycle < horizon:
        nbytes = 64 + 16 * rng.randrange((4096 - 64) // 16 + 1)
        address = 0x6000_0000 + 4096 * rng.randrange(4096)
        schedule.append((cycle, dma, rng.random() < 0.5, address, nbytes))
        cycle += 1 + int(rng.expovariate(probability))
    return schedule


def run_with_arrivals(sim, cycles: int, arrivals) -> None:
    """Run ``cycles`` cycles, enqueuing each arrival due on the way.

    ``arrivals`` holds :func:`seeded_arrivals` tuples in cycle order; the
    due ones are consumed in place.  Each job is enqueued between two
    ``sim.run()`` calls at its cycle, so it reaches the master through
    the same wake as any host-side enqueue, frozen fast kernel or not.
    """
    end = sim.now + cycles
    while arrivals and arrivals[0][0] < end:
        cycle, dma, write, address, nbytes = arrivals.pop(0)
        sim.run(cycle - sim.now)
        (dma.enqueue_write if write else dma.enqueue_read)(address, nbytes)
    sim.run(end - sim.now)
