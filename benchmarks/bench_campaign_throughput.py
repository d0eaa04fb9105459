"""Campaign throughput: scenarios/sec across worker processes.

The ROADMAP's traffic shape is many independent simulations at
throughput, not one big one — so scenarios/sec through the campaign
runner is a first-class benchmark.  A >= 500-scenario pairwise grid of
deliberately tiny flat scenarios (the registered ``throughput`` grid)
streams through the runner once on 1 worker and once on ``WORKERS``
processes:

* the verdict digests must be identical — parallelism must never change
  results (this is asserted unconditionally, on any machine);
* with >= ``WORKERS`` CPUs available, the multi-process run must clear a
  3x scenarios/sec speedup (asserted only where the hardware can
  physically deliver it; the CI runner qualifies).

The JSON sidecar records both rates, the speedup, and the CPU count so
the perf-smoke baseline compare can gate on them.
"""

from repro.verify import CampaignConfig, grid_scenarios, run_campaign

from conftest import host_cpus, publish, wall_ms

WORKERS = 4
SPEEDUP_FLOOR = 3.0
MIN_SCENARIOS = 500


def _run_pair():
    scenarios, checks = grid_scenarios("throughput")
    assert len(scenarios) >= MIN_SCENARIOS
    config = CampaignConfig(checks=checks, embed_scenario=False)
    serial = run_campaign(scenarios, workers=1, config=config)
    fanned = run_campaign(scenarios, workers=WORKERS, config=config)
    return serial, fanned


def test_campaign_throughput(benchmark):
    serial, fanned = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    cpus = host_cpus()
    speedup = fanned.scenarios_per_sec / serial.scenarios_per_sec

    rows = [
        "workers   scenarios/s      wall s   verdicts",
        f"{1:>7}   {serial.scenarios_per_sec:>11.2f}   "
        f"{serial.wall_s:>9.1f}   {dict(serial.counts)}",
        f"{WORKERS:>7}   {fanned.scenarios_per_sec:>11.2f}   "
        f"{fanned.wall_s:>9.1f}   {dict(fanned.counts)}",
        f"speedup {speedup:.2f}x on {cpus} CPUs "
        f"({len(serial.records)} scenarios, digests "
        + ("identical" if serial.digest == fanned.digest else "DIVERGED")
        + ")",
    ]
    publish("campaign_throughput", "\n".join(rows), metrics={
        "wall_ms": wall_ms(benchmark),
        "cycles_per_sec": None,
        "speedup": speedup,
        "scenarios": len(serial.records),
        "scenarios_per_sec_1w": serial.scenarios_per_sec,
        "scenarios_per_sec_4w": fanned.scenarios_per_sec,
        "cpus": cpus,
        "digests_identical": serial.digest == fanned.digest,
    })
    benchmark.extra_info.update({
        "speedup": speedup, "cpus": cpus,
        "scenarios_per_sec_1w": serial.scenarios_per_sec,
        "scenarios_per_sec_4w": fanned.scenarios_per_sec,
    })

    # correctness gates: every verdict passes, parallelism changes nothing
    assert serial.ok, serial.counts
    assert fanned.ok, fanned.counts
    assert serial.digest == fanned.digest
    # perf gate: only where the hardware can physically deliver it
    if cpus >= WORKERS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{WORKERS}-worker campaign speedup regressed below "
            f"{SPEEDUP_FLOOR}x: {speedup:.2f}x on {cpus} CPUs")
