"""Isolation at scale: oracle cost per domain count under fault storms.

The tenant-isolation tentpole claims containment stays graceful as the
domain count grows: dozens of tenants, several simultaneously faulted,
healthy tenants bit-identical to their fault-free baseline.  This bench
measures what that verification costs — full oracle-stack evaluation
(reference kernel, fast kernel, the fault-free baseline twin on the fast
kernel, and the isolation checks) of a mixed fault storm at 8, 16, 32
and 64 domains — and gates the scaling
shape: simulated cycles/sec through the 64-domain storm must stay within
an order of magnitude of the 8-domain rate (per-port work is constant,
so the kernel must not degrade super-linearly with tenant count).
"""

import time

from repro.verify import DEFAULT_CHECKS, evaluate_scenario
from repro.verify.paramspace import compile_isolation

from conftest import publish, wall_ms

DOMAIN_COUNTS = (8, 16, 32, 64)
N_FAULTED = {8: 2, 16: 4, 32: 8, 64: 8}
#: 64-domain cycles/sec floor relative to the 8-domain rate
SCALING_FLOOR = 0.1


def _storm(n: int):
    return compile_isolation({"n_domains": n, "n_faulted": N_FAULTED[n],
                              "mix": "mixed", "seed": 3,
                              "job_bytes": 256})


def _sweep():
    points = []
    for n in DOMAIN_COUNTS:
        scenario = _storm(n)
        started = time.perf_counter()
        result = evaluate_scenario(scenario, checks=DEFAULT_CHECKS)
        elapsed = time.perf_counter() - started
        points.append({
            "domains": n,
            "faulted": len(scenario.rogue_indices),
            "cycles": result.now,
            "wall_s": elapsed,
            "cycles_per_sec": result.now / elapsed if elapsed else 0.0,
            "tripped": sum(1 for t in result.trips if t),
        })
    return points


def test_isolation_scale(benchmark):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = ["domains   faulted   tripped      cycles     wall s   cyc/s"]
    for p in points:
        rows.append(f"{p['domains']:>7}   {p['faulted']:>7}   "
                    f"{p['tripped']:>7}   {p['cycles']:>9}   "
                    f"{p['wall_s']:>8.2f}   {p['cycles_per_sec']:>9.0f}")
    small, large = points[0], points[-1]
    ratio = (large["cycles_per_sec"] / small["cycles_per_sec"]
             if small["cycles_per_sec"] else 0.0)
    rows.append(f"64-domain throughput is {ratio:.2f}x the 8-domain rate")
    publish("isolation_scale", "\n".join(rows), metrics={
        "wall_ms": wall_ms(benchmark),
        "cycles_per_sec": large["cycles_per_sec"],
        "speedup": None,
        "scaling_ratio_64_over_8": ratio,
        "domains": list(DOMAIN_COUNTS),
    })
    benchmark.extra_info.update({"scaling_ratio_64_over_8": ratio})

    # correctness gates: every storm contains exactly its rogues
    for p in points:
        assert p["tripped"] == p["faulted"], p
    # scaling gate: per-port work is constant, so cycle throughput must
    # not collapse as the tenant count grows
    assert ratio >= SCALING_FLOOR, (
        f"64-domain oracle throughput fell to {ratio:.2f}x of the "
        f"8-domain rate (floor {SCALING_FLOOR}x)")
