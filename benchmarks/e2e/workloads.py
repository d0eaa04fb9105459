"""The four workloads of the end-to-end benchmark.

A workload is a *pass*: an ordered list of items, each a call into the
public API of ``repro.system``, ``repro.masters`` or ``repro.verify``
that returns an :class:`Outcome`.  The runner (``run.py``) repeats the
pass until its time budget is spent and times every item; it never
looks inside one.

Each workload takes its inputs from ``seed``.  Where the seed draws
inputs (``bursty_ports``, ``campaign``) it permutes a fixed amount of
work — the same job sizes, the same scenario shapes — so runs with
different seeds measure the same cost, not a different workload.  The
paper's experiments have fixed inputs, so ``paper_figures`` and
``tlm_contention`` ignore the seed.

Settings come in two sizes: ``full`` (what the benchmark measures and
what ``golden.json`` was recorded at) and ``quick`` (tiny windows for
the smoke test; golden values are not compared there).
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Outcome:
    """What one item produced."""

    #: JSON-representable simulated observables; must repeat exactly on
    #: every pass of the same inputs
    observable: object
    #: simulated cycles the item advanced (0 where the API does not say)
    cycles: int = 0
    #: checked operations in the item (jobs, campaign records, rows)
    ops: int = 1
    #: problems found while producing the outcome
    failures: List[str] = field(default_factory=list)


Item = Tuple[str, Callable[[], Outcome]]


def _ratio(x: int) -> Dict[int, float]:
    """HC-X-Y bandwidth shares: X % to CHaiDNN (port 0), the rest to DMA."""
    return {0: x / 100, 1: (100 - x) / 100}


def _row(x: int) -> str:
    return f"HC-{x}-{100 - x}"


def _case_observable(result) -> dict:
    return {"fps": result.chaidnn_fps, "dma_rate": result.dma_rate,
            "frames": result.chaidnn_frames, "rounds": result.dma_rounds}


class Workload:
    """Base: settings, the item list of one pass, and output checks."""

    name = ""
    FULL: dict = {}
    QUICK: dict = {}
    #: the packages the items call into, imported during set-up so that
    #: their import cost counts as set-up, not as the first item
    MODULES: Tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.settings = dict(self.QUICK if quick else self.FULL)
        for module in self.MODULES:
            importlib.import_module(module)

    def items(self) -> List[Item]:
        raise NotImplementedError

    def golden_applies(self, golden: Optional[dict]) -> bool:
        """Golden values hold only for the settings they were made at."""
        return golden is not None and golden.get("settings") == self.settings

    def check(self, observed: Dict[str, object],
              golden: Optional[dict]) -> Tuple[int, List[str]]:
        """Cross-item checks on the first pass: (checks made, failures)."""
        return 0, []

    def report(self, observed: Dict[str, object],
               golden: Optional[dict]) -> dict:
        """Derived numbers worth printing next to the metrics."""
        return {}

    def golden_entry(self, observed: Dict[str, object]) -> dict:
        """The ``golden.json`` entry for this workload's observables."""
        return {"settings": self.settings, "observables": observed}


def _compare_golden(observed: Dict[str, object],
                    expected: Dict[str, object]) -> Tuple[int, List[str]]:
    failures = []
    for key, value in expected.items():
        if observed.get(key) != value:
            failures.append(f"{key}: {observed.get(key)!r} != golden "
                            f"{value!r}")
    return len(expected), failures


# ----------------------------------------------------------------------
# paper_figures
# ----------------------------------------------------------------------

class PaperFigures(Workload):
    """Every result of the paper's Section VI, through the library.

    Fig. 3a, 3b, 4, 5 and Table I, called at the library's default
    kernel (the reference path), so a change of default engine shows
    here as users would see it.  The two long-window experiments are
    scaled to fit several passes in one run: the case studies run a
    50k-cycle window at 1/512 workload scale (instead of 400k at 1/64;
    frame and round counts stay in the same range and the Fig. 5 shape
    holds), and the largest Fig. 3b transfer is 256 KiB (instead of
    4 MiB; both are memory-bound streams).
    """

    name = "paper_figures"
    MODULES = ("repro.system", "repro.resources")
    FULL = {"fig3b_sizes": [16, 256, 16384, 262144], "scale_div": 512,
            "window": 50_000, "shares": [90, 70, 50, 30, 10]}
    QUICK = {"fig3b_sizes": [16, 256], "scale_div": 512,
             "window": 4_000, "shares": [90, 10]}

    def items(self) -> List[Item]:
        from repro.resources import (hyperconnect_resources,
                                     smartconnect_resources)
        from repro.system import (measure_access_time,
                                  measure_channel_latencies, run_case_study)

        s = self.settings
        interconnects = ("hyperconnect", "smartconnect")

        def latencies(ic):
            return Outcome(measure_channel_latencies(ic).as_dict())

        def access(ic, nbytes):
            return Outcome(measure_access_time(ic, nbytes))

        def case(interconnect, **kwargs):
            result = run_case_study(interconnect, scale=1 / s["scale_div"],
                                    window_cycles=s["window"], **kwargs)
            return Outcome(_case_observable(result),
                           cycles=result.window_cycles)

        def table1():
            return Outcome({
                name: [e.lut, e.ff, e.bram, e.dsp]
                for name, e in (("hyperconnect", hyperconnect_resources(2)),
                                ("smartconnect", smartconnect_resources(2)))})

        items: List[Item] = []
        for ic in interconnects:
            items.append((f"fig3a.{ic}", lambda ic=ic: latencies(ic)))
        for ic in interconnects:
            for n in s["fig3b_sizes"]:
                items.append((f"fig3b.{ic}.{n}",
                              lambda ic=ic, n=n: access(ic, n)))
        # Fig. 4 (each HA alone); the HyperConnect CHaiDNN and DMA runs
        # are also Fig. 5's isolation references
        for ic in interconnects:
            items.append((f"fig4.chaidnn.{ic}",
                          lambda ic=ic: case(ic, run_dma=False)))
            items.append((f"fig4.dma.{ic}",
                          lambda ic=ic: case(ic, run_chaidnn=False)))
        items.append(("fig5.smartconnect", lambda: case("smartconnect")))
        for x in s["shares"]:
            items.append((f"fig5.{_row(x)}",
                          lambda x=x: case("hyperconnect",
                                           shares=_ratio(x))))
        items.append(("table1", table1))
        return items

    def check(self, observed, golden):
        if not self.golden_applies(golden):
            return 0, []
        return _compare_golden(observed, golden["observables"])


# ----------------------------------------------------------------------
# bursty_ports
# ----------------------------------------------------------------------

#: address layout: port p's sources start at (p + 1) * PORT_STRIDE, one
#: BURST_STRIDE window per burst (64 windows, then reuse), JOB_STRIDE per
#: job; copies land COPY_OFFSET above their source
PORT_STRIDE = 0x100_0000
BURST_STRIDE = 0x1_0000
JOB_STRIDE = 0x4000
COPY_OFFSET = 0x800_0000


class BurstyPorts(Workload):
    """An accelerator duty cycle on 8 HyperConnect ports, fast kernel.

    At the top of every burst window each port's DMA enqueues 1-3 copy
    jobs; the fabric drains the contention, then idles until the next
    burst.  Per port and pass the job counts (16 each of 1, 2 and 3)
    and the job sizes (evenly spread over 256-4096 B) are fixed; the
    seed shuffles which burst gets which, so contention patterns vary
    by seed while the bytes moved do not.  Every job must finish inside
    its own burst window.
    """

    name = "bursty_ports"
    MODULES = ("repro.system", "repro.masters", "repro.platforms")
    FULL = {"ports": 8, "period": 2048, "bursts": 48, "window": 30_000,
            "min_bytes": 256, "max_bytes": 4096, "reference_bursts": 1}
    QUICK = {"ports": 8, "period": 2048, "bursts": 3, "window": 12_000,
             "min_bytes": 256, "max_bytes": 1024, "reference_bursts": 1}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        s = self.settings
        rng = random.Random(seed)
        counts = [1 + b % 3 for b in range(s["bursts"])]
        n_jobs = sum(counts)
        span = s["max_bytes"] - s["min_bytes"]
        sizes = [s["min_bytes"] + span * i // max(1, n_jobs - 1) // 16 * 16
                 for i in range(n_jobs)]
        #: plan[port][burst] -> job sizes in bytes
        self.plan: List[List[List[int]]] = []
        for __ in range(s["ports"]):
            port_counts = counts[:]
            port_sizes = sizes[:]
            rng.shuffle(port_counts)
            rng.shuffle(port_sizes)
            bursts, cursor = [], 0
            for count in port_counts:
                bursts.append(port_sizes[cursor:cursor + count])
                cursor += count
            self.plan.append(bursts)

    def _build(self, fast: bool):
        from repro.masters import AxiDma
        from repro.platforms import ZCU102
        from repro.system import SocSystem

        s = self.settings
        soc = SocSystem.build(ZCU102, n_ports=s["ports"],
                              period=s["period"], fast=fast)
        dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p))
                for p in range(s["ports"])]
        return soc, dmas

    def _burst(self, soc, dmas, burst: int) -> Outcome:
        start = soc.sim.now
        jobs = []
        for port, dma in enumerate(dmas):
            base = (PORT_STRIDE * (port + 1)
                    + BURST_STRIDE * (burst % 64))
            for index, nbytes in enumerate(self.plan[port][burst]):
                source = base + JOB_STRIDE * index
                jobs.append((port, nbytes, dma.enqueue_copy(
                    source, source + COPY_OFFSET, nbytes)))
        soc.sim.run(self.settings["window"])
        failures = []
        done: List[List[Optional[int]]] = [[] for __ in dmas]
        for port, nbytes, job in jobs:
            if job.completed is None:
                failures.append(f"port {port} job of {nbytes} B did not "
                                "finish inside its burst")
                done[port].append(None)
                continue
            if job.read_bytes_done != nbytes or job.write_bytes_done != nbytes:
                failures.append(f"port {port} job moved "
                                f"{job.read_bytes_done}/{job.write_bytes_done}"
                                f" B of {nbytes}")
            done[port].append(job.completed - start)
        for port, dma in enumerate(dmas):
            if dma.error_responses:
                failures.append(f"port {port} saw {dma.error_responses} "
                                "error responses")
        return Outcome(done, cycles=self.settings["window"], ops=len(jobs),
                       failures=failures)

    def items(self) -> List[Item]:
        state = {}

        def build():
            state["soc"], state["dmas"] = self._build(fast=True)
            return Outcome(None, ops=0)

        items: List[Item] = [("build", build)]
        for burst in range(self.settings["bursts"]):
            items.append((f"burst{burst:03d}",
                          lambda b=burst: self._burst(state["soc"],
                                                      state["dmas"], b)))
        return items

    def check(self, observed, golden):
        checks, failures = 0, []
        # the same bursts on the reference kernel must finish on the same
        # cycles: the fast kernel's promise, checked on every seed
        soc, dmas = self._build(fast=False)
        for burst in range(self.settings["reference_bursts"]):
            key = f"burst{burst:03d}"
            checks += 1
            if self._burst(soc, dmas, burst).observable != observed[key]:
                failures.append(f"{key}: fast kernel completion cycles "
                                "differ from the reference kernel")
        if self.golden_applies(golden) and golden["seed"] == self.seed:
            checks += 1
            digest = observable_digest(observed)
            if digest != golden["digest"]:
                failures.append(f"completion-cycle digest {digest[:16]} != "
                                f"golden {golden['digest'][:16]}")
        return checks, failures

    def golden_entry(self, observed):
        return {"settings": self.settings, "seed": self.seed,
                "digest": observable_digest(observed)}


# ----------------------------------------------------------------------
# tlm_contention
# ----------------------------------------------------------------------

class TlmContention(Workload):
    """The Fig. 5 HC-X-Y rows on the transaction-level fast-forward.

    Same traffic as the cycle-accurate Fig. 5 rows (CHaiDNN + greedy
    DMA at 1/64 scale), 800k-cycle windows, ``tlm=True``.  TLM trades
    exactness for speed, so the outputs are checked for engagement and
    for the Fig. 5 shape, and their error against the cycle-accurate
    rows in ``golden.json`` is reported rather than gated.
    """

    name = "tlm_contention"
    MODULES = ("repro.system", "repro.sim.tlm")
    FULL = {"window": 800_000, "shares": [90, 70, 50, 30, 10]}
    QUICK = {"window": 200_000, "shares": [90, 10]}

    def _row(self, x: int, tlm: bool):
        from repro.system import run_case_study

        return run_case_study("hyperconnect", shares=_ratio(x),
                              window_cycles=self.settings["window"],
                              tlm=tlm)

    def items(self) -> List[Item]:
        def row(x):
            result = self._row(x, tlm=True)
            observable = _case_observable(result)
            observable["epochs"] = result.skip_stats["tlm_epochs"]
            failures = []
            if self.settings == self.FULL and not observable["epochs"]:
                failures.append("TLM committed no epoch")
            return Outcome(observable, cycles=result.window_cycles,
                           failures=failures)

        return [(_row(x), lambda x=x: row(x))
                for x in self.settings["shares"]]

    def check(self, observed, golden):
        rows = [observed[_row(x)] for x in self.settings["shares"]]
        failures = []
        if any(r["fps"] <= 0 or r["dma_rate"] <= 0 for r in rows):
            failures.append("a row starved CHaiDNN or the DMA entirely")
        # Fig. 5 shape: shifting share from CHaiDNN to the DMA never
        # raises CHaiDNN's frame rate nor lowers the DMA's round rate
        for a, b in zip(rows, rows[1:]):
            if b["fps"] > a["fps"] or b["dma_rate"] < a["dma_rate"]:
                failures.append("rates are not monotone in the share")
                break
        return 2, failures

    def report(self, observed, golden):
        if not self.golden_applies(golden):
            return {}
        reference = golden["cycle_accurate"]
        errors = {"fps": [], "dma_rate": []}
        for x in self.settings["shares"]:
            tlm, exact = observed[_row(x)], reference[_row(x)]
            for key, values in errors.items():
                values.append(abs(tlm[key] - exact[key]) / exact[key] * 100)
        return {"tlm_fps_err_pct": sum(errors["fps"]) / len(errors["fps"]),
                "tlm_dma_err_pct": (sum(errors["dma_rate"])
                                    / len(errors["dma_rate"]))}

    def golden_entry(self, observed):
        exact = {}
        for x in self.settings["shares"]:
            result = self._row(x, tlm=False)
            exact[_row(x)] = {"fps": result.chaidnn_fps,
                              "dma_rate": result.dma_rate}
        return {"settings": self.settings, "cycle_accurate": exact}


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

#: rogue tenants per isolation storm, as in bench_isolation_scale
STORM_FAULTED = {8: 2, 16: 4, 32: 8, 64: 8}


class Campaign(Workload):
    """Verification campaigns, run inline by the campaign runner.

    Three inputs, each compiled from a registered grid with axes drawn
    from the seed: throughput-grid scenarios (every size x kind, seeded
    address slot), churn-grid scenarios (4 and 8 tenants, revoke and
    regrant, seeded fault mix and timing), and the isolation storms of
    ``bench_isolation_scale`` at 8-64 tenant domains (seeded rogue
    placement).  Every verdict must be ``pass``.
    """

    name = "campaign"
    MODULES = ("repro.verify",)
    FULL = {"throughput_sizes": 24, "kinds": ["read", "write", "copy"],
            "churn_domains": [4, 8], "churn": ["revoke", "regrant"],
            "storm_domains": [8, 16, 32, 64]}
    QUICK = {"throughput_sizes": 2, "kinds": ["read", "copy"],
             "churn_domains": [4], "churn": ["revoke"],
             "storm_domains": [8]}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        from repro.verify import GRIDS

        s = self.settings
        rng = random.Random(seed)
        tput, churn, storm = (GRIDS["throughput"], GRIDS["churn"],
                              GRIDS["isolation"])
        sizes = tput.axes["size"][:s["throughput_sizes"]]
        self.throughput = [
            tput.compile({"slot": rng.choice(tput.axes["slot"]),
                          "size": size, "kind": kind, "n_ports": 2})
            for size in sizes for kind in s["kinds"]]
        rng.shuffle(self.throughput)
        self.churn = [
            churn.compile({"n_domains": n, "n_faulted": 1, "churn": op,
                           "job_bytes": 256,
                           "mix": rng.choice(churn.axes["mix"]),
                           "churn_cycle": rng.choice(
                               churn.axes["churn_cycle"]),
                           "seed": rng.choice(churn.axes["seed"]),
                           "equal_shares": rng.choice(
                               churn.axes["equal_shares"])})
            for n in s["churn_domains"] for op in s["churn"]]
        self.storms = {
            n: storm.compile({"n_domains": n, "n_faulted": STORM_FAULTED[n],
                              "mix": "mixed", "job_bytes": 256,
                              "seed": rng.randrange(1 << 16)})
            for n in s["storm_domains"]}
        self.checks = {"throughput": tput.checks, "churn": churn.checks,
                       "storm": storm.checks}

    @staticmethod
    def _campaign(scenarios, checks) -> Outcome:
        from repro.verify import CampaignConfig, run_campaign

        result = run_campaign(scenarios, workers=1, config=CampaignConfig(
            checks=checks, embed_scenario=False))
        failures = [f"record {r['index']} {r['verdict']}: "
                    f"{r['oracle'] or ''} {r['detail']}"
                    for r in result.records if r["verdict"] != "pass"]
        return Outcome({"digest": result.digest,
                        "counts": dict(sorted(result.counts.items()))},
                       cycles=result.total_cycles, ops=len(result.records),
                       failures=failures)

    def items(self) -> List[Item]:
        items: List[Item] = [
            ("throughput", lambda: self._campaign(
                self.throughput, self.checks["throughput"])),
            ("churn", lambda: self._campaign(self.churn,
                                             self.checks["churn"])),
        ]
        for n, scenario in self.storms.items():
            items.append((f"storm{n}", lambda s=scenario: self._campaign(
                [s], self.checks["storm"])))
        return items

    def check(self, observed, golden):
        if not (self.golden_applies(golden) and golden["seed"] == self.seed):
            return 0, []
        return _compare_golden(
            {key: value["digest"] for key, value in observed.items()},
            golden["digests"])

    def golden_entry(self, observed):
        return {"settings": self.settings, "seed": self.seed,
                "digests": {key: value["digest"]
                            for key, value in observed.items()}}


WORKLOADS = {cls.name: cls for cls in (PaperFigures, BurstyPorts,
                                       TlmContention, Campaign)}


def canonical(value) -> str:
    """Canonical JSON text of an observable (digest input)."""
    import json

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def observable_digest(observed: Dict[str, object]) -> str:
    """sha-256 over a pass's observables, keyed and ordered by item."""
    from hashlib import sha256

    return sha256(canonical(observed).encode()).hexdigest()
