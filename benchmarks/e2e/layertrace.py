"""Outside-in layer tracing for the end-to-end benchmark.

:meth:`Tracer.install` wraps, at class or module level and from the
benchmark's side only, the public entry points of every layer:

* ``tick``, ``is_quiescent`` and ``next_event_cycle`` of every
  :class:`~repro.sim.Component` subclass, attributed to the package that
  defines the class (``hyperconnect``, ``smartconnect``, ``memory``,
  ``masters``, ``hypervisor``);
* ``Simulator.run`` / ``run_until`` / ``step`` and the private
  ``Simulator._run_fast`` (``sim.kernel``) — ``_run_fast`` is how the
  TLM engine re-enters the kernel, so wrapping it is what separates
  TLM's own time from its cycle-accurate stretches;
* ``CommitCohorts.flush`` (``sim.commit``), ``TlmEngine.advance``
  (``sim.tlm``), ``SocSystem.build`` (``system``);
* ``repro.verify``'s ``build_system`` / ``run_system`` (harness),
  ``run_scenario`` as called by the oracles (one kernel leg each),
  ``evaluate_scenario``, the ``check_*`` oracles and the campaign's
  ``evaluate_record``;
* the public methods of ``Hypervisor`` and the public functions and
  methods of ``repro.analysis``.

Every wrapper keeps one span stack timed with ``perf_counter_ns``, so a
span's *self* time excludes its children and the self times of all
spans sum to at most the traced wall time.  Per-call spans are only
aggregated; coarse spans (builds, runs, records, oracle legs, TLM
advances) are also kept in memory and written out at the end.  The
wrappers cost far more than the code they wrap on tick-bound runs, so
end-to-end numbers always come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from statistics import quantiles
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: component layers, named after the packages that define them
LAYERS = ("hyperconnect", "smartconnect", "memory", "masters", "hypervisor")
#: component hooks and the bucket suffix each is charged to
HOOKS = {"tick": "tick", "is_quiescent": "poll", "next_event_cycle": "poll"}
#: oracle functions and their metric names
ORACLES = {"check_liveness": "liveness", "check_protocol": "protocol",
           "check_equivalence": "equivalence",
           "check_containment_bound": "containment",
           "check_isolation": "isolation",
           "check_stale_window": "stale_window"}
#: coarse spans kept per run (beyond this only aggregates are kept)
MAX_SPANS = 100_000


def _import_all() -> None:
    """Load every ``repro`` module so every Component subclass exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name in ("repro.__main__", "repro.verify.strategies"):
            continue   # a CLI entry point, and a test-only dependency
        importlib.import_module(info.name)


def _subclasses(cls) -> List[type]:
    seen: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in seen:
            seen.append(sub)
            pending.extend(sub.__subclasses__())
    return seen


class Tracer:
    """Span stack, per-bucket aggregates, and the coarse span log."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: inclusive time per (parent bucket, bucket)
        self.incl_ns: Dict[tuple, int] = defaultdict(int)
        #: coarse spans: (bucket, start ns from install, duration ns, parent)
        self.spans: List[tuple] = []
        #: (KernelSkipStats, tlm?) of every simulator built while tracing
        self.kernels: List[tuple] = []
        #: elapsed_ms of every campaign record evaluated while tracing
        self.record_ms: List[float] = []
        self._stack: List[list] = []
        self._scenario = None
        self._t0 = 0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _hook(self, bucket: str, fn: Callable) -> Callable:
        """Wrapper for the per-cycle component hooks (kept lean)."""
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = perf_counter_ns

        def traced(obj, *args):
            if stack and stack[-1][2] is obj:
                # super() chain or a hook calling a sibling hook on the
                # same component: one span already covers it
                return fn(obj, *args)
            frame = [0, bucket, obj]
            stack.append(frame)
            start = clock()
            try:
                return fn(obj, *args)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[bucket] += elapsed - frame[0]
                calls[bucket] += 1
                if stack:
                    stack[-1][0] += elapsed

        return functools.update_wrapper(traced, fn)

    def _span(self, bucket, fn: Callable, coarse: bool = False,
              on_return: Optional[Callable] = None) -> Callable:
        """Wrapper for layer entry points; ``bucket`` may be a callable
        choosing the bucket from the call's arguments."""
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        incl_ns, spans = self.incl_ns, self.spans
        clock = perf_counter_ns
        choose = bucket if callable(bucket) else None

        def traced(*args, **kwargs):
            name = choose(args, kwargs) if choose else bucket
            parent = stack[-1][1] if stack else None
            frame = [0, name, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                incl_ns[(parent, name)] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if coarse and len(spans) < MAX_SPANS:
                    spans.append((name, start - self._t0, elapsed, parent))
            if on_return is not None:
                on_return(result)
            return result

        return functools.update_wrapper(traced, fn)

    @staticmethod
    def _rebind(original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module global naming ``original`` at
        ``wrapper`` (``from x import f`` copies the name)."""
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap_methods(self, cls: type, bucket: str) -> None:
        """Wrap the public functions, classmethods and staticmethods
        defined on ``cls`` itself."""
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name,
                        type(attr)(self._span(bucket, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._span(bucket, attr))

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary (see the module docstring)."""
        _import_all()
        from repro import analysis
        from repro.hypervisor import Hypervisor
        from repro.sim.commit import CommitCohorts
        from repro.sim.component import Component
        from repro.sim.kernel import Simulator
        from repro.sim.tlm import TlmEngine
        from repro.system import SocSystem
        from repro.verify import campaign, harness, oracles

        self._t0 = perf_counter_ns()

        # resolve every hook before patching any, so a subclass wraps
        # the original function, never a parent's wrapper
        classes = _subclasses(Component)
        originals = {(cls, hook): getattr(cls, hook)
                     for cls in classes for hook in HOOKS}
        for (cls, hook), fn in originals.items():
            layer = cls.__module__.split(".")[1]
            setattr(cls, hook, self._hook(f"{layer}.{HOOKS[hook]}", fn))

        for name in ("run", "run_until", "step", "_run_fast"):
            setattr(Simulator, name, self._span(
                "sim.kernel", getattr(Simulator, name),
                coarse=name == "run"))
        init = Simulator.__init__
        kernels = self.kernels

        @functools.wraps(init)
        def register(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            kernels.append((sim.skip_stats, sim.tlm))

        Simulator.__init__ = register
        CommitCohorts.flush = self._span("sim.commit", CommitCohorts.flush)
        TlmEngine.advance = self._span("sim.tlm", TlmEngine.advance,
                                       coarse=True)
        SocSystem.build = classmethod(self._span(
            "system.build", vars(SocSystem)["build"].__func__, coarse=True))

        for fn, bucket in ((harness.build_system, "verify.harness.build"),
                           (harness.run_system, "verify.harness.run")):
            self._rebind(fn, self._span(bucket, fn, coarse=True))
        for fn_name, label in ORACLES.items():
            fn = getattr(oracles, fn_name)
            self._rebind(fn, self._span(f"verify.oracles.{label}", fn,
                                        coarse=True))
        self._rebind(oracles.run_scenario, self._span(
            self._leg, oracles.run_scenario, coarse=True))
        self._rebind(oracles.evaluate_scenario,
                     self._evaluating(oracles.evaluate_scenario))
        self._rebind(campaign.evaluate_record, self._span(
            "verify.campaign.record", campaign.evaluate_record, coarse=True,
            on_return=lambda record: self.record_ms.append(
                record["elapsed_ms"])))

        self._wrap_methods(Hypervisor, "hypervisor.api")
        for name in analysis.__all__:
            obj = getattr(analysis, name)
            if inspect.isclass(obj):
                self._wrap_methods(obj, "analysis")
            elif inspect.isfunction(obj):
                self._rebind(obj, self._span("analysis", obj))

    def _leg(self, args, kwargs) -> str:
        """Which oracle leg a ``run_scenario`` call is: the fast kernel,
        the reference run of the scenario under evaluation, or a twin
        (fault-free baseline or churn-free replay)."""
        fast = kwargs.get("fast", args[1] if len(args) > 1 else False)
        if fast:
            return "verify.leg.fast"
        scenario = args[0] if args else kwargs.get("scenario")
        if scenario is self._scenario:
            return "verify.leg.reference"
        return "verify.leg.twin"

    def _evaluating(self, fn: Callable) -> Callable:
        def traced(scenario, *args, **kwargs):
            self._scenario = scenario
            try:
                return fn(scenario, *args, **kwargs)
            finally:
                self._scenario = None

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def inclusive_s(self, bucket: str, parent: Optional[str] = None) -> float:
        """Inclusive seconds of ``bucket`` spans (outermost ones only, or
        only those directly under ``parent``)."""
        total = sum(ns for (p, b), ns in self.incl_ns.items()
                    if b == bucket and p != bucket
                    and (parent is None or p == parent))
        return total / 1e9

    def self_s_total(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_ns.values()) / 1e9

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics, times and counts per traced pass."""
        per = 1.0 / max(1, passes)
        out: Dict[str, float] = {}

        def self_s(bucket):
            return self.self_ns.get(bucket, 0) / 1e9 * per

        def calls(bucket):
            return self.calls.get(bucket, 0) * per

        for layer in LAYERS:
            out[f"{layer}.tick_s"] = self_s(f"{layer}.tick")
            out[f"{layer}.ticks"] = calls(f"{layer}.tick")
            out[f"{layer}.poll_s"] = self_s(f"{layer}.poll")
            out[f"{layer}.polls"] = calls(f"{layer}.poll")

        totals: Dict[str, int] = defaultdict(int)
        potential = 0.0
        tlm_demotions = tlm_cycles = tlm_skipped = 0
        for stats, tlm in self.kernels:
            for key in ("ticks_run", "ticks_skipped", "ticks_slept",
                        "cycles_polled", "cycles_frozen", "horizon_scans",
                        "heap_pushes", "heap_pops", "commit_channels",
                        "tlm_epochs", "tlm_rollbacks"):
                totals[key] += getattr(stats, key)
            # KernelSkipStats.work_avoided_fraction's denominator, summed
            # over simulators: ticks a reference run would have made
            polled = stats.ticks_run + stats.ticks_skipped + stats.ticks_slept
            if stats.cycles_polled:
                potential += polled * (1 + stats.cycles_frozen
                                       / stats.cycles_polled)
            if tlm:
                tlm_demotions += sum(stats.tlm_demotions.values())
                tlm_cycles += stats.cycles_total
                tlm_skipped += stats.tlm_cycles_skipped
        out["sim.kernel.self_s"] = self_s("sim.kernel")
        for key in ("ticks_run", "ticks_skipped", "ticks_slept",
                    "cycles_polled", "cycles_frozen", "horizon_scans",
                    "heap_pushes", "heap_pops", "commit_channels"):
            out[f"sim.kernel.{key}"] = totals[key] * per
        out["sim.kernel.work_avoided_fraction"] = (
            1.0 - totals["ticks_run"] / potential if potential else 0.0)
        out["sim.commit.flush_s"] = self_s("sim.commit")
        out["sim.commit.flushes"] = calls("sim.commit")

        epochs = totals["tlm_epochs"]
        out["sim.tlm.self_s"] = self_s("sim.tlm")
        out["sim.tlm.cycle_accurate_s"] = self.inclusive_s(
            "sim.kernel", parent="sim.tlm") * per
        out["sim.tlm.epochs"] = epochs * per
        out["sim.tlm.rollbacks"] = totals["tlm_rollbacks"] * per
        out["sim.tlm.demotions"] = tlm_demotions * per
        out["sim.tlm.commit_ratio"] = (
            epochs / (epochs + tlm_demotions) if epochs else 0.0)
        out["sim.tlm.skipped_fraction"] = (
            tlm_skipped / (tlm_skipped + tlm_cycles) if tlm_skipped else 0.0)

        out["system.build_s"] = self_s("system.build")
        out["system.builds"] = calls("system.build")
        out["verify.harness.build_s"] = self.inclusive_s(
            "verify.harness.build") * per
        out["verify.harness.run_s"] = self.inclusive_s(
            "verify.harness.run") * per
        for leg in ("reference", "fast", "twin"):
            out[f"verify.leg.{leg}_s"] = self.inclusive_s(
                f"verify.leg.{leg}") * per
        for label in ORACLES.values():
            out[f"verify.oracles.{label}_s"] = self_s(
                f"verify.oracles.{label}")
        records = sorted(self.record_ms)
        if len(records) >= 2:
            cuts = quantiles(records, n=10)
            out["verify.campaign.record_ms_p50"] = cuts[4]
            out["verify.campaign.record_ms_p90"] = cuts[8]
        else:
            out["verify.campaign.record_ms_p50"] = (
                records[0] if records else 0.0)
            out["verify.campaign.record_ms_p90"] = (
                records[0] if records else 0.0)
        out["hypervisor.api_s"] = self_s("hypervisor.api")
        out["hypervisor.api_calls"] = calls("hypervisor.api")
        out["analysis.self_s"] = self_s("analysis")
        out["analysis.calls"] = calls("analysis")
        return out
