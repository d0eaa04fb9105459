"""Transaction-level fast-forward engine (``Simulator(tlm=True)``).

The saturated-contention window is the honest ceiling of skip-based
scheduling: with every component busy every cycle there are no freezable
cycles, so the fast path pays full per-cycle cost.  This module goes past
that ceiling the way the TLM literature does (Prediction Packetizing
Scheme; Rapid Cycle-Accurate Simulator for HLS): when the pending traffic
of every component matches a closed-form pattern, a whole *epoch* — up to
one reservation period — is advanced in a single step using the analytic
latency/reservation models in :mod:`repro.analysis`, and the kernel drops back to cycle-accurate execution at every edge the
models cannot predict.

The protocol per attempted epoch is *predict / commit / rollback*:

1. **Detect** (:meth:`TlmEngine._classify`): static eligibility (exactly
   one HyperConnect fabric — one :class:`CentralUnit`, one
   :class:`Exbar` — a plain timing-only memory, whitelisted master
   engines on the ports) plus dynamic eligibility (no faults armed
   in-window, no revocation orders pending, watchdogs disarmed, region
   filters off, no foreign channel listeners, all non-fabric channels
   idle, every unclassified component a pure timer with nothing due
   before the epoch end).
   Any failed check *declines* the epoch with a recorded demotion reason
   and the window runs cycle-accurately — byte-identical to
   ``fast=True`` by construction, because the decline path mutates
   nothing.
2. **Snapshot**: a generic shallow-copy snapshot of every component,
   link checker, fabric channel and *live* job, so a mispredicted
   epoch can be rolled back and replayed cycle-accurately with
   identical results.  Live means queued (``_jobs``) or prepared and
   unfinished (``_active_jobs``): a finished :class:`Job` is never
   written again, so the snapshot costs the same at the last epoch as
   at the first.
3. **Flush**: in-flight traffic (outstanding bursts, routed beats,
   queued memory commands, expected W beats) is credited as complete and
   cleared, putting the fabric in the regular state the analytic models
   describe.
4. **Account**: a virtual-cycle bus cursor serves one supervisor-split
   sub-burst per engine per round-robin turn — the EXBAR's
   granularity-1 fairness — deducting reservation budgets whole-request
   up front, driving accelerator phase machines and completion
   callbacks at their virtual completion cycles, until the epoch's bus
   capacity is spent.  Partially-served bursts are re-queued as
   remainder requests so cycle-accurate execution resumes seamlessly.
5. **Commit / rollback**: on success the clock jumps to the epoch end
   and the cached freeze horizon is dropped; on any validation failure
   (or the test-only forced-mispredict hook) the snapshot is restored,
   the rollback is counted, and the same window replays cycle-accurately.

Fidelity contract: committed epochs preserve *byte totals, job
completion, budget enforcement and rate behaviour* within analytic
bounds (checked by the ``tlm`` oracle in :mod:`repro.verify.oracles`),
but do not reproduce per-cycle observables (request issue cycles,
queue-delay samples, per-cycle stall counters).  Windows in which no
epoch engages remain byte-identical to ``fast=True``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional

from ..analysis.latency import AccessTimeModel, hyperconnect_propagation
from ..axi.checker import LinkChecker
from ..axi.idgen import IdAllocator
from ..axi.payloads import make_read_request, make_write_request
from ..hyperconnect.central import CentralUnit
from ..hyperconnect.exbar import Exbar
from ..hyperconnect.hyperconnect import MasterEFifo
from ..hyperconnect.supervisor import PortConfig, TransactionSupervisor
from ..masters.accelerator import PhasedAccelerator
from ..masters.dma import AxiDma
from ..masters.engine import AxiMasterEngine, Job
from ..masters.traffic import GreedyTrafficGenerator
from ..memory.dram import MemorySubsystem
from .stats import OnlineStats, PortFaultStats, RateCounter

#: shortest window worth attempting an epoch over; below this the
#: prediction/flush bookkeeping costs more than it saves
MIN_EPOCH = 64
#: cycle-accurate cycles run after every committed epoch before the next
#: attempt, so pipelines refill and rate/latency stats keep real samples
RESYNC_WINDOW = 128
#: cycles to wait after a declined epoch before re-attempting (most
#: decline causes — faults, churn, foreign listeners — persist a while)
DECLINE_HOLDOFF = 192

#: leaf statistic objects nested one level inside components whose
#: in-place mutation the generic snapshot must also capture
_LEAF_TYPES = (OnlineStats, PortFaultStats, RateCounter, PortConfig)


def _pure_timers() -> tuple:
    """Component classes that act only at their ``next_event_cycle``.

    Imported on first use: only systems with a hypervisor contain them.
    """
    from ..hypervisor.recovery import (FaultRecoveryAgent,
                                       RevocationController)
    return (FaultRecoveryAgent, RevocationController)


class _Decline(Exception):
    """Internal: this window is not TLM-eligible; run it cycle-accurately.

    ``reason`` keys :attr:`KernelSkipStats.tlm_demotions`; ``resume`` (a
    cycle, optional) overrides the default decline holdoff for causes
    with a known expiry (e.g. a recharge boundary inside the window).
    """

    def __init__(self, reason: str, resume: Optional[int] = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.resume = resume


class _Mispredict(Exception):
    """Internal: speculative epoch state failed validation; roll back."""


# ----------------------------------------------------------------------
# generic shallow snapshot
# ----------------------------------------------------------------------

def _copy_value(value):
    """Shallow, type-preserving copy of one attribute value; a list of
    deques (the memory's per-port write FIFOs) copies its deques too."""
    if isinstance(value, deque):
        return deque(value)
    if isinstance(value, list):
        if value and isinstance(value[0], deque):
            return [deque(item) for item in value]
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, set):
        return set(value)
    return value


def _save_object(obj):
    """Capture an object's state: ``("dict"|"slots", {name: copy})``."""
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return "dict", {key: _copy_value(value) for key, value in d.items()}
    saved = {}
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                saved[name] = _copy_value(getattr(obj, name))
    return "slots", saved


def _restore_object(obj, kind, saved) -> None:
    if kind == "dict":
        d = obj.__dict__
        d.clear()
        d.update(saved)
    else:
        for name, value in saved.items():
            setattr(obj, name, value)


def _save_channel(channel):
    """Channel state touched by :meth:`Channel.clear` (and nothing else
    during an epoch), captured for in-place restore — the queue/staged
    containers keep their identity because components (the EXBAR, for
    one) hold references to them."""
    return (deque(channel._queue), list(channel._staged),
            channel._occupancy, channel._popped_this_cycle,
            channel._dirty, channel.pushed_total, channel.popped_total)


def _restore_channel(channel, saved) -> None:
    queue, staged, occupancy, popped, dirty, pushed_total, popped_total = saved
    live_queue = channel._queue
    live_queue.clear()
    live_queue.extend(queue)
    live_staged = channel._staged
    live_staged.clear()
    live_staged.extend(staged)
    channel._occupancy = occupancy
    channel._popped_this_cycle = popped
    channel._dirty = dirty
    channel.pushed_total = pushed_total
    channel.popped_total = popped_total


class _Snapshot:
    __slots__ = ("cycle", "objects", "channels")


class _Lane:
    """Per accounted engine: its port supervisor and serving state."""

    __slots__ = ("engine", "sup", "nominal", "quota", "current", "phased")

    def __init__(self, engine, sup) -> None:
        self.engine = engine
        self.sup = sup
        self.nominal = sup.config.nominal_burst
        budget = sup.config.budget
        self.quota = sup.budget_remaining if budget is not None else None
        #: in-service request: [request, job, beats_left, beats_served]
        self.current = None
        self.phased = isinstance(engine, PhasedAccelerator)


class _EpochPlan:
    __slots__ = ("S", "E", "central", "exbar", "memory", "sups", "lanes",
                 "checkers", "fabric_channels", "model")


class TlmEngine:
    """Hybrid transaction-level fast-forward driver for one simulator.

    Created lazily by :meth:`Simulator._advance` when ``tlm=True``;
    :meth:`advance` replaces the plain ``_run_fast`` window loop,
    interleaving cycle-accurate stretches with committed epochs.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        #: first cycle at which the next epoch may be attempted
        self._next_attempt = 0
        #: speculative epochs entered (committed or rolled back)
        self._speculated = 0
        #: test hook: force every speculation from the Nth (1-based) on
        #: to mispredict after accounting, exercising the
        #: rollback/replay path; with 1 the whole run must be
        #: byte-identical to ``fast=True``
        self._force_mispredict_after: Optional[int] = None

    # ------------------------------------------------------------------
    # outer loop
    # ------------------------------------------------------------------

    def advance(self, end: int) -> None:
        """Advance to ``end``, committing epochs wherever traffic allows."""
        sim = self._sim
        while sim._cycle < end:
            cycle = sim._cycle
            if cycle < self._next_attempt:
                # inside a holdoff / resync window: cycle-accurate
                sim._run_fast(min(end, self._next_attempt))
                continue
            if end - cycle < MIN_EPOCH:
                # too close to the window end to be worth predicting;
                # not a demotion — run_until strides land here constantly
                sim._run_fast(end)
                continue
            self._attempt_epoch(end)

    # ------------------------------------------------------------------
    # one epoch attempt
    # ------------------------------------------------------------------

    def _attempt_epoch(self, end: int) -> None:
        sim = self._sim
        start = sim._cycle
        stats = sim.skip_stats
        snapshot = None
        try:
            plan = self._classify(start, end)
            snapshot = self._take_snapshot(plan)
            self._speculated += 1
            self._flush_in_flight(plan)
            self._account(plan)
            if (self._force_mispredict_after is not None
                    and self._speculated >= self._force_mispredict_after):
                raise _Mispredict("forced")
            self._commit(plan)
        except _Decline as exc:
            self._record_demotion(exc.reason)
            resume = exc.resume
            if resume is None:
                resume = start + DECLINE_HOLDOFF
            self._next_attempt = max(resume, start + 1)
        except _Mispredict as exc:
            self._restore(snapshot)
            stats.tlm_rollbacks += 1
            self._record_demotion(f"mispredict:{exc}")
            self._next_attempt = start + DECLINE_HOLDOFF
        except Exception as exc:   # safety net: fall back, stay correct
            if snapshot is not None:
                self._restore(snapshot)
            self._record_demotion(f"error:{type(exc).__name__}")
            self._next_attempt = start + DECLINE_HOLDOFF

    def _record_demotion(self, reason: str) -> None:
        demotions = self._sim.skip_stats.tlm_demotions
        demotions[reason] = demotions.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def _classify(self, start: int, end: int) -> _EpochPlan:
        """Build the epoch plan, or raise :class:`_Decline`."""
        sim = self._sim
        if sim._dirty_channels:
            # uncommitted pushes from outside a run (e.g. a job enqueued
            # between run() calls); one polled cycle commits them
            raise _Decline("dirty", resume=start + 1)
        components = sim._components

        centrals = [c for c in components if isinstance(c, CentralUnit)]
        exbars = [c for c in components if isinstance(c, Exbar)]
        if len(centrals) != 1 or len(exbars) != 1:
            raise _Decline("topology")
        central, exbar = centrals[0], exbars[0]
        if not central.enabled:
            raise _Decline("central-disabled")

        recharge = central._next_recharge
        if recharge <= start:
            raise _Decline("recharge-due", resume=start + 1)
        epoch_end = min(recharge - 1, end - 1)
        if epoch_end - start + 1 < MIN_EPOCH:
            raise _Decline("short-period", resume=recharge + 1)

        memories = [c for c in components if isinstance(c, MemorySubsystem)]
        if len(memories) != 1 or type(memories[0]) is not MemorySubsystem:
            raise _Decline("memory")
        memory = memories[0]
        if memory.store is not None:
            raise _Decline("memory-store")
        if len(memory.links) != 1 or memory.link is not exbar.master_link:
            raise _Decline("memory")

        links = list(exbar.ha_links)
        sups = list(exbar.supervisors)
        if len(sups) != len(links) or not sups:
            raise _Decline("topology")
        for sup in sups:
            if type(sup) is not TransactionSupervisor:
                raise _Decline("supervisor")
            if sup.faulted:
                raise _Decline("fault")
            if sup._revoking:
                raise _Decline("revocation")
            config = sup.config
            if config.timeout_cycles is not None:
                raise _Decline("watchdog")
            if config.region_bytes:
                raise _Decline("region-filter")
            if not sup.enabled or not sup.coupled:
                raise _Decline("decoupled")
            if sup._w_skip_push or sup._w_residue:
                raise _Decline("w-ledger")

        fabric_ids = {id(central), id(exbar), id(memory)}
        fabric_ids.update(id(s) for s in sups)

        # engines: whitelisted burst-issuing masters on the HA ports;
        # everything else must be provably inert for the whole epoch
        lanes_by_port: Dict[int, _Lane] = {}
        others = []
        for comp in components:
            if id(comp) in fabric_ids or isinstance(comp, MasterEFifo):
                continue
            if isinstance(comp, AxiMasterEngine) and (
                    type(comp) in (AxiMasterEngine, AxiDma,
                                   GreedyTrafficGenerator)
                    or isinstance(comp, PhasedAccelerator)):
                port = next((i for i, link in enumerate(links)
                             if link is comp.link), None)
                if port is None:
                    others.append(comp)
                    continue
                if not comp._active:
                    if comp.busy:
                        raise _Decline("inactive-busy")
                    continue   # tri-stated and empty: no traffic to model
                if port in lanes_by_port:
                    raise _Decline("port-shared")
                self._check_engine(comp)
                lanes_by_port[port] = _Lane(comp, sups[port])
            else:
                others.append(comp)

        # a component outside the fabric and the lanes may sit out the
        # epoch only if it is a pure timer: it acts exactly at its
        # next_event_cycle, so a hint past the epoch end proves it inert
        timers = _pure_timers() if others else ()
        for comp in others:
            if type(comp) not in timers:
                raise _Decline(f"component:{comp.name}")
            when = comp.next_event_cycle(start)
            if when is not None and when <= epoch_end:
                raise _Decline(f"component:{comp.name}")

        lanes = [lanes_by_port[port] for port in sorted(lanes_by_port)]
        if not any(lane.engine.busy for lane in lanes):
            # nothing to fast-forward; the freeze path handles idle best
            raise _Decline("idle")

        # channel census: fabric channels may carry in-flight beats
        # (flushed at entry); every other channel must be empty, since
        # nothing will drain it during the epoch
        fabric_channels = set()
        for link in links:
            fabric_channels.update(
                (link.ar, link.aw, link.w, link.r, link.b))
        fabric_channels.update(exbar.ts_ar)
        fabric_channels.update(exbar.ts_aw)
        fabric_channels.add(exbar.out_ar)
        fabric_channels.add(exbar.out_aw)
        master = exbar.master_link
        fabric_channels.update(
            (master.ar, master.aw, master.w, master.r, master.b))

        checkers: Dict[int, LinkChecker] = {}
        for channel in sim._channels:
            if channel in fabric_channels:
                listeners = (tuple(channel._push_listeners)
                             + tuple(channel._pop_listeners))
                for callback in listeners:
                    owner = getattr(callback, "__self__", None)
                    if isinstance(owner, LinkChecker):
                        checkers[id(owner)] = owner
                    elif owner is None or id(owner) not in fabric_ids:
                        # tracers, probes, monitors: they expect to see
                        # every beat, which an epoch does not produce
                        raise _Decline("listener")
            elif channel._queue or channel._staged:
                raise _Decline("channel")

        plan = _EpochPlan()
        plan.S = start
        plan.E = epoch_end
        plan.central = central
        plan.exbar = exbar
        plan.memory = memory
        plan.sups = sups
        plan.lanes = lanes
        plan.checkers = list(checkers.values())
        plan.fabric_channels = list(fabric_channels)
        plan.model = AccessTimeModel(hyperconnect_propagation(),
                                     memory.timing)
        return plan

    def _check_engine(self, engine) -> None:
        """Dynamic eligibility of one accounted engine."""
        if engine.w_beat_gap:
            raise _Decline("engine-wgap")
        if engine.collect_data:
            raise _Decline("engine-data")
        if engine._copy_buffer:
            raise _Decline("copy")
        for job in itertools.chain(engine._jobs, engine._active_jobs):
            if job.kind == "copy":
                raise _Decline("copy")
            if job.kind == "write" and job.data is not None:
                raise _Decline("write-data")
        if engine._completion_callbacks:
            raise _Decline("callback")
        for callback in getattr(engine, "_frame_callbacks", ()):
            if getattr(callback, "__self__", None) is not engine:
                raise _Decline("callback")

    # ------------------------------------------------------------------
    # snapshot / rollback
    # ------------------------------------------------------------------

    def _take_snapshot(self, plan: _EpochPlan) -> _Snapshot:
        sim = self._sim
        snap = _Snapshot()
        snap.cycle = sim._cycle

        seen = set()
        objects = []

        def add(obj) -> None:
            if id(obj) not in seen:
                seen.add(id(obj))
                objects.append(obj)

        for comp in sim._components:
            add(comp)
            for value in vars(comp).values():
                if isinstance(value, _LEAF_TYPES):
                    add(value)
        for checker in plan.checkers:
            add(checker)
        add(sim.events)
        # only live jobs: a finished Job is never written again, and every
        # unfinished one is queued (_jobs) or prepared (_active_jobs)
        for lane in plan.lanes:
            engine = lane.engine
            for job in itertools.chain(engine._jobs, engine._active_jobs):
                add(job)
        snap.objects = [(obj,) + _save_object(obj) for obj in objects]
        snap.channels = [(channel, _save_channel(channel))
                         for channel in plan.fabric_channels]
        return snap

    def _restore(self, snap: _Snapshot) -> None:
        sim = self._sim
        for obj, kind, saved in snap.objects:
            _restore_object(obj, kind, saved)
        for channel, saved in snap.channels:
            _restore_channel(channel, saved)
        sim._cycle = snap.cycle
        sim._dirty_channels = [c for c in sim._channels if c._dirty]
        sim._quiescent_until = 0

    # ------------------------------------------------------------------
    # flush: credit and clear in-flight traffic
    # ------------------------------------------------------------------

    def _flush_in_flight(self, plan: _EpochPlan) -> None:
        """Complete all in-flight work instantly at the epoch start.

        Every outstanding burst is credited its remaining beats (the
        cycle-accurate path would deliver them within one pipeline depth
        — the slack term the analytic-bound oracle allows) and the
        fabric's transient state is cleared, leaving exactly the regular
        state the closed-form accounting describes.
        """
        start = plan.S
        model = plan.model
        for lane in plan.lanes:
            engine = lane.engine
            finished: List[Job] = []
            for request, beats_left, job in engine._outstanding_reads:
                nbytes = beats_left * request.size_bytes
                engine.bytes_read += nbytes
                job.read_bytes_done += nbytes
                engine.read_latency.add(
                    model.read_access_cycles(request.length))
                finished.append(job)
            for request, job in engine._outstanding_writes:
                nbytes = request.length * request.size_bytes
                engine.bytes_written += nbytes
                job.write_bytes_done += nbytes
                engine.write_latency.add(
                    model.write_access_cycles(request.length))
                finished.append(job)
            engine._outstanding_reads.clear()
            engine._outstanding_writes.clear()
            engine._n_outstanding = 0
            engine._write_data.clear()
            engine._w_gap_until = 0
            engine._ids = IdAllocator(
                engine._ids.capacity.bit_length() - 1)
            completed = set()
            for job in finished:
                if id(job) not in completed:
                    completed.add(id(job))
                    engine._maybe_finish(job, start)

        for sup in plan.sups:
            sup._pending_ar.clear()
            sup._pending_aw.clear()
            sup._inflight_reads.clear()
            sup._inflight_writes.clear()
            sup._w_expected.clear()
            sup.outstanding_reads = 0
            sup.outstanding_writes = 0
            sup._read_issue_cycles.clear()
            sup._write_issue_cycles.clear()

        exbar = plan.exbar
        exbar._route_r.clear()
        exbar._route_w.clear()
        exbar._route_b.clear()

        memory = plan.memory
        commands = list(memory._commands)
        if memory._current is not None:
            commands.append(memory._current)
        for command in commands:
            memory.beats_served += command.beats_left
            memory.per_port_beats[0] += command.beats_left
            if command.is_read:
                memory.reads_served += 1
            else:
                memory.writes_served += 1
        memory._commands.clear()
        memory._current = None
        for queue in memory._write_beats:
            queue.clear()
        memory._pending_b.clear()
        memory._bus_free_at = start

        for checker in plan.checkers:
            checker._pending_writes.clear()
            checker._early_w.clear()
            checker._pending_reads.clear()
            checker._awaiting_b = 0

        for channel in plan.fabric_channels:
            channel.clear()

    # ------------------------------------------------------------------
    # accounting: virtual-cycle bus cursor
    # ------------------------------------------------------------------

    def _account(self, plan: _EpochPlan) -> None:
        """Serve the epoch's traffic analytically over [S, E].

        The shared memory bus moves at most one data beat per cycle, so
        ``E - S + 1`` beats of capacity are dealt out to the lanes one
        supervisor-split sub-burst at a time, round-robin — the same
        granularity-1 fairness the EXBAR arbitrates.  ``sim._cycle``
        tracks the virtual cycle throughout so completion callbacks
        (DMA round relaunches, accelerator frame machines, greedy
        refills) observe monotonically advancing time.
        """
        sim = self._sim
        start, epoch_end = plan.S, plan.E
        memory = plan.memory
        exbar = plan.exbar
        model = plan.model
        lanes = plan.lanes
        capacity = epoch_end - start + 1
        cursor = 0
        while cursor < capacity:
            progressed = False
            for lane in lanes:
                if cursor >= capacity:
                    break
                virtual = start + cursor
                if virtual > epoch_end:
                    virtual = epoch_end
                if virtual > sim._cycle:   # monotone for callbacks
                    sim._cycle = virtual
                current = lane.current
                if current is None:
                    current = self._next_request(lane, virtual)
                    if current is None:
                        continue
                    lane.current = current
                request = current[0]
                sub_beats = min(lane.nominal, current[2])
                cursor += sub_beats
                current[2] -= sub_beats
                current[3] += sub_beats
                nbytes = sub_beats * request.size_bytes
                config = lane.sup.config
                if request.is_read:
                    lane.engine.bytes_read += nbytes
                    current[1].read_bytes_done += nbytes
                    memory.reads_served += 1
                    config.issued_read += 1
                    exbar.grants_ar += 1
                else:
                    lane.engine.bytes_written += nbytes
                    current[1].write_bytes_done += nbytes
                    memory.writes_served += 1
                    config.issued_write += 1
                    exbar.grants_aw += 1
                memory.beats_served += sub_beats
                memory.per_port_beats[0] += sub_beats
                progressed = True
                if current[2] == 0:
                    if request.is_read:
                        access = model.read_access_cycles(request.length)
                        lane.engine.read_latency.add(access)
                    else:
                        access = model.write_access_cycles(request.length)
                        lane.engine.write_latency.add(access)
                    # the bus cursor only counts data beats; completion
                    # trails it by the access-time pipeline (and real
                    # latency is never below the isolated access time),
                    # so an uncontended job still observes the analytic
                    # latency instead of beat-count cycles
                    done = max(start + cursor, current[4] + access)
                    if done > epoch_end:
                        done = epoch_end
                    if done > sim._cycle:
                        sim._cycle = done
                    lane.current = None
                    lane.engine._maybe_finish(current[1], done)
            if not progressed:
                jump = self._compute_jump(lanes, start, cursor, epoch_end)
                if jump is None:
                    break
                cursor = jump
        self._requeue_partials(lanes)

    def _next_request(self, lane: _Lane, virtual: int):
        """Pop the lane's next issueable request, or None if blocked.

        Drives the accelerator phase machine and the job-expansion
        top-up exactly as :meth:`AxiMasterEngine.tick` would, then
        applies reservation admission: the supervisor deducts a whole
        request's worth of sub-burst budget up front (its split queue
        never starves mid-burst in the regular pattern).
        """
        engine = lane.engine
        if lane.phased and engine._running:
            engine._advance(virtual)
        while (engine._jobs
               and len(engine._issue_queue) < 2 * engine.burst_len):
            engine._prepare_job(engine._jobs.popleft(), virtual)
        if not engine._issue_queue:
            return None
        request, job = engine._issue_queue[0]
        if job.kind == "copy" or request.length <= 0:
            raise _Mispredict("job-shape")
        if not request.is_read and request.data is not None:
            raise _Mispredict("write-data")
        subs_needed = -(-request.length // lane.nominal)
        if lane.quota is not None:
            if lane.quota < subs_needed:
                return None   # blocked on reservation budget
            lane.quota -= subs_needed
        engine._issue_queue.popleft()
        if subs_needed > 1:
            lane.sup.splits_performed += 1
        if job.started is None:
            job.started = virtual
        return [request, job, request.length, 0, virtual]

    @staticmethod
    def _compute_jump(lanes, start, cursor, epoch_end):
        """When every lane is blocked, the only in-epoch event left is a
        compute phase finishing; jump the cursor there (virtual idle bus
        cycles)."""
        jump = None
        virtual = start + cursor
        for lane in lanes:
            engine = lane.engine
            if (lane.phased and engine._running
                    and engine._waiting_job is None
                    and engine._compute_until > virtual):
                target = engine._compute_until - start
                if target <= epoch_end - start and (
                        jump is None or target < jump):
                    jump = target
        if jump is not None and jump <= cursor:
            return None
        return jump

    def _requeue_partials(self, lanes) -> None:
        """Re-queue the unserved tail of bus-truncated requests so the
        cycle-accurate resync window resumes them seamlessly."""
        for lane in lanes:
            current = lane.current
            if current is None:
                continue
            request, job, beats_left, served, _issued = current
            beat = request.size_bytes
            address = request.address + served * beat
            if request.is_read:
                remainder = make_read_request(address, beats_left, beat)
            else:
                remainder = make_write_request(address, beats_left, beat)
            lane.engine._issue_queue.appendleft((remainder, job))
            lane.current = None

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, plan: _EpochPlan) -> None:
        sim = self._sim
        sim._cycle = plan.E + 1
        sim.wake()
        stats = sim.skip_stats
        stats.tlm_epochs += 1
        stats.tlm_cycles_skipped += plan.E + 1 - plan.S
        # the central unit's recharge fires naturally at E+1 (its tick
        # condition is cycle >= _next_recharge and E = _next_recharge-1
        # whenever the period bounded the epoch)
        self._next_attempt = plan.E + 1 + RESYNC_WINDOW
