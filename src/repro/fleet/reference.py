"""The event-heap fleet oracle: one event popped and processed at a time.

This is the original fleet simulation loop, retained verbatim as the
correctness reference for the vectorized tick engine
(:mod:`repro.fleet.engine`) — the same relationship
:mod:`repro.engine.reference` has to :mod:`repro.engine.executor`.  Each
replica runs the same continuous-batching semantics as the
single-replica loop under a drift pricer
(:func:`~repro.engine.serving.continuous_batching` with a
:class:`~repro.engine.serving.DriftPricer`): admissions happen
at step boundaries, every decode step is priced by a
:class:`~repro.engine.serving.PlacementStepTimer` from that step's sampled
routing under the replica's *current* placement, and coherent modes pay
the prompt AllGather at admission.  Above the replicas sit the router
(per-arrival placement/load decision), the admission controller
(SLO shedding at routing time) and, optionally, the reactive autoscaler
(periodic ticks that boot or drain replicas, cold starts priced through
:func:`~repro.fleet.autoscaler.price_cold_start`).

The event heap carries eight event kinds — request arrival, replica step
completion, replica boot completion, autoscaler tick, and the chaos
subsystem's crash / preemption-notice / preemption-kill / request-retry
events — with a sequence counter as tie-break, so the simulation is
deterministic given the rng.  Chaos schedules come frozen in
``fleet.chaos`` (a :class:`~repro.chaos.spec.ChaosSpec`): a crash loses
the victim's in-flight batch and queue (each lost request re-enters
routing per the retry policy, or is recorded lost), a preemption notice
drains the victim for its grace period before killing what remains, and
brownouts inflate step times through the shared
:func:`~repro.chaos.schedule.brownout_factor` helper so admission's EWMA
estimate feels the slowdown.  Recovery (when enabled) orders a
replacement replica through the same priced cold-start boot path the
autoscaler uses.  ``tests/test_fleet_equivalence.py`` holds the tick
engine to this loop's exact :class:`~repro.fleet.result.FleetResult`,
field for field.  An attached
:class:`~repro.obs.recorder.MetricsRecorder` has its ``on_*`` hooks called
directly at each lifecycle event; the tick engine fires the identical
stream, so the two engines' recorded timelines are equal too.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from time import perf_counter
from typing import Iterable, Sequence, cast

import numpy as np

from repro.chaos.schedule import brownout_factor
from repro.chaos.spec import PreemptSpec
from repro.config import ClusterConfig, ExecutionMode, FleetConfig, ModelConfig
from repro.core.online import OnlineReplacer, ReplacementPolicy
from repro.core.placement.base import Placement
from repro.engine.metrics import LatencyStats
from repro.engine.serving import PlacementStepTimer
from repro.fleet.admission import AdmissionController
from repro.fleet.autoscaler import ReactiveAutoscaler, ScaleEvent, price_cold_start
from repro.fleet.replica import ActiveEntry, Replica, ReplicaState, ReplicaStats
from repro.fleet.requests import (
    FailureRecord,
    FleetCompleted,
    FleetRequest,
    LostRecord,
    ShedRecord,
)
from repro.fleet.result import (
    FleetResult,
    finalize_fleet_result,
    sample_paths_grouped,
    validate_fleet_inputs,
)
from repro.fleet.router import make_router
from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import MetricsRecorder, run_meta
from repro.trace.markov import MarkovRoutingModel

__all__ = ["simulate_fleet_reference"]


def _sample_paths(
    entries: Sequence[ActiveEntry],
    regimes: Sequence[MarkovRoutingModel],
    rng: np.random.Generator,
    num_layers: int,
) -> np.ndarray:
    """Draw one path matrix for a replica's active entries."""
    regs = np.array([e.request.regime for e in entries], dtype=np.int64)
    return sample_paths_grouped(regs, regimes, rng, num_layers)


def simulate_fleet_reference(
    requests: Iterable[FleetRequest],
    model: ModelConfig,
    cluster: ClusterConfig,
    regimes: Sequence[MarkovRoutingModel],
    placements_by_regime: Sequence[Placement],
    fleet: FleetConfig,
    mode: ExecutionMode = ExecutionMode.EXFLOW,
    max_batch_requests: int = 64,
    timer: PlacementStepTimer | None = None,
    replace_policy: ReplacementPolicy | None = None,
    replace_halflife_tokens: float | None = None,
    dtype_bytes: int = 2,
    rng: np.random.Generator | None = None,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
) -> FleetResult:
    """Serve ``requests`` on a fleet of replicas behind a router.

    ``placements_by_regime[k]`` is the affinity-optimized placement fit to
    ``regimes[k]``; initial replica ``i`` carries placement
    ``i % num_regimes`` (a heterogeneous fleet when ``num_regimes > 1``),
    and autoscaled replicas boot with the placement of the regime
    dominating the queued traffic at decision time.
    ``max_batch_requests`` is each replica's continuous-batching admission
    cap (the serving layer's knob, threaded through by the cluster entry
    point).  With ``fleet.replace`` on, each replica's re-placement loop
    uses ``replace_policy`` and a streaming estimator with
    ``replace_halflife_tokens`` (defaults when ``None``).

    ``recorder`` attaches observation-only telemetry (its ``on_*`` hooks
    are called directly, with the same arguments at the same simulated
    times as the tick engine calls them); ``profiler`` accumulates the
    wall-time phase split (routing / admission / pricing / bookkeeping).
    Neither perturbs the simulation.
    """
    reqs = sorted(requests, key=lambda q: (q.arrival_s, q.req_id))
    validate_fleet_inputs(
        reqs, model, regimes, placements_by_regime, fleet, max_batch_requests
    )

    rng = rng or np.random.default_rng(0)
    router = make_router(
        fleet.router, regimes=regimes, load_weight=fleet.affinity_load_weight
    )
    admission = AdmissionController.from_config(fleet)
    timer = timer or PlacementStepTimer(model, cluster, mode=mode, dtype_bytes=dtype_bytes)
    top2 = model.gating.k == 2
    g = cluster.num_gpus
    L = model.num_moe_layers
    num_priorities = len(admission.classes)

    empty_stats = LatencyStats.from_samples([])
    if not reqs:
        return FleetResult((), (), empty_stats, empty_stats, 0.0, (), (), {})

    replicas: list[Replica] = []

    def new_replica(
        regime: int,
        state: ReplicaState,
        booted_at: float,
        billed_from: float | None = None,
    ) -> Replica:
        replacer = None
        if fleet.replace:
            # each replica gets its own replacer (and hence estimator):
            # every replica streams only its own traffic
            replacer = OnlineReplacer(
                model,
                cluster,
                policy=replace_policy or ReplacementPolicy(),
                halflife_tokens=replace_halflife_tokens,
                dtype_bytes=dtype_bytes,
                rng=np.random.default_rng(rng.integers(2**31)),
            )
        r = Replica(
            replica_id=len(replicas),
            placement=placements_by_regime[regime],
            regime=regime,
            max_batch_requests=max_batch_requests,
            num_gpus=g,
            num_priorities=num_priorities,
            state=state,
            booted_at_s=booted_at,
            replacer=replacer,
            billed_from_s=billed_from,
        )
        replicas.append(r)
        if recorder is not None:
            recorder.on_replica_start(
                billed_from if billed_from is not None else booted_at,
                r.replica_id,
                regime,
                state is ReplicaState.BOOTING,
                booted_at,
                r.billed_from_s,
            )
        return r

    first_arrival = reqs[0].arrival_s
    if recorder is not None:
        recorder.on_run_start(first_arrival, run_meta(cluster))
    for i in range(fleet.num_replicas):
        new_replica(i % len(regimes), ReplicaState.RUNNING, first_arrival)

    autoscaler = ReactiveAutoscaler(fleet) if fleet.autoscale else None
    chaos = fleet.chaos
    retry_pol = chaos.retry if chaos is not None else None
    attempt_timeout = retry_pol.attempt_timeout_s if retry_pol is not None else None

    heap: list[tuple[float, int, str, object]] = []
    seq = itertools.count()

    def push(t: float, kind: str, data: object) -> None:
        heapq.heappush(heap, (t, next(seq), kind, data))

    for q in reqs:
        push(q.arrival_s, "arrival", q)
    if autoscaler is not None:
        push(first_arrival + fleet.autoscale_check_every_s, "scale", None)
    if chaos is not None:
        # spec order fixes the seq tie-break; the tick engine mirrors it
        for c in chaos.crashes:
            push(c.time_s, "crash", c.replica)
        for p in chaos.preemptions:
            push(p.time_s, "preempt", p)

    total = len(reqs)
    done = 0
    completed: list[FleetCompleted] = []
    shed: list[ShedRecord] = []
    scale_events: list[ScaleEvent] = []
    peak_routable = fleet.num_replicas
    lost: list[LostRecord] = []
    retries = 0
    attempts: dict[int, int] = {}
    attempt_started: dict[int, float] = {}
    # Failure records accumulate as parallel columns: the lost counts are
    # only known at kill time (a preemption's record opens at the notice)
    # and the recovery time only when the replacement replica boots.
    fail_time: list[float] = []
    fail_rid: list[int] = []
    fail_kind: list[str] = []
    fail_act: list[int] = []
    fail_q: list[int] = []
    fail_rec: list[float | None] = []
    recovery_for: dict[int, tuple[int, float]] = {}

    def routable() -> list[Replica]:
        return [r for r in replicas if r.routable]

    def finish_if_drained(r: Replica, t: float) -> None:
        if r.state is ReplicaState.DRAINING and r.drained:
            r.transition_to(ReplicaState.STOPPED)
            r.stopped_at_s = t
            if recorder is not None:
                recorder.on_stop(t, r.replica_id)

    def start_step(r: Replica, t: float) -> None:
        """Admit at the boundary and launch one decode step (or go idle)."""
        if attempt_timeout is None:
            newly = r.admit_up_to_capacity(t)
        else:
            newly, timed_out = r.admit_with_timeout(
                t,
                lambda q: t - attempt_started.get(q.req_id, q.arrival_s)
                > attempt_timeout,
            )
            for q in timed_out:
                fail_attempt(q, t, r.replica_id, "timeout", was_active=False)
        if newly:
            _pt = perf_counter() if profiler is not None else 0.0
            adm = timer.admission_time(
                np.array([e.home_gpu for e in newly], dtype=np.int64),
                np.array([e.request.prompt_len for e in newly], dtype=np.int64),
            )
            if profiler is not None:
                profiler.add("pricing", perf_counter() - _pt)
            if recorder is not None:
                recorder.on_admit(t, r.replica_id, [e.request.req_id for e in newly], adm)
            if adm > 0:
                t += adm
                r.note_admission(adm)
        if not r.active:
            r.stepping = False
            finish_if_drained(r, t)
            return
        _pt = perf_counter() if profiler is not None else 0.0
        paths = _sample_paths(r.active, regimes, rng, L)
        secondary = _sample_paths(r.active, regimes, rng, L) if top2 else None
        if profiler is not None:
            profiler.add("pricing", perf_counter() - _pt)
        if r.replacer is not None:
            r.replacer.observe(paths)
        home = np.array([e.home_gpu for e in r.active], dtype=np.int64)
        ctx = np.array(
            [e.request.prompt_len + e.generated for e in r.active], dtype=np.int64
        )
        _pt = perf_counter() if profiler is not None else 0.0
        dt = timer.step_time(paths, home, ctx, r.placement, secondary)
        if profiler is not None:
            profiler.add("pricing", perf_counter() - _pt)
        if chaos is not None and chaos.brownouts:
            f = brownout_factor(chaos.brownouts, r.replica_id, t)
            if f != 1.0:
                dt = dt * f
        if not dt > 0:
            raise ValueError(f"step_time must be positive seconds, got {dt}")
        r.stepping = True
        push(t + dt, "step", (r, dt, r.epoch))

    def on_arrival(q: FleetRequest, t: float) -> None:
        nonlocal done
        cands = routable()
        if not cands:
            # transient hole (every replica booting/draining); shed honestly
            # rather than queueing on a replica that may never come up
            shed.append(ShedRecord(q, t, "no-capacity", None))
            done += 1
            if recorder is not None:
                recorder.on_shed(t, q.req_id, None, "no-capacity")
            return
        _pt = perf_counter() if profiler is not None else 0.0
        r = router.choose(q, cands, rng)
        if profiler is not None:
            profiler.add("routing", perf_counter() - _pt)
        _pt = perf_counter() if profiler is not None else 0.0
        reason = admission.assess(q, r, t)
        if profiler is not None:
            profiler.add("admission", perf_counter() - _pt)
        if reason is not None:
            shed.append(ShedRecord(q, t, reason, r.replica_id))
            done += 1
            if recorder is not None:
                recorder.on_shed(t, q.req_id, r.replica_id, reason)
            return
        r.enqueue(q)
        if recorder is not None:
            recorder.on_enqueue(t, r.replica_id, q.req_id)
        if not r.stepping:
            start_step(r, t)

    def on_step_end(r: Replica, dt: float, t: float) -> None:
        nonlocal done
        batch = len(r.active)
        r.note_step(dt, batch)
        if recorder is not None:
            recorder.on_step_end(t, r.replica_id, dt, batch)
        still: list[ActiveEntry] = []
        for e in r.active:
            e.tokens_remaining -= 1
            e.generated += 1
            if e.tokens_remaining == 0:
                completed.append(
                    FleetCompleted(e.request, e.admitted_s, t, r.replica_id)
                )
                r.served += 1
                done += 1
                if recorder is not None:
                    recorder.on_complete(
                        t,
                        r.replica_id,
                        e.request.req_id,
                        e.request.arrival_s,
                        e.admitted_s,
                        e.request.generate_len,
                    )
            else:
                still.append(e)
        r.active = still
        t_next = t
        if r.replacer is not None:
            result = r.replacer.maybe_replace(r.steps, t, r.placement)
            if result is not None:
                r.placement, event = result
                r.placement_version += 1
                r.replacements += 1
                r.migration_stall_s += event.stall_s
                t_next += event.stall_s
        start_step(r, t_next)

    def migrate_queued(victim: Replica, t: float) -> None:
        """Hand a draining replica's queued requests back to the router.

        The active decode batch finishes in place (KV state is not moved);
        queued-but-unadmitted requests are re-routed across the remaining
        routable replicas so they don't wait out the drain.  Re-routing
        skips latency-prediction shedding — these requests were already
        admitted once, and shedding them *because* the fleet is shrinking
        would be wrong — but it still honours the hard
        ``max_queue_per_replica`` cap: orphans that would overflow every
        surviving replica stay on the victim and drain normally.
        """
        orphans = victim.take_queued()
        if not orphans:
            return
        if recorder is not None:
            recorder.on_requeue(t, victim.replica_id, len(orphans))
        for q in orphans:
            # victim is already DRAINING, hence excluded from routable()
            targets = [
                r for r in routable() if r.queue_len < fleet.max_queue_per_replica
            ]
            if not targets:
                victim.enqueue(q)  # nowhere with room: drain it in place
                if recorder is not None:
                    recorder.on_enqueue(t, victim.replica_id, q.req_id)
                continue
            target = router.choose(q, targets, rng)
            target.enqueue(q)
            if recorder is not None:
                recorder.on_enqueue(t, target.replica_id, q.req_id)
            if not target.stepping:
                start_step(target, t)

    def fail_attempt(
        q: FleetRequest, t: float, rid: int, reason: str, was_active: bool
    ) -> None:
        """One attempt of ``q`` just died on ``rid``: retry or record lost."""
        nonlocal done, retries
        n = attempts.get(q.req_id, 1)
        if retry_pol is not None and n < retry_pol.max_attempts:
            delay = retry_pol.backoff_s(n)
            retries += 1
            push(t + delay, "retry", q)
            if recorder is not None:
                recorder.on_retry(t, q.req_id, rid, n, delay, was_active)
        else:
            lost.append(LostRecord(q, t, rid, n, reason))
            done += 1
            if recorder is not None:
                recorder.on_lost(t, q.req_id, rid, n, reason, was_active)

    def kill_replica(r: Replica, t: float, kind: str, failure_idx: int) -> None:
        """Hard-stop ``r`` now: in-flight batch and queue are destroyed.

        Lost work re-enters routing in a canonical order — active entries
        in slot order, then the queue in lane-FCFS order — so both engines
        schedule identical retry events.  Bumping the epoch invalidates the
        in-flight step-completion event still sitting in the heap.
        """
        doomed_active = [e.request for e in r.active]
        doomed_queued = r.take_queued()
        fail_act[failure_idx] += len(doomed_active)
        fail_q[failure_idx] += len(doomed_queued)
        r.active = []
        r.transition_to(ReplicaState.FAILED)
        r.stopped_at_s = t
        r.stepping = False
        r.epoch += 1
        if recorder is not None:
            recorder.on_fail(t, r.replica_id, kind, len(doomed_active), len(doomed_queued))
        for q in doomed_active:
            fail_attempt(q, t, r.replica_id, kind, was_active=True)
        for q in doomed_queued:
            fail_attempt(q, t, r.replica_id, kind, was_active=False)

    def order_recovery(victim: Replica, t: float, failure_idx: int) -> None:
        """Boot a replacement for ``victim`` through the priced cold start."""
        cold = price_cold_start(
            model,
            cluster,
            placements_by_regime[victim.regime],
            dtype_bytes,
            fleet.boot_overhead_s,
        )
        r = new_replica(
            victim.regime, ReplicaState.BOOTING, t + cold.total_s, billed_from=t
        )
        recovery_for[r.replica_id] = (failure_idx, cold.total_s)
        push(t + cold.total_s, "boot", r)

    def open_failure(t: float, rid: int, kind: str) -> int:
        fail_time.append(t)
        fail_rid.append(rid)
        fail_kind.append(kind)
        fail_act.append(0)
        fail_q.append(0)
        fail_rec.append(None)
        return len(fail_time) - 1

    def on_crash(rid: int, t: float) -> None:
        if rid >= len(replicas):
            return
        r = replicas[rid]
        if r.state not in (ReplicaState.RUNNING, ReplicaState.DRAINING):
            return
        idx = open_failure(t, rid, "crash")
        kill_replica(r, t, "crash", idx)
        if chaos is not None and chaos.recover:
            order_recovery(r, t, idx)

    def on_preempt(p: PreemptSpec, t: float) -> None:
        if p.replica >= len(replicas):
            return
        r = replicas[p.replica]
        if r.state is not ReplicaState.RUNNING:
            return
        idx = open_failure(t, p.replica, "preempt")
        r.transition_to(ReplicaState.DRAINING)
        if recorder is not None:
            recorder.on_preempt(t, p.replica, p.grace_s)
        if fleet.migrate_on_drain:
            migrate_queued(r, t)
        finish_if_drained(r, t)
        push(t + p.grace_s, "kill", (p.replica, idx))
        if chaos is not None and chaos.recover:
            order_recovery(r, t, idx)

    def on_kill(rid: int, idx: int, t: float) -> None:
        r = replicas[rid]
        if r.state is not ReplicaState.DRAINING:
            return  # drained clean inside the grace period; lost stays 0/0
        kill_replica(r, t, "preempt", idx)

    def on_retry_pop(q: FleetRequest, t: float) -> None:
        attempts[q.req_id] = attempts.get(q.req_id, 1) + 1
        attempt_started[q.req_id] = t
        on_arrival(q, t)

    def on_scale(t: float) -> None:
        assert autoscaler is not None  # caller gates on fleet.autoscale
        live = routable()
        booting = [r for r in replicas if r.state is ReplicaState.BOOTING]
        draining = [r for r in replicas if r.state is ReplicaState.DRAINING]
        # demand counts draining replicas' stranded queues too (they are
        # real pending work), capacity counts only replicas that can absorb
        queued = sum(r.queue_len for r in live + draining)
        decision = autoscaler.decide(queued, len(live), len(booting))
        per = autoscaler.last_queue_per_replica
        if decision == "up":
            # boot with the placement of the regime dominating queued work
            counts: Counter[int] = Counter()
            for r in live + draining:
                for queue in r.queues:
                    counts.update(q.regime for q in queue)
            regime = min(counts, key=lambda k: (-counts[k], k)) if counts else 0
            cold = price_cold_start(
                model,
                cluster,
                placements_by_regime[regime],
                dtype_bytes,
                fleet.boot_overhead_s,
            )
            r = new_replica(
                regime, ReplicaState.BOOTING, t + cold.total_s, billed_from=t
            )
            push(t + cold.total_s, "boot", r)
            scale_events.append(
                ScaleEvent(t, "up", per, len(live) + len(booting),
                           len(live) + len(booting) + 1, cold.total_s)
            )
            if recorder is not None:
                recorder.on_scale(t, "up", per, len(live) + len(booting),
                                  len(live) + len(booting) + 1, cold.total_s)
        elif decision == "down":
            victim = min(live, key=lambda r: (r.load, r.replica_id))
            victim.transition_to(ReplicaState.DRAINING)
            if recorder is not None:
                recorder.on_drain(t, victim.replica_id)
            if fleet.migrate_on_drain:
                migrate_queued(victim, t)
            finish_if_drained(victim, t)
            scale_events.append(
                ScaleEvent(t, "down", per, len(live) + len(booting),
                           len(live) + len(booting) - 1, 0.0)
            )
            if recorder is not None:
                recorder.on_scale(t, "down", per, len(live) + len(booting),
                                  len(live) + len(booting) - 1, 0.0)
        if done < total:
            push(t + fleet.autoscale_check_every_s, "scale", None)

    if profiler is not None:
        profiler.run_start()
    while heap:
        t, _, kind, data = heapq.heappop(heap)
        if kind == "arrival":
            on_arrival(cast(FleetRequest, data), t)
        elif kind == "step":
            r, dt, epoch = cast("tuple[Replica, float, int]", data)
            if epoch != r.epoch:
                continue  # stale: the replica was killed mid-step
            on_step_end(r, dt, t)
        elif kind == "boot":
            r = cast(Replica, data)
            r.transition_to(ReplicaState.RUNNING)
            peak_routable = max(peak_routable, len(routable()))
            if recorder is not None:
                recorder.on_boot_ready(t, r.replica_id)
            rec_info = recovery_for.pop(r.replica_id, None)
            if rec_info is not None:
                idx, cold_s = rec_info
                fail_rec[idx] = t
                if recorder is not None:
                    recorder.on_recover(t, r.replica_id, fail_rid[idx], cold_s)
        elif kind == "scale" and autoscaler is not None and done < total:
            on_scale(t)
        elif kind == "crash":
            on_crash(cast(int, data), t)
        elif kind == "preempt":
            on_preempt(cast(PreemptSpec, data), t)
        elif kind == "kill":
            rid, idx = cast("tuple[int, int]", data)
            on_kill(rid, idx, t)
        elif kind == "retry":
            on_retry_pop(cast(FleetRequest, data), t)
    if profiler is not None:
        profiler.run_end()

    def stats_at(sim_end: float) -> tuple[ReplicaStats, ...]:
        return tuple(r.stats(sim_end) for r in replicas)

    failures = tuple(
        FailureRecord(
            fail_time[i], fail_rid[i], fail_kind[i], fail_act[i], fail_q[i], fail_rec[i]
        )
        for i in range(len(fail_time))
    )
    return finalize_fleet_result(
        completed,
        shed,
        first_arrival,
        stats_at,
        scale_events,
        admission,
        peak_routable,
        cluster,
        recorder=recorder,
        failures=failures,
        lost=lost,
        retries=retries,
    )
