"""Vectorized tick-driven fleet engine: batch event processing per tick.

Same simulation as the event-heap oracle (:mod:`repro.fleet.reference`),
rebuilt for million-request fleets.  The oracle pops one heap event at a
time and walks Python objects per arrival; at 1M+ requests and 128
replicas that interpreter loop dominates wall time.  This engine keeps
the *simulated* semantics identical while changing the *host* execution
model:

* **Array state.**  Requests live as rows of parallel numpy arrays
  (arrival time, generate length, regime, priority lane, SLO); per-replica
  state (queue depth, load, EWMA step estimate, next-step deadline) is a
  column per replica; the in-flight decode batches are one
  ``(replica, slot)`` matrix per field.  Wait queues hold request *indices*
  in :class:`~repro.fleet.replica.ArrayQueue` lanes.
* **Windowed arrivals.**  Arrivals are pre-sorted, so instead of a heap
  the engine keeps a cursor and processes every arrival before the next
  replica event (step end, boot, autoscale tick) as one window — routing
  decisions and admission shedding evaluate as array operations over the
  whole window (:func:`~repro.fleet.router.jsq_select` and friends,
  :meth:`~repro.fleet.admission.AdmissionController.assess_codes`).
  Within a window replica state is frozen: sheds mutate nothing, so they
  batch; the first admission mutates load (and may wake an idle replica,
  creating an event inside the window), so the window re-opens there.
* **Event-order mirroring.**  The oracle breaks time ties by heap push
  sequence.  The engine assigns the same sequence numbers to the same
  pushes (arrivals are seqs ``0..N-1``, every dynamic event takes the
  next counter value) and selects the minimum ``(time, seq)`` event, so
  even exact ties resolve identically.
* **Shared kernels.**  Everything that touches the rng stream or float
  accumulation — grouped path sampling, step timing, admission formulas,
  router scoring, the result epilogue — is either shared code
  (:mod:`repro.fleet.result`) or mirrors the scalar expression order
  operation for operation.

``tests/test_fleet_equivalence.py`` holds this engine to the oracle's
exact :class:`~repro.fleet.result.FleetResult`; the routing policy is
``fleet.router``, and three of the four (round-robin, jsq, affinity) take
the fully vectorized window path, while p2c keeps a tight per-arrival
loop (its two uniform draws per decision are part of the simulated
semantics and cannot batch).
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.chaos.schedule import brownout_factor
from repro.chaos.spec import PreemptSpec
from repro.config import ClusterConfig, ExecutionMode, FleetConfig, ModelConfig
from repro.core.online import OnlineReplacer, ReplacementPolicy, model_kept_mass
from repro.core.placement.base import Placement
from repro.engine.metrics import LatencyStats
from repro.engine.serving import PlacementStepTimer
from repro.fleet.admission import ADMIT, SHED_REASONS, AdmissionController
from repro.fleet.autoscaler import ReactiveAutoscaler, ScaleEvent, price_cold_start
from repro.fleet.replica import _STEP_EWMA_ALPHA, ArrayQueue, ReplicaState, ReplicaStats
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
from repro.fleet.router import affinity_select, jsq_select, p2c_select, rr_positions
from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import MetricsRecorder, run_meta
from repro.trace.markov import MarkovRoutingModel

__all__ = ["simulate_fleet_tick"]

_INF = math.inf

# replica states as int8 codes (column ``state``); order mirrors the
# PENDING → BOOTING → RUNNING → DRAINING → FAILED/STOPPED lifecycle
_PENDING, _BOOTING, _RUNNING, _DRAINING, _FAILED, _STOPPED = 0, 1, 2, 3, 4, 5
_STATE_VALUES = (
    ReplicaState.PENDING.value,
    ReplicaState.BOOTING.value,
    ReplicaState.RUNNING.value,
    ReplicaState.DRAINING.value,
    ReplicaState.FAILED.value,
    ReplicaState.STOPPED.value,
)

# dynamic event kinds competing with the arrival cursor
_EV_STEP, _EV_BOOT, _EV_SCALE, _EV_CHAOS, _EV_NONE = 0, 1, 2, 3, 4

# chaos event codes inside the pending heap (payload discriminator)
_CH_CRASH, _CH_PREEMPT, _CH_KILL, _CH_RETRY = 0, 1, 2, 3


class _TickFleet:
    """All mutable simulation state of one tick-engine run."""

    def __init__(
        self,
        reqs: list[FleetRequest],
        model: ModelConfig,
        cluster: ClusterConfig,
        regimes: Sequence[MarkovRoutingModel],
        placements_by_regime: Sequence[Placement],
        fleet: FleetConfig,
        max_batch_requests: int,
        timer: PlacementStepTimer,
        replace_policy: ReplacementPolicy | None,
        replace_halflife_tokens: float | None,
        dtype_bytes: int,
        rng: np.random.Generator,
        recorder: MetricsRecorder | None = None,
        profiler: PhaseProfiler | None = None,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.regimes = regimes
        self.placements_by_regime = placements_by_regime
        self.fleet = fleet
        self.max_batch = max_batch_requests
        self.admission = admission = AdmissionController.from_config(fleet)
        self.timer = timer
        self.replace_policy = replace_policy
        self.replace_halflife = replace_halflife_tokens
        self.dtype_bytes = dtype_bytes
        self.rng = rng
        self.top2 = model.gating.k == 2
        self.g = cluster.num_gpus
        self.L = model.num_moe_layers
        self.num_lanes = len(admission.classes)

        self.policy = fleet.router
        self.rr_next = 0  # round-robin cursor over the routable ids
        # kept-mass rows per placement object (identity-keyed; storing the
        # placement keeps it alive so ids cannot be recycled)
        self._kept_cache: dict[int, tuple[Placement, np.ndarray]] = {}

        # -- request columns (sorted by (arrival_s, req_id) upstream) ----------
        self.reqs = reqs
        self.total = len(reqs)
        self.arr_t = np.array([q.arrival_s for q in reqs], dtype=np.float64)
        self.gen_len = np.array([q.generate_len for q in reqs], dtype=np.int64)
        self.prompt = np.array([q.prompt_len for q in reqs], dtype=np.int64)
        self.reg = np.array([q.regime for q in reqs], dtype=np.int64)
        pri = np.array([q.priority for q in reqs], dtype=np.int64)
        self.lane = np.minimum(pri, self.num_lanes - 1)
        self.slo = admission.slo_by_priority(pri)

        # -- replica columns ---------------------------------------------------
        cap = max(4, fleet.num_replicas)
        self.cap = cap
        self.num_replicas = 0
        self.state = np.full(cap, _STOPPED, dtype=np.int8)
        self.regime_of = np.zeros(cap, dtype=np.int64)
        self.booted_at = np.zeros(cap, dtype=np.float64)
        self.billed_from = np.zeros(cap, dtype=np.float64)
        self.stopped_at = np.full(cap, np.nan, dtype=np.float64)
        self.est_step = np.full(cap, np.nan, dtype=np.float64)
        self.busy = np.zeros(cap, dtype=np.float64)
        self.weighted = np.zeros(cap, dtype=np.float64)
        self.steps = np.zeros(cap, dtype=np.int64)
        self.served = np.zeros(cap, dtype=np.int64)
        self.replacements = np.zeros(cap, dtype=np.int64)
        self.mig_stall = np.zeros(cap, dtype=np.float64)
        self.admit_ctr = np.zeros(cap, dtype=np.int64)
        self.queue_len = np.zeros(cap, dtype=np.int64)
        self.load = np.zeros(cap, dtype=np.int64)
        self.stepping = np.zeros(cap, dtype=np.bool_)
        self.next_step_t = np.full(cap, _INF, dtype=np.float64)
        self.step_seq = np.zeros(cap, dtype=np.int64)
        self.step_dt = np.zeros(cap, dtype=np.float64)
        self.boot_t = np.full(cap, _INF, dtype=np.float64)
        self.boot_seq = np.zeros(cap, dtype=np.int64)
        self.n_act = np.zeros(cap, dtype=np.int64)
        mb = self.max_batch
        self.act_req = np.zeros((cap, mb), dtype=np.int64)
        self.act_tok = np.zeros((cap, mb), dtype=np.int64)
        self.act_gen = np.zeros((cap, mb), dtype=np.int64)
        self.act_home = np.zeros((cap, mb), dtype=np.int64)
        self.act_adm = np.zeros((cap, mb), dtype=np.float64)
        self.act_reg = np.zeros((cap, mb), dtype=np.int64)
        self.queues: list[list[ArrayQueue]] = []
        self.placements: list[Placement] = []
        self.replacers: list[OnlineReplacer | None] = []
        self.n_booting = 0

        # -- event bookkeeping (seqs mirror the oracle's heap pushes) ----------
        self.seq = self.total  # arrivals took 0..N-1
        self.cursor = 0
        self.done = 0
        self.first_arrival = float(self.arr_t[0])

        # -- telemetry (observation-only; the oracle fires the same hooks) ----
        self.recorder = recorder
        self.profiler = profiler
        if recorder is not None:
            recorder.on_run_start(self.first_arrival, run_meta(cluster))

        # -- outcome ledgers ---------------------------------------------------
        self.comp_i: list[int] = []
        self.comp_adm: list[float] = []
        self.comp_fin: list[float] = []
        self.comp_rid: list[int] = []
        self.shed_i: list[int] = []
        self.shed_time: list[float] = []
        self.shed_reason: list[str] = []
        self.shed_rid: list[int | None] = []
        self.scale_events: list[ScaleEvent] = []
        self.lost_i: list[int] = []
        self.lost_time: list[float] = []
        self.lost_rid: list[int] = []
        self.lost_att: list[int] = []
        self.lost_reason: list[str] = []
        self.retries = 0
        # failure records as parallel columns (same layout as the oracle:
        # lost counts land at kill time, recovery time at replacement boot)
        self.fail_time: list[float] = []
        self.fail_rid: list[int] = []
        self.fail_kind: list[str] = []
        self.fail_act: list[int] = []
        self.fail_q: list[int] = []
        self.fail_rec: list[float | None] = []
        self.recovery_for: dict[int, tuple[int, float]] = {}

        # -- chaos schedule (frozen spec; mirrors the oracle's heap pushes) ----
        self.chaos = fleet.chaos
        self.retry_pol = self.chaos.retry if self.chaos is not None else None
        self.attempt_timeout = (
            self.retry_pol.attempt_timeout_s if self.retry_pol is not None else None
        )
        # per-request attempt number and current-attempt start (the oracle's
        # dict defaults: attempt 1, started at arrival)
        self.att_n = np.ones(self.total, dtype=np.int64)
        self.att_start = self.arr_t.copy()
        # pending chaos events as (time, seq, code, payload); seqs continue
        # the shared counter so ties resolve exactly like the oracle's heap
        self.pending: list[tuple[float, int, int, object]] = []

        for i in range(fleet.num_replicas):
            self._new_replica(
                i % len(regimes), _RUNNING, booted_at=self.first_arrival
            )
        self._refresh_routable()
        self.peak_routable = fleet.num_replicas

        self.autoscaler = ReactiveAutoscaler(fleet) if fleet.autoscale else None
        if self.autoscaler is not None:
            self.scale_t = self.first_arrival + fleet.autoscale_check_every_s
            self.scale_seq = self._next_seq()
        else:
            self.scale_t = _INF
            self.scale_seq = -1
        if self.chaos is not None:
            # spec order fixes the seq tie-break, matching the oracle
            for c in self.chaos.crashes:
                heapq.heappush(
                    self.pending, (c.time_s, self._next_seq(), _CH_CRASH, c.replica)
                )
            for p in self.chaos.preemptions:
                heapq.heappush(
                    self.pending, (p.time_s, self._next_seq(), _CH_PREEMPT, p)
                )

    # -- infrastructure --------------------------------------------------------

    def _next_seq(self) -> int:
        s = self.seq
        self.seq += 1
        return s

    def _refresh_routable(self) -> None:
        self.routable_ids = np.flatnonzero(self.state[: self.num_replicas] == _RUNNING)

    def _grow(self) -> None:
        old = self.cap
        cap = 2 * old

        def wide(a: np.ndarray, fill: float | int) -> np.ndarray:
            out = np.full((cap, *a.shape[1:]), fill, dtype=a.dtype)
            out[:old] = a
            return out

        self.state = wide(self.state, _STOPPED)
        self.regime_of = wide(self.regime_of, 0)
        self.booted_at = wide(self.booted_at, 0.0)
        self.billed_from = wide(self.billed_from, 0.0)
        self.stopped_at = wide(self.stopped_at, np.nan)
        self.est_step = wide(self.est_step, np.nan)
        self.busy = wide(self.busy, 0.0)
        self.weighted = wide(self.weighted, 0.0)
        self.steps = wide(self.steps, 0)
        self.served = wide(self.served, 0)
        self.replacements = wide(self.replacements, 0)
        self.mig_stall = wide(self.mig_stall, 0.0)
        self.admit_ctr = wide(self.admit_ctr, 0)
        self.queue_len = wide(self.queue_len, 0)
        self.load = wide(self.load, 0)
        self.stepping = wide(self.stepping, False)
        self.next_step_t = wide(self.next_step_t, _INF)
        self.step_seq = wide(self.step_seq, 0)
        self.step_dt = wide(self.step_dt, 0.0)
        self.boot_t = wide(self.boot_t, _INF)
        self.boot_seq = wide(self.boot_seq, 0)
        self.n_act = wide(self.n_act, 0)
        self.act_req = wide(self.act_req, 0)
        self.act_tok = wide(self.act_tok, 0)
        self.act_gen = wide(self.act_gen, 0)
        self.act_home = wide(self.act_home, 0)
        self.act_adm = wide(self.act_adm, 0.0)
        self.act_reg = wide(self.act_reg, 0)
        self.cap = cap

    def _new_replica(
        self,
        regime: int,
        state: int,
        booted_at: float,
        billed_from: float | None = None,
    ) -> int:
        rid = self.num_replicas
        if rid == self.cap:
            self._grow()
        replacer: OnlineReplacer | None = None
        if self.fleet.replace:
            # same rng draw (and position in the stream) as the oracle:
            # each replica seeds its own replacer estimator
            replacer = OnlineReplacer(
                self.model,
                self.cluster,
                policy=self.replace_policy or ReplacementPolicy(),
                halflife_tokens=self.replace_halflife,
                dtype_bytes=self.dtype_bytes,
                rng=np.random.default_rng(self.rng.integers(2**31)),
            )
        self.state[rid] = state
        self.regime_of[rid] = regime
        self.booted_at[rid] = booted_at
        self.billed_from[rid] = booted_at if billed_from is None else billed_from
        self.placements.append(self.placements_by_regime[regime])
        self.replacers.append(replacer)
        self.queues.append([ArrayQueue() for _ in range(self.num_lanes)])
        self.num_replicas = rid + 1
        if state == _BOOTING:
            self.n_booting += 1
        if self.recorder is not None:
            billed = float(self.billed_from[rid])
            self.recorder.on_replica_start(
                billed, rid, regime, state == _BOOTING, booted_at, billed
            )
        return rid

    def _kept_row(self, placement: Placement) -> np.ndarray:
        """Kept-mass of one placement under every regime."""
        hit = self._kept_cache.get(id(placement))
        if hit is not None and hit[0] is placement:
            return hit[1]
        row = np.array(
            [model_kept_mass(placement, m) for m in self.regimes],
            dtype=np.float64,
        )
        self._kept_cache[id(placement)] = (placement, row)
        return row

    def _affinity_pick(self, cands: np.ndarray, regime: int) -> int:
        """The affinity router's choice among candidate replica ids."""
        kept = np.array(
            [self._kept_row(self.placements[int(r)])[regime] for r in cands],
            dtype=np.float64,
        )
        loads = self.load[cands]
        scores = kept - (self.fleet.affinity_load_weight * loads) / self.max_batch
        return int(cands[affinity_select(scores, loads, cands)])

    def _choose_one(self, req_idx: int, cands: np.ndarray) -> int:
        """Scalar routing decision (the migration path), candidate ids given."""
        if self.policy == "round-robin":
            chosen = int(cands[self.rr_next % cands.size])
            self.rr_next += 1
            return chosen
        if self.policy == "jsq":
            return int(cands[jsq_select(self.load[cands])])
        if self.policy == "p2c":
            return int(cands[p2c_select(self.load[cands], cands, self.rng)])
        return self._affinity_pick(cands, int(self.reg[req_idx]))

    # -- replica transitions ---------------------------------------------------

    def _enqueue(self, req_idx: int, rid: int) -> None:
        self.queues[rid][int(self.lane[req_idx])].push(req_idx)
        self.queue_len[rid] += 1
        self.load[rid] += 1

    def _finish_if_drained(self, rid: int, t: float) -> None:
        if (
            self.state[rid] == _DRAINING
            and self.n_act[rid] == 0
            and self.queue_len[rid] == 0
        ):
            self.state[rid] = _STOPPED
            self.stopped_at[rid] = t
            if self.recorder is not None:
                self.recorder.on_stop(t, rid)

    def _start_step(self, rid: int, t: float) -> None:
        """Admit at the boundary and launch one decode step (or go idle)."""
        free = self.max_batch - int(self.n_act[rid])
        popped: np.ndarray | None = None
        if free > 0 and self.queue_len[rid] > 0:
            if self.attempt_timeout is None:
                parts = []
                for lane in self.queues[rid]:
                    if free <= 0:
                        break
                    if len(lane):
                        got = lane.pop_many(free)
                        free -= got.size
                        parts.append(got)
                popped = parts[0] if len(parts) == 1 else np.concatenate(parts)
            else:
                # scalar mirror of Replica.admit_with_timeout: expiry is
                # evaluated lazily per pop, timed-out pops consume no slot
                to = self.attempt_timeout
                adm_l: list[int] = []
                timed: list[int] = []
                for lane in self.queues[rid]:
                    while len(lane) and len(adm_l) < free:
                        i = int(lane.pop_many(1)[0])
                        if t - float(self.att_start[i]) > to:
                            timed.append(i)
                        else:
                            adm_l.append(i)
                    if len(adm_l) >= free:
                        break
                if timed:
                    self.queue_len[rid] -= len(timed)
                    self.load[rid] -= len(timed)
                    for i in timed:
                        self._fail_attempt(i, t, rid, "timeout", was_active=False)
                popped = np.array(adm_l, dtype=np.int64)
        if popped is not None and popped.size:
            m = popped.size
            base = int(self.n_act[rid])
            sl = slice(base, base + m)
            self.act_req[rid, sl] = popped
            self.act_tok[rid, sl] = self.gen_len[popped]
            self.act_gen[rid, sl] = 0
            homes = (int(self.admit_ctr[rid]) + np.arange(m, dtype=np.int64)) % self.g
            self.act_home[rid, sl] = homes
            self.act_adm[rid, sl] = t
            self.act_reg[rid, sl] = self.reg[popped]
            self.admit_ctr[rid] += m
            self.n_act[rid] = base + m
            self.queue_len[rid] -= m
            profiler = self.profiler
            _pt = perf_counter() if profiler is not None else 0.0
            adm = self.timer.admission_time(homes, self.prompt[popped])
            if profiler is not None:
                profiler.add("pricing", perf_counter() - _pt)
            if self.recorder is not None:
                self.recorder.on_admit(
                    t, rid, [self.reqs[i].req_id for i in popped.tolist()], adm
                )
            if adm > 0:
                t += adm
                self.busy[rid] += adm
                self.weighted[rid] += int(self.n_act[rid]) * adm
        n = int(self.n_act[rid])
        if n == 0:
            self.stepping[rid] = False
            self.next_step_t[rid] = _INF
            self._finish_if_drained(rid, t)
            return
        regs = self.act_reg[rid, :n]
        profiler = self.profiler
        _pt = perf_counter() if profiler is not None else 0.0
        paths = sample_paths_grouped(regs, self.regimes, self.rng, self.L)
        secondary = (
            sample_paths_grouped(regs, self.regimes, self.rng, self.L)
            if self.top2
            else None
        )
        if profiler is not None:
            profiler.add("pricing", perf_counter() - _pt)
        replacer = self.replacers[rid]
        if replacer is not None:
            replacer.observe(paths)
        home = self.act_home[rid, :n]
        ctx = self.prompt[self.act_req[rid, :n]] + self.act_gen[rid, :n]
        _pt = perf_counter() if profiler is not None else 0.0
        dt = self.timer.step_time(paths, home, ctx, self.placements[rid], secondary)
        if profiler is not None:
            profiler.add("pricing", perf_counter() - _pt)
        if self.chaos is not None and self.chaos.brownouts:
            f = brownout_factor(self.chaos.brownouts, rid, t)
            if f != 1.0:
                dt = dt * f
        if not dt > 0:
            raise ValueError(f"step_time must be positive seconds, got {dt}")
        self.stepping[rid] = True
        self.step_dt[rid] = dt
        self.next_step_t[rid] = t + dt
        self.step_seq[rid] = self._next_seq()

    def _on_step_end(self, rid: int, t: float) -> None:
        dt = float(self.step_dt[rid])
        n = int(self.n_act[rid])
        self.steps[rid] += 1
        self.busy[rid] += dt
        self.weighted[rid] += n * dt
        est = float(self.est_step[rid])
        self.est_step[rid] = dt if est != est else est + _STEP_EWMA_ALPHA * (dt - est)
        if self.recorder is not None:
            self.recorder.on_step_end(t, rid, dt, n)
        toks = self.act_tok[rid, :n]
        toks -= 1
        self.act_gen[rid, :n] += 1
        fin = toks == 0
        m = int(np.count_nonzero(fin))
        if m:
            fidx = np.flatnonzero(fin)
            self.comp_i.extend(self.act_req[rid, fidx].tolist())
            self.comp_adm.extend(self.act_adm[rid, fidx].tolist())
            self.comp_fin.extend([t] * m)
            self.comp_rid.extend([rid] * m)
            self.served[rid] += m
            self.done += m
            self.load[rid] -= m
            if self.recorder is not None:
                adm_rows = self.act_adm[rid, fidx].tolist()
                for ri, adm_s in zip(
                    self.act_req[rid, fidx].tolist(), adm_rows, strict=True
                ):
                    q = self.reqs[ri]
                    self.recorder.on_complete(t, rid, q.req_id, q.arrival_s, adm_s, q.generate_len)
            keep = np.flatnonzero(~fin)
            kn = keep.size
            if kn:
                self.act_req[rid, :kn] = self.act_req[rid, keep]
                self.act_tok[rid, :kn] = self.act_tok[rid, keep]
                self.act_gen[rid, :kn] = self.act_gen[rid, keep]
                self.act_home[rid, :kn] = self.act_home[rid, keep]
                self.act_adm[rid, :kn] = self.act_adm[rid, keep]
                self.act_reg[rid, :kn] = self.act_reg[rid, keep]
            self.n_act[rid] = kn
        t_next = t
        replacer = self.replacers[rid]
        if replacer is not None:
            result = replacer.maybe_replace(
                int(self.steps[rid]), t, self.placements[rid]
            )
            if result is not None:
                self.placements[rid], event = result
                self.replacements[rid] += 1
                self.mig_stall[rid] += event.stall_s
                t_next = t + event.stall_s
        self._start_step(rid, t_next)

    def _on_boot(self, rid: int, t: float) -> None:
        self.state[rid] = _RUNNING
        self.boot_t[rid] = _INF
        self.n_booting -= 1
        self._refresh_routable()
        self.peak_routable = max(self.peak_routable, int(self.routable_ids.size))
        if self.recorder is not None:
            self.recorder.on_boot_ready(t, rid)
        info = self.recovery_for.pop(rid, None)
        if info is not None:
            idx, cold_s = info
            self.fail_rec[idx] = t
            if self.recorder is not None:
                self.recorder.on_recover(t, rid, self.fail_rid[idx], cold_s)

    def _migrate_queued(self, victim: int, t: float) -> None:
        """Re-route a draining replica's queued requests (oracle semantics)."""
        parts = [lane.drain() for lane in self.queues[victim]]
        orphans = np.concatenate(parts)
        if orphans.size == 0:
            return
        self.queue_len[victim] = 0
        self.load[victim] -= orphans.size
        if self.recorder is not None:
            self.recorder.on_requeue(t, victim, int(orphans.size))
        cap = self.fleet.max_queue_per_replica
        for i in orphans.tolist():
            rids = self.routable_ids
            targets = rids[self.queue_len[rids] < cap]
            if targets.size == 0:
                self._enqueue(i, victim)  # nowhere with room: drain in place
                if self.recorder is not None:
                    self.recorder.on_enqueue(t, victim, self.reqs[i].req_id)
                continue
            rid = self._choose_one(i, targets)
            self._enqueue(i, rid)
            if self.recorder is not None:
                self.recorder.on_enqueue(t, rid, self.reqs[i].req_id)
            if not self.stepping[rid]:
                self._start_step(rid, t)

    # -- chaos (mirrors the oracle's handlers event for event) -----------------

    def _fail_attempt(
        self, req_idx: int, t: float, rid: int, reason: str, was_active: bool
    ) -> None:
        """One attempt of request ``req_idx`` died on ``rid``: retry or lose."""
        n = int(self.att_n[req_idx])
        pol = self.retry_pol
        q = self.reqs[req_idx]
        if pol is not None and n < pol.max_attempts:
            delay = pol.backoff_s(n)
            self.retries += 1
            heapq.heappush(
                self.pending, (t + delay, self._next_seq(), _CH_RETRY, req_idx)
            )
            if self.recorder is not None:
                self.recorder.on_retry(t, q.req_id, rid, n, delay, was_active)
        else:
            self.lost_i.append(req_idx)
            self.lost_time.append(t)
            self.lost_rid.append(rid)
            self.lost_att.append(n)
            self.lost_reason.append(reason)
            self.done += 1
            if self.recorder is not None:
                self.recorder.on_lost(t, q.req_id, rid, n, reason, was_active)

    def _open_failure(self, t: float, rid: int, kind: str) -> int:
        self.fail_time.append(t)
        self.fail_rid.append(rid)
        self.fail_kind.append(kind)
        self.fail_act.append(0)
        self.fail_q.append(0)
        self.fail_rec.append(None)
        return len(self.fail_time) - 1

    def _kill_replica(self, rid: int, t: float, kind: str, idx: int) -> None:
        """Hard-stop ``rid``: destroy the batch and queue (oracle order —
        active slots first, then lane-FCFS queue)."""
        n = int(self.n_act[rid])
        doomed_active = self.act_req[rid, :n].tolist()
        parts = [lane.drain() for lane in self.queues[rid]]
        doomed_queued = np.concatenate(parts).tolist()
        self.fail_act[idx] += n
        self.fail_q[idx] += len(doomed_queued)
        self.n_act[rid] = 0
        self.queue_len[rid] = 0
        self.load[rid] = 0
        self.state[rid] = _FAILED
        self.stopped_at[rid] = t
        self.stepping[rid] = False
        self.next_step_t[rid] = _INF
        self._refresh_routable()
        if self.recorder is not None:
            self.recorder.on_fail(t, rid, kind, n, len(doomed_queued))
        for i in doomed_active:
            self._fail_attempt(i, t, rid, kind, was_active=True)
        for i in doomed_queued:
            self._fail_attempt(i, t, rid, kind, was_active=False)

    def _order_recovery(self, victim: int, t: float, idx: int) -> None:
        """Boot a replacement for ``victim`` through the priced cold start."""
        regime = int(self.regime_of[victim])
        cold = price_cold_start(
            self.model,
            self.cluster,
            self.placements_by_regime[regime],
            self.dtype_bytes,
            self.fleet.boot_overhead_s,
        )
        rid = self._new_replica(
            regime, _BOOTING, booted_at=t + cold.total_s, billed_from=t
        )
        self.boot_t[rid] = t + cold.total_s
        self.boot_seq[rid] = self._next_seq()
        self.recovery_for[rid] = (idx, cold.total_s)

    def _on_crash(self, rid: int, t: float) -> None:
        if rid >= self.num_replicas:
            return
        st = int(self.state[rid])
        if st != _RUNNING and st != _DRAINING:
            return
        idx = self._open_failure(t, rid, "crash")
        self._kill_replica(rid, t, "crash", idx)
        if self.chaos is not None and self.chaos.recover:
            self._order_recovery(rid, t, idx)

    def _on_preempt(self, p: PreemptSpec, t: float) -> None:
        rid = p.replica
        if rid >= self.num_replicas or int(self.state[rid]) != _RUNNING:
            return
        idx = self._open_failure(t, rid, "preempt")
        self.state[rid] = _DRAINING
        self._refresh_routable()
        if self.recorder is not None:
            self.recorder.on_preempt(t, rid, p.grace_s)
        if self.fleet.migrate_on_drain:
            self._migrate_queued(rid, t)
        self._finish_if_drained(rid, t)
        heapq.heappush(
            self.pending, (t + p.grace_s, self._next_seq(), _CH_KILL, (rid, idx))
        )
        if self.chaos is not None and self.chaos.recover:
            self._order_recovery(rid, t, idx)

    def _on_kill(self, rid: int, idx: int, t: float) -> None:
        if int(self.state[rid]) != _DRAINING:
            return  # drained clean inside the grace period; lost stays 0/0
        self._kill_replica(rid, t, "preempt", idx)

    def _retry_arrival(self, i: int, t: float) -> None:
        """Scalar re-admission of a retried request (oracle's on_arrival)."""
        rids = self.routable_ids
        q = self.reqs[i]
        if rids.size == 0:
            self.shed_i.append(i)
            self.shed_time.append(t)
            self.shed_reason.append("no-capacity")
            self.shed_rid.append(None)
            self.done += 1
            if self.recorder is not None:
                self.recorder.on_shed(t, q.req_id, None, "no-capacity")
            return
        rid = self._choose_one(i, rids)
        ql = int(self.queue_len[rid])
        reason: str | None
        if ql >= self.admission.max_queue_per_replica:
            reason = "queue-full"
        else:
            # same scalar expression order as _arrivals_p2c / the oracle's
            # AdmissionController.assess, so floats agree bit for bit
            e = float(self.est_step[rid])
            gen = int(self.gen_len[i])
            deadline = (
                e == e
                and ql * gen * e / self.max_batch + gen * e
                > self.admission.shed_slack * float(self.slo[i])
            )
            reason = "deadline" if deadline else None
        if reason is not None:
            self.shed_i.append(i)
            self.shed_time.append(t)
            self.shed_reason.append(reason)
            self.shed_rid.append(rid)
            self.done += 1
            if self.recorder is not None:
                self.recorder.on_shed(t, q.req_id, rid, reason)
            return
        self._enqueue(i, rid)
        if self.recorder is not None:
            self.recorder.on_enqueue(t, rid, q.req_id)
        if not self.stepping[rid]:
            self._start_step(rid, t)

    def _on_retry(self, req_idx: int, t: float) -> None:
        self.att_n[req_idx] += 1
        self.att_start[req_idx] = t
        self._retry_arrival(req_idx, t)

    def _on_chaos(self, t: float) -> None:
        _, _, code, data = heapq.heappop(self.pending)
        if code == _CH_CRASH:
            self._on_crash(int(data), t)  # type: ignore[call-overload]
        elif code == _CH_PREEMPT:
            assert isinstance(data, PreemptSpec)
            self._on_preempt(data, t)
        elif code == _CH_KILL:
            rid, idx = data  # type: ignore[misc]
            self._on_kill(rid, idx, t)
        else:
            self._on_retry(int(data), t)  # type: ignore[call-overload]

    def _on_scale(self, t: float) -> None:
        assert self.autoscaler is not None
        n = self.num_replicas
        st = self.state[:n]
        live = self.routable_ids
        booting = self.n_booting
        draining = np.flatnonzero(st == _DRAINING)
        demand = np.concatenate([live, draining])
        decision = self.autoscaler.decide_from_depths(
            self.queue_len[demand], int(live.size), booting
        )
        per = self.autoscaler.last_queue_per_replica
        if decision == "up":
            # boot with the placement of the regime dominating queued work
            counts = np.zeros(len(self.regimes), dtype=np.int64)
            for rid in demand.tolist():
                for lane in self.queues[rid]:
                    view = lane.view()
                    if view.size:
                        counts += np.bincount(
                            self.reg[view], minlength=len(self.regimes)
                        )
            regime = int(np.argmax(counts)) if int(counts.sum()) else 0
            cold = price_cold_start(
                self.model,
                self.cluster,
                self.placements_by_regime[regime],
                self.dtype_bytes,
                self.fleet.boot_overhead_s,
            )
            rid = self._new_replica(
                regime, _BOOTING, booted_at=t + cold.total_s, billed_from=t
            )
            self.boot_t[rid] = t + cold.total_s
            self.boot_seq[rid] = self._next_seq()
            self.scale_events.append(
                ScaleEvent(t, "up", per, int(live.size) + booting,
                           int(live.size) + booting + 1, cold.total_s)
            )
            if self.recorder is not None:
                self.recorder.on_scale(t, "up", per, int(live.size) + booting,
                                       int(live.size) + booting + 1, cold.total_s)
        elif decision == "down":
            victim = int(live[np.argmin(self.load[live])])
            self.state[victim] = _DRAINING
            self._refresh_routable()
            if self.recorder is not None:
                self.recorder.on_drain(t, victim)
            if self.fleet.migrate_on_drain:
                self._migrate_queued(victim, t)
            self._finish_if_drained(victim, t)
            self.scale_events.append(
                ScaleEvent(t, "down", per, int(live.size) + booting,
                           int(live.size) + booting - 1, 0.0)
            )
            if self.recorder is not None:
                self.recorder.on_scale(t, "down", per, int(live.size) + booting,
                                       int(live.size) + booting - 1, 0.0)
        if self.done < self.total:
            self.scale_t = t + self.fleet.autoscale_check_every_s
            self.scale_seq = self._next_seq()
        else:
            self.scale_t = _INF

    # -- arrival windows -------------------------------------------------------

    def _record_sheds(
        self, lo: int, hi: int, chosen: np.ndarray, codes: np.ndarray
    ) -> None:
        self.shed_i.extend(range(lo, hi))
        self.shed_time.extend(self.arr_t[lo:hi].tolist())
        self.shed_rid.extend(chosen.tolist())
        self.shed_reason.extend(
            SHED_REASONS[int(c)] or "" for c in codes.tolist()
        )
        self.done += hi - lo
        if self.recorder is not None:
            for i, rid, c in zip(
                range(lo, hi), chosen.tolist(), codes.tolist(), strict=True
            ):
                self.recorder.on_shed(
                    float(self.arr_t[i]),
                    self.reqs[i].req_id,
                    int(rid),
                    SHED_REASONS[int(c)] or "",
                )

    def _arrivals_chunk(self, cur: int, hi: int) -> tuple[int, bool]:
        """One frozen-state pass for round-robin / jsq / affinity windows."""
        k = hi - cur
        rids = self.routable_ids
        profiler = self.profiler
        _pt = perf_counter() if profiler is not None else 0.0
        if self.policy == "round-robin":
            chosen = rids[rr_positions(self.rr_next, k, rids.size)]
        elif self.policy == "jsq":
            chosen = np.full(
                k, int(rids[jsq_select(self.load[rids])]), dtype=np.int64
            )
        else:
            regs = self.reg[cur:hi]
            chosen = np.empty(k, dtype=np.int64)
            for kreg in np.unique(regs):
                chosen[regs == kreg] = self._affinity_pick(rids, int(kreg))
        if profiler is not None:
            profiler.add("routing", perf_counter() - _pt)
            _pt = perf_counter()
        codes = self.admission.assess_codes(
            self.gen_len[cur:hi],
            self.slo[cur:hi],
            self.queue_len[chosen],
            self.est_step[chosen],
            self.max_batch,
        )
        if profiler is not None:
            profiler.add("admission", perf_counter() - _pt)
        admits = codes == ADMIT
        first = int(np.argmax(admits)) if admits.any() else k
        if first > 0:
            self._record_sheds(cur, cur + first, chosen[:first], codes[:first])
        consumed = first
        woke = False
        if first < k:
            rid = int(chosen[first])
            self._enqueue(cur + first, rid)
            if self.recorder is not None:
                self.recorder.on_enqueue(
                    float(self.arr_t[cur + first]), rid, self.reqs[cur + first].req_id
                )
            consumed += 1
            if not self.stepping[rid]:
                self._start_step(rid, float(self.arr_t[cur + first]))
                woke = True
        if self.policy == "round-robin":
            self.rr_next += consumed
        return cur + consumed, woke

    def _arrivals_p2c(self, cur: int, hi: int) -> tuple[int, bool]:
        """Per-arrival p2c loop: each decision consumes its own rng draws."""
        rng = self.rng
        rids = self.routable_ids
        ncand = rids.size
        load = self.load
        qlen = self.queue_len
        est = self.est_step
        mb = self.max_batch
        slack = self.admission.shed_slack
        qcap = self.admission.max_queue_per_replica
        rec = self.recorder
        profiler = self.profiler
        i = cur
        while i < hi:
            _pt = perf_counter() if profiler is not None else 0.0
            if ncand == 1:
                rid = int(rids[0])
            else:
                a_, b_ = rng.choice(ncand, size=2, replace=False)
                ra, rb = int(rids[int(a_)]), int(rids[int(b_)])
                rid = rb if (load[rb], rb) < (load[ra], ra) else ra
            if profiler is not None:
                profiler.add("routing", perf_counter() - _pt)
                _pt = perf_counter()
            ql = int(qlen[rid])
            if ql >= qcap:
                if profiler is not None:
                    profiler.add("admission", perf_counter() - _pt)
                self.shed_i.append(i)
                self.shed_time.append(float(self.arr_t[i]))
                self.shed_reason.append("queue-full")
                self.shed_rid.append(rid)
                self.done += 1
                if rec is not None:
                    rec.on_shed(float(self.arr_t[i]), self.reqs[i].req_id, rid, "queue-full")
            else:
                e = float(est[rid])
                gen = int(self.gen_len[i])
                deadline = e == e and ql * gen * e / mb + gen * e > slack * float(self.slo[i])
                if profiler is not None:
                    profiler.add("admission", perf_counter() - _pt)
                if deadline:
                    self.shed_i.append(i)
                    self.shed_time.append(float(self.arr_t[i]))
                    self.shed_reason.append("deadline")
                    self.shed_rid.append(rid)
                    self.done += 1
                    if rec is not None:
                        rec.on_shed(float(self.arr_t[i]), self.reqs[i].req_id, rid, "deadline")
                else:
                    self._enqueue(i, rid)
                    if rec is not None:
                        rec.on_enqueue(float(self.arr_t[i]), rid, self.reqs[i].req_id)
                    if not self.stepping[rid]:
                        self._start_step(rid, float(self.arr_t[i]))
                        return i + 1, True
            i += 1
        return hi, False

    def _arrivals_until(self, bound_t: float) -> None:
        """Consume every arrival strictly before the next dynamic event."""
        hi = (
            self.total
            if bound_t == _INF
            else int(np.searchsorted(self.arr_t, bound_t, side="right"))
        )
        cur = self.cursor
        while cur < hi:
            if self.routable_ids.size == 0:
                # transient hole (every replica booting/draining): shed the
                # whole window honestly — nothing can change state before
                # the bounding event, so this is exact
                self.shed_i.extend(range(cur, hi))
                self.shed_time.extend(self.arr_t[cur:hi].tolist())
                self.shed_reason.extend(["no-capacity"] * (hi - cur))
                self.shed_rid.extend([None] * (hi - cur))
                self.done += hi - cur
                if self.recorder is not None:
                    for i in range(cur, hi):
                        self.recorder.on_shed(
                            float(self.arr_t[i]), self.reqs[i].req_id, None, "no-capacity"
                        )
                cur = hi
                break
            if self.policy == "p2c":
                cur, woke = self._arrivals_p2c(cur, hi)
            else:
                cur, woke = self._arrivals_chunk(cur, hi)
            if woke:
                # the admit woke an idle replica: its new step event may
                # land inside this window, so re-derive the bound
                break
        self.cursor = cur

    # -- main loop -------------------------------------------------------------

    def _pick_event(self) -> tuple[int, float, int]:
        """The earliest dynamic event as ``(kind, time, replica)``.

        Ties resolve by stored sequence number — exactly the oracle's
        heap order.
        """
        n = self.num_replicas
        ts = self.next_step_t[:n]
        j = int(np.argmin(ts))
        t_step = float(ts[j])
        best_kind, best_t, best_seq, best_rid = _EV_STEP, t_step, 0, j
        if t_step < _INF:
            ties = np.flatnonzero(ts == t_step)
            if ties.size > 1:
                j = int(ties[np.argmin(self.step_seq[:n][ties])])
                best_rid = j
            best_seq = int(self.step_seq[j])
        if self.n_booting:
            bt = self.boot_t[:n]
            b = int(np.argmin(bt))
            t_boot = float(bt[b])
            if t_boot < _INF:
                ties = np.flatnonzero(bt == t_boot)
                if ties.size > 1:
                    b = int(ties[np.argmin(self.boot_seq[:n][ties])])
                if best_t == _INF or (t_boot, int(self.boot_seq[b])) < (best_t, best_seq):
                    best_kind, best_t, best_seq, best_rid = (
                        _EV_BOOT, t_boot, int(self.boot_seq[b]), b,
                    )
        if self.scale_t < _INF and (
            best_t == _INF or (self.scale_t, self.scale_seq) < (best_t, best_seq)
        ):
            best_kind, best_t, best_seq, best_rid = (
                _EV_SCALE, self.scale_t, self.scale_seq, -1,
            )
        if self.pending:
            ch_t, ch_seq = self.pending[0][0], self.pending[0][1]
            if best_t == _INF or (ch_t, ch_seq) < (best_t, best_seq):
                best_kind, best_t, best_rid = _EV_CHAOS, ch_t, -1
        return best_kind, best_t, best_rid

    def run(self) -> FleetResult:
        if self.profiler is not None:
            self.profiler.run_start()
        while True:
            kind, ev_t, ev_rid = self._pick_event()
            if self.cursor < self.total and self.arr_t[self.cursor] <= ev_t:
                self._arrivals_until(ev_t)
                continue
            if ev_t == _INF:
                break
            if kind == _EV_STEP:
                self._on_step_end(ev_rid, ev_t)
            elif kind == _EV_BOOT:
                self._on_boot(ev_rid, ev_t)
            elif kind == _EV_CHAOS:
                self._on_chaos(ev_t)
            elif self.done < self.total:
                self._on_scale(ev_t)
            else:
                self.scale_t = _INF
        if self.profiler is not None:
            self.profiler.run_end()

        completed = [
            FleetCompleted(self.reqs[i], adm, fin, rid)
            for i, adm, fin, rid in zip(
                self.comp_i, self.comp_adm, self.comp_fin, self.comp_rid, strict=True
            )
        ]
        shed = [
            ShedRecord(self.reqs[i], t, reason, rid)
            for i, t, reason, rid in zip(
                self.shed_i, self.shed_time, self.shed_reason, self.shed_rid, strict=True
            )
        ]
        lost = [
            LostRecord(self.reqs[i], t, rid, att, reason)
            for i, t, rid, att, reason in zip(
                self.lost_i,
                self.lost_time,
                self.lost_rid,
                self.lost_att,
                self.lost_reason,
                strict=True,
            )
        ]
        failures = tuple(
            FailureRecord(
                self.fail_time[i],
                self.fail_rid[i],
                self.fail_kind[i],
                self.fail_act[i],
                self.fail_q[i],
                self.fail_rec[i],
            )
            for i in range(len(self.fail_time))
        )
        return finalize_fleet_result(
            completed,
            shed,
            self.first_arrival,
            self._stats_at,
            self.scale_events,
            self.admission,
            self.peak_routable,
            self.cluster,
            recorder=self.recorder,
            failures=failures,
            lost=lost,
            retries=self.retries,
        )

    def _stats_at(self, sim_end: float) -> tuple[ReplicaStats, ...]:
        out = []
        for rid in range(self.num_replicas):
            stop_raw = float(self.stopped_at[rid])
            stopped = None if stop_raw != stop_raw else stop_raw
            busy = float(self.busy[rid])
            end = sim_end if stopped is None else stopped
            gpu_h = max(0.0, end - float(self.billed_from[rid])) * self.g / 3600.0
            # same expression as Replica.stats, so the two engines report
            # bit-identical utilization
            life_s = end - float(self.booted_at[rid])
            out.append(
                ReplicaStats(
                    replica_id=rid,
                    regime=int(self.regime_of[rid]),
                    final_state=_STATE_VALUES[int(self.state[rid])],
                    served=int(self.served[rid]),
                    decode_steps=int(self.steps[rid]),
                    busy_s=busy,
                    mean_batch_size=float(self.weighted[rid]) / busy if busy > 0 else 0.0,
                    replacements=int(self.replacements[rid]),
                    migration_stall_s=float(self.mig_stall[rid]),
                    booted_at_s=float(self.booted_at[rid]),
                    stopped_at_s=stopped,
                    gpu_hours=gpu_h,
                    utilization=min(1.0, busy / life_s) if life_s > 0 else 0.0,
                )
            )
        return tuple(out)


def simulate_fleet_tick(
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
    """Tick-engine counterpart of
    :func:`~repro.fleet.reference.simulate_fleet_reference` — same
    signature, bit-identical :class:`~repro.fleet.result.FleetResult`.
    """
    reqs = sorted(requests, key=lambda q: (q.arrival_s, q.req_id))
    validate_fleet_inputs(
        reqs, model, regimes, placements_by_regime, fleet, max_batch_requests
    )

    rng = rng or np.random.default_rng(0)
    timer = timer or PlacementStepTimer(model, cluster, mode=mode, dtype_bytes=dtype_bytes)

    empty_stats = LatencyStats.from_samples([])
    if not reqs:
        return FleetResult((), (), empty_stats, empty_stats, 0.0, (), (), {})

    sim = _TickFleet(
        reqs,
        model,
        cluster,
        regimes,
        placements_by_regime,
        fleet,
        max_batch_requests,
        timer,
        replace_policy,
        replace_halflife_tokens,
        dtype_bytes,
        rng,
        recorder=recorder,
        profiler=profiler,
    )
    return sim.run()
