"""Request-level serving layer: arrivals, continuous batching, tail latency.

The batch engine answers "how long does one lockstep decode iteration
take"; this module answers the production question layered on top of it:
what latency distribution do *users* see when requests arrive continuously
— the "heavy traffic from millions of users" scenario family.

Three pieces compose:

* **Arrival processes** — :func:`poisson_arrivals` (memoryless open-loop
  traffic) and :func:`bursty_arrivals` (a two-state Markov-modulated
  Poisson process: flash-crowd bursts at ``burst_factor`` times the base
  rate, with the calm state slowed so the long-run mean rate is preserved).
* **Continuous batching** — :func:`continuous_batching` runs the iteration-
  level scheduler production MoE servers use: one global decode batch;
  waiting requests join at step boundaries whenever a slot is free, and
  finished requests leave immediately (no head-of-line blocking on the
  longest request in a static batch).
* **Step pricing** — a :class:`StepPricer` tells the loop what each step
  costs.  :class:`CurvePricer` wraps :func:`engine_step_time`, which
  probes the vectorized engine
  (:func:`repro.engine.executor.simulate_inference`) at a handful of
  batch sizes and interpolates.  :class:`DriftPricer` prices every step
  from its own sampled routing with :class:`PlacementStepTimer` under a
  placement that an :class:`~repro.core.online.OnlineReplacer` may
  rewrite mid-run.

``repro.run`` wires them together for ``serving`` scenarios (curve) and
``online`` scenarios (drift).

Requests are columnar outside the running batch.  The arrival processes
return one :class:`Arrivals` value — a float64 time column plus the
request lengths — that is still a ``Sequence[Request]`` and builds each
:class:`Request` only when indexed or iterated.  The loop walks the
arrivals in ``(arrival_s, req_id)`` order, materialises a ``Request``
only while it is in the active batch, and writes each completion's
admission and finish times into preallocated arrays that
:class:`ServingResult` keeps; its :attr:`~ServingResult.completed` view
rebuilds :class:`CompletedRequest` objects on demand.  A long run thus
holds a few machine words per request instead of two Python objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, overload

import numpy as np

from repro.cluster.collectives import allgather_cost, alltoall_matrix
from repro.cluster.topology import Topology
from repro.config import (
    ClusterConfig,
    ExecutionMode,
    InferenceConfig,
    ModelConfig,
    ServingConfig,
)
from repro.core.online import OnlineReplacer, ReplacementEvent, model_kept_mass
from repro.core.placement.base import Placement
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.costs import CostModel
from repro.engine.executor import simulate_inference
from repro.engine.metrics import LatencyStats
from repro.engine.workload import DecodeWorkload, DriftScenario, make_decode_workload
from repro.obs.recorder import MetricsRecorder
from repro.trace.markov import MarkovRoutingModel

__all__ = [
    "Request",
    "Arrivals",
    "CompletedRequest",
    "ServingResult",
    "poisson_arrivals",
    "bursty_arrivals",
    "make_arrivals",
    "StepPricer",
    "continuous_batching",
    "engine_step_time",
    "CurvePricer",
    "PlacementStepTimer",
    "KeptSample",
    "OnlineServingResult",
    "DriftPricer",
]


@dataclass(frozen=True)
class Request:
    """One user request entering the serving system."""

    req_id: int
    arrival_s: float
    prompt_len: int
    generate_len: int

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        if self.prompt_len <= 0 or self.generate_len <= 0:
            raise ValueError("prompt_len and generate_len must be positive")


@dataclass(frozen=True)
class CompletedRequest:
    """A served request with its scheduling timeline."""

    request: Request
    admitted_s: float
    finished_s: float

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to last generated token."""
        return self.finished_s - self.request.arrival_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting for a batch slot."""
        return self.admitted_s - self.request.arrival_s


class Arrivals(Sequence[Request]):
    """An arrival sequence stored as columns, one float64 time per request.

    Request ``i`` has ``req_id == i``, arrival time ``arrival_s[i]`` and
    the shared ``prompt_len`` and ``generate_len``.  Indexing or iterating
    builds each :class:`Request` on demand, and ``==`` between two
    ``Arrivals`` compares them field for field, so callers that want
    objects still get them while :func:`continuous_batching` reads the
    time column directly.
    """

    __slots__ = ("arrival_s", "generate_len", "prompt_len")

    def __init__(self, arrival_s: np.ndarray, prompt_len: int, generate_len: int) -> None:
        times = np.asarray(arrival_s, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("arrival_s must be one-dimensional")
        if times.size and times.min() < 0:
            raise ValueError("arrival_s must be >= 0")
        if prompt_len <= 0 or generate_len <= 0:
            raise ValueError("prompt_len and generate_len must be positive")
        self.arrival_s = times
        self.prompt_len = int(prompt_len)
        self.generate_len = int(generate_len)

    def __len__(self) -> int:
        return len(self.arrival_s)

    @overload
    def __getitem__(self, i: int) -> Request: ...

    @overload
    def __getitem__(self, i: slice) -> list[Request]: ...

    def __getitem__(self, i: int | slice) -> Request | list[Request]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        j = range(len(self))[i]  # normalises negative indices, raises IndexError
        return Request(j, float(self.arrival_s[j]), self.prompt_len, self.generate_len)

    def __iter__(self) -> Iterator[Request]:
        p, g = self.prompt_len, self.generate_len
        for i, t in enumerate(self.arrival_s.tolist()):
            yield Request(i, t, p, g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrivals):
            return NotImplemented
        return (
            self.prompt_len == other.prompt_len
            and self.generate_len == other.generate_len
            and bool(np.array_equal(self.arrival_s, other.arrival_s))
        )

    def __repr__(self) -> str:
        return (
            f"Arrivals({len(self)} requests, prompt_len={self.prompt_len}, "
            f"generate_len={self.generate_len})"
        )


@dataclass(frozen=True, eq=False)
class ServingResult:
    """Outcome of one continuous-batching serving simulation.

    The schedule is columnar, in completion order: the ``i``-th request
    to finish is ``requests[order[i]]``, admitted at ``admitted_s[i]`` and
    finished at ``finished_s[i]``.  :attr:`completed` rebuilds the
    :class:`CompletedRequest` view on demand.  ``latency`` and ``queue``
    summarise the samples in that same order.
    """

    requests: Sequence[Request]
    order: np.ndarray
    admitted_s: np.ndarray
    finished_s: np.ndarray
    latency: LatencyStats
    queue: LatencyStats
    makespan_s: float
    busy_s: float
    decode_steps: int
    generated_tokens: int
    mean_batch_size: float

    @property
    def num_completed(self) -> int:
        return len(self.order)

    @property
    def completed(self) -> tuple[CompletedRequest, ...]:
        """Every served request with its timeline, in completion order."""
        reqs = self.requests
        return tuple(
            CompletedRequest(reqs[k], a, f)
            for k, a, f in zip(
                self.order.tolist(),
                self.admitted_s.tolist(),
                self.finished_s.tolist(),
                strict=True,
            )
        )

    @property
    def throughput_rps(self) -> float:
        # zero-span runs (no completed requests) have zero throughput, not inf
        if self.makespan_s <= 0:
            return 0.0
        return self.num_completed / self.makespan_s

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.generated_tokens / self.makespan_s

    @property
    def utilization(self) -> float:
        """Fraction of the serving span the batch engine was stepping."""
        if self.makespan_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.makespan_s)


# -- arrival processes --------------------------------------------------------


def poisson_arrivals(
    cfg: ServingConfig, rng: np.random.Generator | None = None
) -> Arrivals:
    """Memoryless arrivals: exponential inter-arrival gaps at the mean rate."""
    rng = rng or np.random.default_rng(cfg.seed)
    gaps = rng.exponential(1.0 / cfg.arrival_rate_rps, size=cfg.num_requests)
    return Arrivals(np.cumsum(gaps), cfg.prompt_len, cfg.generate_len)


def bursty_arrivals(
    cfg: ServingConfig, rng: np.random.Generator | None = None
) -> Arrivals:
    """Markov-modulated Poisson arrivals with rate-preserving bursts.

    A two-state chain alternates between a *burst* state (instantaneous
    rate ``arrival_rate_rps * burst_factor``) and a *calm* state whose rate
    is solved so the long-run mean inter-arrival gap equals
    ``1 / arrival_rate_rps``; the stationary probability of the burst state
    is ``burst_fraction`` and ``burst_persistence`` sets dwell lengths.
    """
    rng = rng or np.random.default_rng(cfg.seed)
    p, bf = cfg.burst_fraction, cfg.burst_factor
    burst_rate = cfg.arrival_rate_rps * bf
    # solve the calm rate so E[gap] = p/burst_rate + (1-p)/calm_rate = 1/rate;
    # denom > 0 for every ServingConfig-valid shape (p < 1, burst_factor >= 1)
    denom = 1.0 / cfg.arrival_rate_rps - p / burst_rate
    calm_rate = (1.0 - p) / denom
    # stationary pi_burst = p given stay-probabilities (s_b, s_c);
    # feasibility (s_c >= 0) is guaranteed by ServingConfig validation
    s_b = cfg.burst_persistence
    s_c = 1.0 - p * (1.0 - s_b) / (1.0 - p) if p > 0 else 1.0

    times = np.empty(cfg.num_requests, dtype=np.float64)
    now = 0.0
    in_burst = bool(rng.random() < p)
    for i in range(cfg.num_requests):
        rate = burst_rate if in_burst else calm_rate
        now += float(rng.exponential(1.0 / rate))
        times[i] = now
        stay = s_b if in_burst else s_c
        if rng.random() >= stay:
            in_burst = not in_burst
    return Arrivals(times, cfg.prompt_len, cfg.generate_len)


def make_arrivals(
    cfg: ServingConfig, rng: np.random.Generator | None = None
) -> Arrivals:
    """Build the arrival sequence ``cfg.arrival`` names."""
    if cfg.arrival == "poisson":
        return poisson_arrivals(cfg, rng)
    return bursty_arrivals(cfg, rng)


# -- continuous batching ------------------------------------------------------

#: one request in the running batch:
#: [request, tokens_remaining, admitted_s, home_gpu, index into the served requests]
BatchEntry = list[Any]


class StepPricer:
    """What a continuous-batching step costs: the loop's pluggable price list.

    :func:`continuous_batching` owns the schedule; a pricer owns the
    clock charges.  The loop calls :meth:`admit` with the requests that
    just joined the batch (seconds charged before the step),
    :meth:`step` to price one decode iteration of the active batch,
    :meth:`between_steps` after each step's completions (a stall added to
    the clock before the next admission), and :meth:`finish` once with
    the final step count and clock.  Pricers read the loop's
    :data:`BatchEntry` lists and never mutate them.

    The defaults charge nothing outside the step, so a subclass only has
    to implement :meth:`step`; the loop skips hooks left at the default.
    """

    def admit(self, now: float, admitted: Sequence[BatchEntry]) -> float:
        return 0.0

    def step(self, now: float, active: Sequence[BatchEntry]) -> float:
        raise NotImplementedError

    def between_steps(self, steps: int, now: float) -> float:
        return 0.0

    def finish(self, steps: int, now: float) -> None:
        return None


def continuous_batching(
    requests: Iterable[Request],
    pricer: StepPricer,
    max_batch_requests: int = 64,
    num_gpus: int = 1,
    recorder: MetricsRecorder | None = None,
    meta: Mapping[str, float] | None = None,
) -> ServingResult:
    """Serve ``requests`` with iteration-level continuous batching.

    The scheduler is the one production MoE servers run: a single global
    decode batch advances one token per step for every active request;
    at each step boundary, waiting requests are admitted FCFS while slots
    are free (``max_batch_requests`` cap) and finished requests leave
    immediately.  Admitted requests get data-parallel home GPUs
    round-robin over ``num_gpus``.  Each loop turn is: admit, charge the
    pricer's admission cost, price and run one step, retire finished
    requests, then charge the pricer's between-step stall (which every
    queued and running request pays).  :class:`CurvePricer` prices steps
    from a batch-size curve; :class:`DriftPricer` prices each step's
    sampled routing under a live placement.

    An attached ``recorder`` observes the run as a one-replica fleet
    (replica 0, regime 0, always active): enqueue at each arrival,
    admission at each step boundary, step and completion hooks as the
    batch advances; ``meta`` is its run-start meta (the cost constants
    :func:`~repro.obs.recorder.run_meta` builds).  Recording never changes
    scheduling or float order.

    ``requests`` is an :class:`Arrivals`, read as columns, or any
    iterable of :class:`Request`.  Returns the full :class:`ServingResult`:
    the schedule as completion-ordered columns plus p50/p95/p99 latency
    and queueing statistics.
    """
    if max_batch_requests <= 0:
        raise ValueError("max_batch_requests must be positive")
    served: Sequence[Request]
    if isinstance(requests, Arrivals):
        served = requests
        times = requests.arrival_s
        ids = np.arange(len(requests), dtype=np.int64)
    else:
        served = tuple(requests)
        times = np.fromiter((q.arrival_s for q in served), np.float64, len(served))
        ids = np.fromiter((q.req_id for q in served), np.int64, len(served))
    n = len(served)
    # completion columns, filled in completion order
    done_idx = np.empty(n, dtype=np.int64)
    done_adm = np.empty(n, dtype=np.float64)
    done_fin = np.empty(n, dtype=np.float64)
    if n == 0:
        empty = LatencyStats.from_samples(done_fin)
        return ServingResult(served, done_idx, done_adm, done_fin, empty, empty,
                             0.0, 0.0, 0, 0, 0.0)

    # FCFS admission order: by arrival time, ties by req_id (lexsort is
    # stable, so exact duplicates keep their input order)
    order = np.lexsort((ids, times))
    sorted_s = times[order]
    step = pricer.step
    # hooks a pricer leaves at the free default are skipped, not called:
    # this loop is the hot path of long curve-priced runs
    cls = type(pricer)
    admit = pricer.admit if cls.admit is not StepPricer.admit else None
    between_steps = (
        pricer.between_steps if cls.between_steps is not StepPricer.between_steps else None
    )
    first_arrival = float(sorted_s[0])
    now = first_arrival
    busy = 0.0
    steps = 0
    weighted_batch = 0.0
    tokens = 0
    admitted_count = 0  # also the admission cursor into ``order``
    next_arrival = first_arrival
    done = 0
    active: list[BatchEntry] = []

    # telemetry: the single global batch reports as replica 0; arrivals
    # enqueue lazily (in arrival order, stamped at their arrival time) the
    # first time the clock passes them
    enq_ptr = 0
    if recorder is not None:
        enq_s = sorted_s.tolist()
        enq_id = ids[order].tolist()
        recorder.on_run_start(first_arrival, meta or {})
        recorder.on_replica_start(first_arrival, 0, 0, False, first_arrival, first_arrival)

    while admitted_count < n or active:
        if not active and next_arrival > now:
            now = next_arrival  # idle: jump to the next arrival
        if recorder is not None:
            while enq_ptr < n and enq_s[enq_ptr] <= now:
                recorder.on_enqueue(enq_s[enq_ptr], 0, enq_id[enq_ptr])
                enq_ptr += 1
        admitted: list[BatchEntry] = []
        while next_arrival <= now and len(active) < max_batch_requests:
            k = int(order[admitted_count])
            req = served[k]
            entry = [req, req.generate_len, now, admitted_count % num_gpus, k]
            admitted_count += 1
            next_arrival = (
                float(sorted_s[admitted_count]) if admitted_count < n else math.inf
            )
            active.append(entry)
            admitted.append(entry)
        if admitted:
            adm = admit(now, admitted) if admit is not None else 0.0
            if recorder is not None:
                recorder.on_admit(now, 0, [e[0].req_id for e in admitted], adm)
            if adm:
                now += adm
                busy += adm
                weighted_batch += len(active) * adm

        dt = step(now, active)
        if not dt > 0:
            raise ValueError(f"step_time must return positive seconds, got {dt}")
        now += dt
        busy += dt
        steps += 1
        weighted_batch += len(active) * dt
        if recorder is not None:
            recorder.on_step_end(now, 0, dt, len(active))

        still_running: list[BatchEntry] = []
        for entry in active:
            entry[1] -= 1
            if entry[1] == 0:
                req = entry[0]
                done_idx[done] = entry[4]
                done_adm[done] = entry[2]
                done_fin[done] = now
                done += 1
                tokens += req.generate_len
                if recorder is not None:
                    recorder.on_complete(
                        now, 0, req.req_id, req.arrival_s, entry[2], req.generate_len
                    )
            else:
                still_running.append(entry)
        active = still_running
        if between_steps is not None:
            now += between_steps(steps, now)

    pricer.finish(steps, now)
    if recorder is not None:
        recorder.on_run_end(now)
    del order, sorted_s  # free the sort columns before the latency pass
    arrived = times[done_idx]
    return ServingResult(
        requests=served,
        order=done_idx,
        admitted_s=done_adm,
        finished_s=done_fin,
        latency=LatencyStats.from_samples(done_fin - arrived),
        queue=LatencyStats.from_samples(done_adm - arrived),
        makespan_s=now - first_arrival,
        busy_s=busy,
        decode_steps=steps,
        generated_tokens=tokens,
        mean_batch_size=weighted_batch / busy if busy > 0 else 0.0,
    )


# -- engine-calibrated step costs ---------------------------------------------


def engine_step_time(
    model: ModelConfig,
    cluster: ClusterConfig,
    mode: ExecutionMode = ExecutionMode.EXFLOW,
    prompt_len: int = 64,
    affinity: float = 0.85,
    placement_strategy: str = "staged",
    probe_requests_per_gpu: Sequence[int] = (1, 2, 4, 8),
    calibration_generate_len: int = 4,
    seed: int = 0,
) -> Callable[[int], float]:
    """Calibrate ``step_time(batch_size)`` against the vectorized engine.

    Runs two short engine simulations per probe batch size (the batched
    executor makes each probe cheap): one full-length run and one on its
    exact iteration-prefix, and takes the *marginal* seconds per decode
    iteration — the slope between the two — so one-time costs (the
    coherent modes' before-inference prompt AllGather) and the shared
    prefix cancel exactly instead of being amortised into every step.
    Returns a piecewise-linear interpolant over total batch size.
    Probes share one routing model and one placement, so the curve isolates
    the batch-size effect.  Batch sizes outside the probed range clamp to
    the nearest probe — pass probes covering your admission cap.
    """
    probes = sorted(set(int(b) for b in probe_requests_per_gpu))
    if not probes or probes[0] < 1:
        raise ValueError("probe_requests_per_gpu must be positive integers")

    routing = MarkovRoutingModel.with_affinity(
        model.num_experts,
        model.num_moe_layers,
        affinity,
        rng=np.random.default_rng(seed),
    )
    if mode.uses_affinity_placement:
        profile = routing.sample(2048, np.random.default_rng(seed + 1))
        placement = solve_placement(placement_strategy, profile, cluster)
    else:
        placement = vanilla_placement(
            model.num_moe_layers, model.num_experts, cluster.num_gpus
        )

    batch_sizes = []
    step_seconds = []
    for b in probes:
        infer = InferenceConfig(
            requests_per_gpu=b,
            prompt_len=prompt_len,
            generate_len=2 * calibration_generate_len,
            mode=mode,
            seed=seed,
        )
        # disjoint seed offset: must not replay the placement-profile stream
        # (seed + 1), or the smallest probe would be scored on the very
        # token paths the affinity placement was fit to
        hi_workload = make_decode_workload(
            model,
            cluster,
            infer,
            routing=routing,
            rng=np.random.default_rng(seed + 1000 + b),
        )
        # the lo run is the exact iteration-prefix of the hi run (secondary
        # paths included), so the hi - lo difference isolates the marginal
        # cost of the extra iterations with no workload re-draw noise
        lo_workload = DecodeWorkload(
            hi_workload.paths[:calibration_generate_len],
            hi_workload.home_gpu,
            hi_workload.num_experts,
            hi_workload.prompt_len,
            None
            if hi_workload.secondary_paths is None
            else hi_workload.secondary_paths[:calibration_generate_len],
        )
        hi = simulate_inference(model, cluster, infer, placement, hi_workload).total_time_s
        lo = simulate_inference(model, cluster, infer, placement, lo_workload).total_time_s
        batch_sizes.append(b * cluster.num_gpus)
        step_seconds.append((hi - lo) / calibration_generate_len)

    xs = np.asarray(batch_sizes, dtype=np.float64)
    ys = np.asarray(step_seconds, dtype=np.float64)

    def step_time(batch_size: int) -> float:
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        return float(np.interp(float(batch_size), xs, ys))

    return step_time


class CurvePricer(StepPricer):
    """Price each step from a ``step_time(batch_size)`` curve.

    The curve is usually :func:`engine_step_time`'s calibration against
    the vectorized engine; any positive callable works.  Admission is
    free and nothing happens between steps.
    """

    def __init__(self, step_time: Callable[[int], float]) -> None:
        self.step_time = step_time

    def step(self, now: float, active: Sequence[BatchEntry]) -> float:
        return float(self.step_time(len(active)))


# -- online drift-aware serving -----------------------------------------------

#: cadence of the online kept-mass timeline, in decode steps
_SAMPLE_EVERY_STEPS = 4


class PlacementStepTimer:
    """Price one continuous-batching decode step from that step's routing.

    :func:`engine_step_time` calibrates a ``step_time(batch_size)`` curve
    against one frozen routing model and one frozen placement — exactly
    right for a closed-loop benchmark, structurally wrong for the online
    setting where both the routing *and* the placement change mid-run.
    This timer instead prices each step directly: given the step's (B, L)
    expert paths, each request's home GPU and context length, and the
    *current* placement, it reproduces the batched engine's per-step
    arithmetic (lockstep per-GPU maxima for compute, pairwise-exchange
    Alltoall for dispatch, ring AllGather for context coherence) for a
    single decode iteration.  On a one-iteration workload it matches
    :func:`repro.engine.executor.simulate_inference` up to the one-time
    prompt AllGather, which :meth:`admission_time` prices separately (the
    :class:`DriftPricer` charges it when requests join the batch).
    """

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterConfig,
        mode: ExecutionMode = ExecutionMode.EXFLOW,
        dtype_bytes: int = 2,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.mode = mode
        self.topo = Topology(cluster)
        self.cost = CostModel(model, gpu_flops=cluster.gpu_flops)
        self.token_bytes = self.cost.token_bytes(dtype_bytes)
        self.coherent = mode.uses_context_coherence

    def _check_inputs(
        self, paths: np.ndarray, home_gpu: np.ndarray, context_lens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        paths = np.asarray(paths, dtype=np.int64)
        home = np.asarray(home_gpu, dtype=np.int64)
        ctx = np.asarray(context_lens, dtype=np.int64)
        L = self.model.num_moe_layers
        if paths.ndim != 2 or paths.shape[1] != L:
            raise ValueError(f"paths must be (batch, {L}), got {paths.shape}")
        if paths.shape[0] == 0:
            raise ValueError("step needs at least one active request")
        if home.shape != (paths.shape[0],) or ctx.shape != (paths.shape[0],):
            raise ValueError("home_gpu and context_lens must have one entry per request")
        if paths.min() < 0 or paths.max() >= self.model.num_experts:
            raise ValueError("expert id out of range")
        if home.min() < 0 or home.max() >= self.cluster.num_gpus:
            raise ValueError("home GPU rank out of range")
        if ctx.min() < 1:
            raise ValueError("context lengths must be >= 1")
        return paths, home, ctx

    def step_time(
        self,
        paths: np.ndarray,
        home_gpu: np.ndarray,
        context_lens: np.ndarray,
        placement: Placement,
        secondary_paths: np.ndarray | None = None,
    ) -> float:
        """Seconds for one decode iteration of the given batch.

        ``paths`` is (B, L) expert ids for the active batch, ``home_gpu``
        (B,) data-parallel homes, ``context_lens`` (B,) per-request context
        lengths (continuous batching means they differ — attention is
        priced per token, not per lockstep iteration).
        """
        paths, home, ctx = self._check_inputs(paths, home_gpu, context_lens)
        if placement.num_layers != self.model.num_moe_layers:
            raise ValueError("placement layer count does not match model")
        if placement.num_experts != self.model.num_experts:
            raise ValueError("placement expert count does not match model")
        if placement.num_gpus != self.cluster.num_gpus:
            raise ValueError("placement GPU count does not match cluster")

        b, L = paths.shape
        g = self.cluster.num_gpus
        cost = self.cost
        layer_idx = np.arange(L, dtype=np.int64)
        gpu_path = placement.gpu_of[layer_idx[None, :], paths]  # (B, L)
        top2 = secondary_paths is not None and self.model.gating.k == 2
        if top2:
            sec = np.asarray(secondary_paths, dtype=np.int64)
            if sec.shape != paths.shape:
                raise ValueError("secondary_paths must match paths shape")
            sec_path = placement.gpu_of[layer_idx[None, :], sec]

        if self.coherent:
            loc = np.empty((b, L), dtype=np.int64)
            loc[:, 0] = home
            loc[:, 1:] = gpu_path[:, :-1]
        else:
            loc = np.broadcast_to(home[:, None], (b, L))

        keys = layer_idx[None, :] * g + loc  # (B, L) flattened (layer, gpu)

        # compute: lockstep per-GPU maxima per layer, attention priced per
        # token at its own context length (weighted bincount); attention_flops
        # is plain arithmetic, so one broadcast call covers the whole batch
        att_flops = np.asarray(cost.attention_flops(ctx), dtype=np.float64)
        att_per = np.bincount(
            keys.ravel(),
            weights=np.broadcast_to(att_flops[:, None], (b, L)).ravel(),
            minlength=L * g,
        ).reshape(L, g)
        attention_s = float(
            att_per.max(axis=1).sum() / (cost.gpu_flops * cost.attention_efficiency)
        )

        resident = np.bincount(keys.ravel(), minlength=L * g).reshape(L, g)
        gating_s = float(
            resident.max(axis=1).sum()
            * cost.gating_flops()
            / (cost.gpu_flops * cost.gating_efficiency)
        )

        ffn_counts = np.bincount(
            (layer_idx[None, :] * g + gpu_path).ravel(), minlength=L * g
        ).reshape(L, g)
        if top2:
            ffn_counts = ffn_counts + np.bincount(
                (layer_idx[None, :] * g + sec_path).ravel(), minlength=L * g
            ).reshape(L, g)
        ffn_s = float(
            ffn_counts.max(axis=1).sum()
            * cost.ffn_flops()
            / (cost.gpu_flops * cost.ffn_efficiency)
        )

        # communication: per-layer dispatch Alltoall (+ combine for vanilla),
        # plus the coherent modes' one per-iteration context AllGather
        def stacks(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
            base = layer_idx[None, :] * (g * g)
            counts = np.bincount(
                (base + src * g + dst).ravel(), minlength=L * g * g
            ).reshape(L, g, g)
            out = counts.astype(np.float64) * self.token_bytes
            diag = np.arange(g)
            out[:, diag, diag] = 0.0
            return out

        dispatch = stacks(loc, gpu_path)
        if top2:
            dispatch += stacks(loc, sec_path)
            dispatch += stacks(sec_path, gpu_path)
        comm_s = sum(res.time_s for res in alltoall_matrix(self.topo, dispatch))
        if self.coherent:
            payload = np.bincount(home, minlength=g).astype(np.float64) * self.token_bytes
            comm_s += allgather_cost(self.topo, payload).time_s
        else:
            combine = stacks(gpu_path, np.broadcast_to(home[:, None], (b, L)))
            comm_s += sum(res.time_s for res in alltoall_matrix(self.topo, combine))

        return attention_s + gating_s + ffn_s + float(comm_s)

    def admission_time(self, home_gpu: np.ndarray, prompt_lens: np.ndarray) -> float:
        """One-time cost of admitting requests into the running batch.

        Coherent modes must replicate each new request's prompt context to
        all ranks (the before-inference AllGather); vanilla keeps contexts
        home-resident, so admission is free.
        """
        home = np.asarray(home_gpu, dtype=np.int64)
        plen = np.asarray(prompt_lens, dtype=np.int64)
        if home.shape != plen.shape:
            raise ValueError("home_gpu and prompt_lens must align")
        if home.size == 0 or not self.coherent:
            return 0.0
        payload = np.bincount(
            home, weights=plen.astype(np.float64), minlength=self.cluster.num_gpus
        )
        return float(allgather_cost(self.topo, payload * self.token_bytes).time_s)


@dataclass(frozen=True)
class KeptSample:
    """One point of the kept-transition-mass timeline.

    ``true_kept`` scores the then-current placement against the *true*
    instantaneous routing regime (analytic, estimator-free);
    ``estimated_kept`` is the same placement scored on the streaming
    estimator's decayed window — the signal the policy actually sees.
    """

    step: int
    time_s: float
    true_kept: float
    estimated_kept: float | None = None


@dataclass(frozen=True)
class OnlineServingResult:
    """Outcome of one drift-aware serving simulation."""

    serving: ServingResult
    events: tuple[ReplacementEvent, ...]
    kept_timeline: tuple[KeptSample, ...]
    final_placement: Placement
    migration_stall_s: float

    @property
    def num_replacements(self) -> int:
        return len(self.events)


class DriftPricer(StepPricer):
    """Price each step from routing that drifts, with live re-placement.

    Each decode step samples the active batch's expert paths from
    ``drift.model_at(now)`` and prices them with a
    :class:`PlacementStepTimer` under the *current* placement; admission
    charges coherent modes' prompt AllGather.  The sampled routing
    streams into ``replacer``'s estimator, and between steps the replacer
    may migrate experts: the pricer swaps in the new placement and
    returns the migration stall for the loop to charge, so every queued
    and running request pays for the move.  Pass ``replacer=None`` for
    the static arm (same drift, same scheduler, placement frozen).

    The pricer keeps the kept-mass timeline (every 4 decode steps, after
    each migration, and at the end) and the replacement events;
    :meth:`result` wraps a finished run's :class:`ServingResult` with
    them.  It carries one run's state, so build a fresh pricer per run.
    """

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterConfig,
        drift: DriftScenario,
        placement: Placement,
        mode: ExecutionMode = ExecutionMode.EXFLOW,
        replacer: OnlineReplacer | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if drift.num_experts != model.num_experts or drift.num_layers != model.num_moe_layers:
            raise ValueError("drift scenario shape does not match model architecture")
        self.drift = drift
        self.placement = placement
        self.replacer = replacer
        self.rng = rng or np.random.default_rng(0)
        self.timer = PlacementStepTimer(model, cluster, mode=mode)
        self.top2 = model.gating.k == 2
        self.events: list[ReplacementEvent] = []
        self.timeline: list[KeptSample] = []
        self.stall_s = 0.0

    def admit(self, now: float, admitted: Sequence[BatchEntry]) -> float:
        return self.timer.admission_time(
            np.array([e[3] for e in admitted], dtype=np.int64),
            np.array([e[0].prompt_len for e in admitted], dtype=np.int64),
        )

    def step(self, now: float, active: Sequence[BatchEntry]) -> float:
        routing = self.drift.model_at(now)
        b = len(active)
        paths = routing.sample(b, self.rng).paths
        secondary = routing.sample(b, self.rng).paths if self.top2 else None
        home = np.array([e[3] for e in active], dtype=np.int64)
        # context = prompt + the tokens generated so far
        ctx = np.array(
            [e[0].prompt_len + e[0].generate_len - e[1] for e in active], dtype=np.int64
        )
        dt = self.timer.step_time(paths, home, ctx, self.placement, secondary)
        if self.replacer is not None:
            self.replacer.observe(paths)
        return dt

    def between_steps(self, steps: int, now: float) -> float:
        if steps % _SAMPLE_EVERY_STEPS == 0:
            self._sample(steps, now)
        if self.replacer is None:
            return 0.0
        result = self.replacer.maybe_replace(steps, now, self.placement)
        if result is None:
            return 0.0
        self.placement, event = result
        self.events.append(event)
        self.stall_s += event.stall_s
        self._sample(steps, now + event.stall_s)  # post-migration point, new placement
        return event.stall_s

    def finish(self, steps: int, now: float) -> None:
        if not self.timeline or self.timeline[-1].step != steps:
            self._sample(steps, now)

    def _sample(self, steps: int, now: float) -> None:
        self.timeline.append(
            KeptSample(
                step=steps,
                time_s=now,
                true_kept=model_kept_mass(self.placement, self.drift.model_at(now)),
                estimated_kept=(
                    self.replacer.current_kept_mass(self.placement)
                    if self.replacer is not None
                    else None
                ),
            )
        )

    def result(self, serving: ServingResult) -> OnlineServingResult:
        """``serving`` (this pricer's finished run) with the online account."""
        return OnlineServingResult(
            serving=serving,
            events=tuple(self.events),
            kept_timeline=tuple(self.timeline),
            final_placement=self.placement,
            migration_stall_s=self.stall_s,
        )
