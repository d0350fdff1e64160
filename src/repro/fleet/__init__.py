"""Fleet-scale serving: replicas behind a router, with SLOs and autoscaling.

One placement-optimized cluster serves one replica's worth of traffic;
the ROADMAP's "millions of users" need a *fleet*.  This package layers a
front-end on top of :mod:`repro.engine.serving`:

* :mod:`repro.fleet.requests` — regime/priority-labelled requests and the
  fleet traffic builders (time-varying regime mixes, flash crowds).
* :mod:`repro.fleet.replica` — one replica: queue, continuous-batching
  state, its own (possibly regime-specific) placement and optional PR-2
  online re-placement loop.
* :mod:`repro.fleet.router` — round-robin / join-shortest-queue /
  power-of-two-choices / affinity-aware routing policies.
* :mod:`repro.fleet.admission` — SLO deadlines, priority classes and
  predicted-latency load shedding.
* :mod:`repro.fleet.autoscaler` — reactive queue-depth scaling with an
  explicit cold-start cost (weight load + placement shuffle).
* :mod:`repro.fleet.engine` — the vectorized tick engine every fleet run
  executes on: array state and batched arrival windows for
  million-request fleets.
* :mod:`repro.fleet.reference` — the event-heap simulation loop, retained
  as the correctness oracle the tick engine must match exactly (tests
  and ``benchmarks/bench_fleet_scale.py`` call it).
* :mod:`repro.fleet.simulate` — the config-driven entry point
  (``repro fleet`` on the CLI, fig16 in the benchmarks).
"""

from repro.fleet.admission import (
    AdmissionController,
    PriorityClass,
    default_priority_classes,
)
from repro.fleet.autoscaler import (
    ColdStartCost,
    ReactiveAutoscaler,
    ScaleEvent,
    price_cold_start,
)
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.reference import simulate_fleet_reference
from repro.fleet.replica import (
    ActiveEntry,
    ArrayQueue,
    Replica,
    ReplicaState,
    ReplicaStats,
)
from repro.fleet.requests import (
    FleetCompleted,
    FleetRequest,
    ShedRecord,
    flash_crowd_arrivals,
    make_fleet_requests,
)
from repro.fleet.router import (
    AffinityRouter,
    JoinShortestQueueRouter,
    PowerOfTwoRouter,
    ROUTER_KINDS,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.fleet.simulate import FleetResult

__all__ = [
    "AdmissionController",
    "PriorityClass",
    "default_priority_classes",
    "ColdStartCost",
    "ReactiveAutoscaler",
    "ScaleEvent",
    "price_cold_start",
    "ActiveEntry",
    "ArrayQueue",
    "Replica",
    "ReplicaState",
    "ReplicaStats",
    "FleetCompleted",
    "FleetRequest",
    "ShedRecord",
    "flash_crowd_arrivals",
    "make_fleet_requests",
    "AffinityRouter",
    "JoinShortestQueueRouter",
    "PowerOfTwoRouter",
    "ROUTER_KINDS",
    "RoundRobinRouter",
    "Router",
    "make_router",
    "FleetResult",
    "simulate_fleet_reference",
    "simulate_fleet_tick",
]
