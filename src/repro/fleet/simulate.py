"""The config-driven fleet entry point.

The fleet simulation exists twice, by design:

* :mod:`repro.fleet.engine` — the vectorized tick engine: array state,
  windowed arrival batches.  Every fleet run executes on it.
* :mod:`repro.fleet.reference` — the original event-heap loop, one event
  popped and processed at a time.  Slow, obvious, and the correctness
  oracle: ``tests/test_fleet_equivalence.py`` holds the tick engine to its
  exact result, and ``benchmarks/bench_fleet_scale.py`` times the two.

:func:`_fleet_engine_args` builds everything either engine takes from the
configs: it draws the regime models, solves one placement per regime and
labels arrivals with regimes and priorities.
:func:`_simulate_fleet_cluster_serving` (what ``repro.run`` calls for
``fleet`` scenarios) feeds those inputs to the tick engine.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    ModelConfig,
    ServingConfig,
)
from repro.core.online import ReplacementPolicy
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.serving import PlacementStepTimer, Request, make_arrivals
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.requests import make_fleet_requests
from repro.fleet.result import FleetResult
from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import MetricsRecorder
from repro.trace.markov import MarkovRoutingModel

__all__ = ["FleetResult"]


def _fleet_engine_args(
    model: ModelConfig,
    cluster: ClusterConfig,
    serving: ServingConfig,
    fleet: FleetConfig,
    mode: ExecutionMode = ExecutionMode.EXFLOW,
    affinity: float = 0.85,
    placement_strategy: str = "staged",
    profile_tokens: int = 2048,
    arrivals: Sequence[Request] | None = None,
    regime_weight_at: Callable[[float], Sequence[float]] | None = None,
    replace_policy: ReplacementPolicy | None = None,
    replace_halflife_tokens: float | None = None,
) -> dict[str, Any]:
    """Keyword arguments for a fleet engine, built from the configs.

    Builds ``fleet.num_regimes`` independent Markov regimes of equal
    affinity strength, solves one placement per regime from an offline
    profile and labels the arrival stream with regimes (time-varying mix
    via ``regime_weight_at``) and priorities.  Every call builds a fresh
    rng and step timer, so two calls feed two engines identical inputs.

    Seed layout (all derived from ``serving.seed``, all disjoint —
    mirroring the single-replica online loop): arrivals use ``seed``,
    regime ``k``'s transition structure ``seed + 101*k`` (regime 0 matches
    the drift scenarios' base regime), offline profiles ``seed + 7 + k``,
    request labelling ``seed + 5``, and the live simulation stream
    ``seed + 9``.  Pass ``arrivals`` to substitute a custom process (e.g.
    :func:`~repro.fleet.requests.flash_crowd_arrivals`) for the built-in
    Poisson/bursty families.
    """
    regimes = [
        MarkovRoutingModel.with_affinity(
            model.num_experts,
            model.num_moe_layers,
            affinity,
            rng=np.random.default_rng(serving.seed + 101 * k),
        )
        for k in range(fleet.num_regimes)
    ]
    if mode.uses_affinity_placement:
        placements = [
            solve_placement(
                placement_strategy,
                regimes[k].sample(
                    profile_tokens, np.random.default_rng(serving.seed + 7 + k)
                ),
                cluster,
            )
            for k in range(fleet.num_regimes)
        ]
    else:
        flat = vanilla_placement(
            model.num_moe_layers, model.num_experts, cluster.num_gpus
        )
        placements = [flat for _ in range(fleet.num_regimes)]

    base = (
        arrivals
        if arrivals is not None
        else make_arrivals(serving, np.random.default_rng(serving.seed))
    )
    labelled = make_fleet_requests(
        base,
        fleet,
        rng=np.random.default_rng(serving.seed + 5),
        regime_weight_at=regime_weight_at,
    )

    return {
        "requests": labelled,
        "model": model,
        "cluster": cluster,
        "regimes": regimes,
        "placements_by_regime": placements,
        "fleet": fleet,
        "mode": mode,
        "max_batch_requests": serving.max_batch_requests,
        "timer": PlacementStepTimer(model, cluster, mode=mode),
        "replace_policy": replace_policy,
        "replace_halflife_tokens": replace_halflife_tokens,
        "rng": np.random.default_rng(serving.seed + 9),
    }


def _simulate_fleet_cluster_serving(
    model: ModelConfig,
    cluster: ClusterConfig,
    serving: ServingConfig,
    fleet: FleetConfig,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
    **inputs: Any,
) -> FleetResult:
    """End-to-end fleet scenario from ``ServingConfig`` + ``FleetConfig``.

    Runs the tick engine on what :func:`_fleet_engine_args` builds from
    the configs and ``inputs`` (its keyword options).
    """
    args = _fleet_engine_args(model, cluster, serving, fleet, **inputs)
    return simulate_fleet_tick(**args, recorder=recorder, profiler=profiler)
