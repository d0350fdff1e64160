"""Fleet-level request types and traffic builders.

A fleet serves a *mixture* of workloads: requests belong to routing
regimes (which Markov affinity structure their tokens follow — the signal
affinity-aware routing exploits) and to priority classes (which SLO
admission enforces).  :class:`FleetRequest` carries both on top of the
serving layer's :class:`~repro.engine.serving.Request`.

Two traffic builders extend the arrival-process family for fleet
scenarios:

* :func:`make_fleet_requests` — decorate any arrival sequence with regime
  and priority labels (optionally with a time-varying regime mix, which is
  how traffic drift enters the fleet).
* :func:`flash_crowd_arrivals` — a piecewise-rate Poisson process whose
  rate multiplies by ``flash_factor`` inside one window: the canonical
  autoscaler stress (a product launch, a viral link).  Implemented with
  Lewis-Shedler thinning so the draw is exact and deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import FleetConfig, ServingConfig
from repro.engine.serving import Arrivals, Request

__all__ = [
    "FleetRequest",
    "FleetCompleted",
    "ShedRecord",
    "LostRecord",
    "FailureRecord",
    "flash_crowd_arrivals",
    "make_fleet_requests",
]


@dataclass(frozen=True)
class FleetRequest(Request):
    """A serving request labelled with its routing regime and priority.

    ``regime`` indexes the fleet's Markov regime list (which transition
    structure this request's tokens follow); ``priority`` indexes the
    admission controller's class list, 0 being the most urgent.
    """

    regime: int = 0
    priority: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.regime < 0:
            raise ValueError("regime must be >= 0")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")


@dataclass(frozen=True)
class FleetCompleted:
    """A served fleet request with its scheduling timeline."""

    request: FleetRequest
    admitted_s: float
    finished_s: float
    replica_id: int

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.request.arrival_s

    @property
    def queue_s(self) -> float:
        return self.admitted_s - self.request.arrival_s


@dataclass(frozen=True)
class ShedRecord:
    """One request the admission controller refused."""

    request: FleetRequest
    time_s: float
    reason: str
    replica_id: int | None = None


@dataclass(frozen=True)
class LostRecord:
    """A request whose retry budget ran out — the chaos terminal outcome.

    Distinct from a :class:`ShedRecord`: shedding is admission *refusing*
    work it predicts will miss its SLO, loss is accepted work destroyed by
    faults (crash, preemption kill, or per-attempt timeout — ``reason``)
    after ``attempts`` tries.  ``replica_id`` is the replica on which the
    final attempt died.
    """

    request: FleetRequest
    time_s: float
    replica_id: int
    attempts: int
    reason: str


@dataclass(frozen=True)
class FailureRecord:
    """One injected replica failure and its recovery, for the fleet account.

    ``kind`` is ``"crash"`` or ``"preempt"``.  For preemptions, ``time_s``
    is the *notice* time and the lost counts are whatever the grace period
    failed to drain (both zero for a clean drain).  ``recovered_at_s`` is
    when the ordered replacement replica went routable, or ``None`` when
    recovery was disabled or never completed before the run ended.
    """

    time_s: float
    replica_id: int
    kind: str
    lost_active: int
    lost_queued: int
    recovered_at_s: float | None = None


def flash_crowd_arrivals(
    cfg: ServingConfig,
    flash_factor: float,
    flash_start_s: float,
    flash_duration_s: float,
    rng: np.random.Generator | None = None,
) -> Arrivals:
    """Poisson arrivals whose rate jumps ``flash_factor``-fold in a window.

    Outside ``[flash_start_s, flash_start_s + flash_duration_s)`` the rate
    is ``cfg.arrival_rate_rps``; inside it is multiplied by
    ``flash_factor``.  Thinning against the peak rate keeps the process
    exact across the boundary (no gap straddles two rates).
    """
    if flash_factor < 1.0:
        raise ValueError("flash_factor must be >= 1")
    if flash_duration_s <= 0 or flash_start_s < 0:
        raise ValueError("flash window must have positive duration and start >= 0")
    rng = rng or np.random.default_rng(cfg.seed)
    lam_max = cfg.arrival_rate_rps * flash_factor
    times = np.empty(cfg.num_requests, dtype=np.float64)
    accepted = 0
    now = 0.0
    while accepted < cfg.num_requests:
        now += float(rng.exponential(1.0 / lam_max))
        in_flash = flash_start_s <= now < flash_start_s + flash_duration_s
        lam = lam_max if in_flash else cfg.arrival_rate_rps
        if rng.random() < lam / lam_max:
            times[accepted] = now
            accepted += 1
    return Arrivals(times, cfg.prompt_len, cfg.generate_len)


def make_fleet_requests(
    base: Sequence[Request],
    fleet: FleetConfig,
    rng: np.random.Generator | None = None,
    regime_weight_at: Callable[[float], Sequence[float]] | None = None,
) -> list[FleetRequest]:
    """Label an arrival sequence with regimes and priority classes.

    ``regime_weight_at(t)`` returns the regime mixture probabilities at
    arrival time ``t`` (length ``fleet.num_regimes``); omitted, the mix is
    uniform and stationary.  Priorities are Bernoulli draws at
    ``fleet.interactive_fraction`` (class 0 = interactive, 1 = batch).
    """
    rng = rng or np.random.default_rng(0)
    out: list[FleetRequest] = []
    k = fleet.num_regimes
    for q in base:
        if k == 1:
            regime = 0
        elif regime_weight_at is None:
            regime = int(rng.integers(k))
        else:
            w = np.asarray(regime_weight_at(q.arrival_s), dtype=np.float64)
            if w.shape != (k,) or w.min() < 0 or not np.isclose(w.sum(), 1.0):
                raise ValueError(
                    f"regime_weight_at must return {k} probabilities summing to 1"
                )
            regime = int(rng.choice(k, p=w))
        priority = 0 if rng.random() < fleet.interactive_fraction else 1
        out.append(
            FleetRequest(
                req_id=q.req_id,
                arrival_s=q.arrival_s,
                prompt_len=q.prompt_len,
                generate_len=q.generate_len,
                regime=regime,
                priority=priority,
            )
        )
    return out
