"""Result containers and derived metrics for engine runs.

A :class:`RunResult` is the engine's complete account of one simulated
serving run: wall-clock decomposition per operation (the slices of Fig 9),
communication ledger, token-locality statistics (Figs 7/8) and throughput
(Fig 10's y-axis).  :class:`LatencyStats` summarises a sample of per-request
latencies with the tail percentiles the serving layer reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.cluster.traffic import TrafficLedger
from repro.config import ExecutionMode

__all__ = ["OpBreakdown", "RunResult", "LatencyStats", "LATENCY_HIST_EDGES_S"]

#: Fixed log-spaced bucket edges (seconds) for :attr:`LatencyStats.histogram`.
#: Bucket ``i`` counts samples in ``[edges[i-1], edges[i])`` (bucket 0 is
#: everything below ``edges[0]``, the last bucket everything at or above
#: ``edges[-1]``).  Fixed edges make histograms from different runs — and
#: different engines — directly comparable and mergeable by addition.
LATENCY_HIST_EDGES_S: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample (seconds).

    ``p50_s``/``p95_s``/``p99_s`` use numpy's linear-interpolation
    percentiles; an empty sample yields all-zero stats with ``count == 0``.
    ``histogram`` holds per-bucket counts over the fixed
    :data:`LATENCY_HIST_EDGES_S` edges (``len(edges) + 1`` buckets), so
    ``sum(histogram) == count`` always.
    """

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    histogram: tuple[int, ...] = ()

    @classmethod
    def from_samples(cls, samples: Iterable[float] | np.ndarray) -> "LatencyStats":
        # an ndarray is read as-is (no copy when it is already float64)
        arr = np.asarray(
            samples if isinstance(samples, np.ndarray) else list(samples), dtype=np.float64
        )
        num_buckets = len(LATENCY_HIST_EDGES_S) + 1
        if arr.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, (0,) * num_buckets)
        if (arr < 0).any():
            raise ValueError("latency samples must be non-negative")
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        edges = np.asarray(LATENCY_HIST_EDGES_S, dtype=np.float64)
        # side="right": a sample equal to an edge lands in the bucket above
        # it, matching the [lo, hi) bucket convention documented on the edges
        buckets = np.searchsorted(edges, arr, side="right")
        counts = np.bincount(buckets, minlength=num_buckets)
        return cls(
            count=int(arr.size),
            mean_s=float(arr.mean()),
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            max_s=float(arr.max()),
            histogram=tuple(int(c) for c in counts),
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
        }

    def histogram_dict(self) -> dict[str, int]:
        """Bucket counts keyed by their upper edge (``"+inf"`` for the tail).

        Returns an empty dict when the stats were built without a histogram
        (e.g. deserialized from a pre-histogram report).
        """
        if not self.histogram:
            return {}
        labels = [f"<{edge:g}s" for edge in LATENCY_HIST_EDGES_S] + ["+inf"]
        return dict(zip(labels, self.histogram, strict=True))


@dataclass(frozen=True)
class OpBreakdown:
    """Seconds spent per operation class across a run."""

    attention_s: float = 0.0
    gating_s: float = 0.0
    expert_ffn_s: float = 0.0
    alltoall_s: float = 0.0
    allgather_s: float = 0.0

    @property
    def compute_s(self) -> float:
        return self.attention_s + self.gating_s + self.expert_ffn_s

    @property
    def comm_s(self) -> float:
        return self.alltoall_s + self.allgather_s

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    def fraction(self, op: str) -> float:
        """Share of total time taken by ``op`` (e.g. ``"alltoall_s"``)."""
        total = self.total_s
        if total <= 0:
            return 0.0
        return float(getattr(self, op) / total)

    def as_dict(self) -> dict[str, float]:
        return {
            "attention_s": self.attention_s,
            "gating_s": self.gating_s,
            "expert_ffn_s": self.expert_ffn_s,
            "alltoall_s": self.alltoall_s,
            "allgather_s": self.allgather_s,
        }


@dataclass(frozen=True)
class RunResult:
    """Full account of one simulated inference run.

    Attributes
    ----------
    mode:
        Execution strategy that produced this run.
    breakdown:
        Per-op wall-clock decomposition (times are the per-iteration maxima
        over GPUs, summed over iterations — lockstep SPMD semantics).
    ledger:
        Collective-level traffic record.
    generated_tokens:
        Total tokens produced across all requests.
    iterations:
        Generation iterations executed.
    gpu_stay_fraction / node_stay_fraction:
        Locality of expert-to-expert transitions during the run.
    """

    mode: ExecutionMode
    breakdown: OpBreakdown
    ledger: TrafficLedger
    generated_tokens: int
    iterations: int
    gpu_stay_fraction: float
    node_stay_fraction: float

    @property
    def total_time_s(self) -> float:
        return self.breakdown.total_s

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.total_time_s <= 0:
            return float("inf")
        return self.generated_tokens / self.total_time_s

    @property
    def alltoall_fraction(self) -> float:
        """Alltoall share of total runtime — the pies of Fig 9."""
        return self.breakdown.fraction("alltoall_s")

    def speedup_over(self, baseline: "RunResult") -> float:
        """Throughput ratio vs a baseline run of the same workload."""
        if baseline.generated_tokens != self.generated_tokens:
            raise ValueError("speedup requires runs over identical workloads")
        if self.total_time_s <= 0:
            return float("inf")
        return baseline.total_time_s / self.total_time_s

    def comm_reduction_over(self, baseline: "RunResult") -> float:
        """Fractional reduction in communication time vs ``baseline``."""
        base = baseline.breakdown.comm_s
        if base <= 0:
            return 0.0
        return 1.0 - self.breakdown.comm_s / base
