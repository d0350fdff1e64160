"""Side-by-side comparison harness: the three execution strategies on one
identical workload.

This is what every end-to-end figure of the paper reports: DeepSpeed-style
vanilla vs "ExFlow w/o affinity" (context coherence only) vs "ExFlow w.
affinity".  :func:`compare_modes` freezes the workload and placement inputs
so the only differences between rows are the mechanisms under test.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import ClusterConfig, ExecutionMode, InferenceConfig, ModelConfig
from repro.core.placement.base import Placement
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.costs import CostModel
from repro.engine.executor import simulate_inference
from repro.engine.metrics import RunResult
from repro.engine.workload import DecodeWorkload, make_decode_workload
from repro.trace.events import RoutingTrace

if TYPE_CHECKING:
    from repro.trace.markov import MarkovRoutingModel

__all__ = ["ComparisonRow", "compare_modes"]


@dataclass(frozen=True)
class ComparisonRow:
    """One strategy's outcome plus its relation to the vanilla baseline."""

    label: str
    result: RunResult
    speedup: float
    comm_reduction: float

    @property
    def throughput(self) -> float:
        return self.result.throughput_tokens_per_s


def compare_modes(
    model: ModelConfig,
    cluster: ClusterConfig,
    infer: InferenceConfig,
    routing: MarkovRoutingModel | None = None,
    profile_trace: RoutingTrace | None = None,
    workload: DecodeWorkload | None = None,
    placement_strategy: str = "staged",
    affinity: float = 0.85,
    cost_model: CostModel | None = None,
    seed: int = 0,
) -> dict[str, ComparisonRow]:
    """Run vanilla / context-coherent / ExFlow on one frozen workload.

    Parameters
    ----------
    routing:
        The :class:`~repro.trace.markov.MarkovRoutingModel` standing in for
        the pre-trained checkpoint's router.  It is the *single source* of
        both the profiling trace and the serving workload (the paper's
        setup: profiling and serving share the model's affinity, not the
        actual tokens).  Built with ``affinity`` when omitted.
    profile_trace:
        Offline profiling trace for the affinity placement; sampled from
        ``routing`` when omitted.  If you pass your own, make sure it comes
        from the same router as the workload, or the placement will be fit
        to the wrong affinity structure.
    workload:
        Evaluation workload; synthesised from ``routing`` when omitted.
    placement_strategy:
        Solver for the ExFlow row (see
        :data:`repro.core.placement.SOLVERS`).

    Returns
    -------
    dict with keys ``"deepspeed"``, ``"exflow-noaff"``, ``"exflow"``.
    """
    rng = np.random.default_rng(seed)
    from repro.trace.markov import MarkovRoutingModel

    if routing is None:
        routing = MarkovRoutingModel.with_affinity(
            model.num_experts,
            model.num_moe_layers,
            affinity,
            rng=np.random.default_rng(seed + 1),
        )
    if workload is None:
        workload = make_decode_workload(model, cluster, infer, routing=routing, rng=rng)
    if profile_trace is None:
        profile_trace = routing.sample(4096, np.random.default_rng(seed + 2))

    base_placement = vanilla_placement(
        model.num_moe_layers, model.num_experts, cluster.num_gpus
    )
    aff_placement = solve_placement(placement_strategy, profile_trace, cluster)

    runs: dict[str, tuple[ExecutionMode, Placement]] = {
        "deepspeed": (ExecutionMode.VANILLA, base_placement),
        "exflow-noaff": (ExecutionMode.CONTEXT_COHERENT, base_placement),
        "exflow": (ExecutionMode.EXFLOW, aff_placement),
    }

    results: dict[str, RunResult] = {}
    for label, (mode, placement) in runs.items():
        cfg = dataclasses.replace(infer, mode=mode)
        results[label] = simulate_inference(
            model, cluster, cfg, placement, workload, cost_model
        )

    baseline = results["deepspeed"]
    return {
        label: ComparisonRow(
            label=label,
            result=res,
            speedup=res.speedup_over(baseline),
            comm_reduction=res.comm_reduction_over(baseline),
        )
        for label, res in results.items()
    }
