"""Configuration dataclasses for models, clusters and inference runs.

Everything in the reproduction is driven by three configuration objects:

* :class:`ModelConfig` — the GPT MoE architecture (layers, experts, hidden
  size, gating).  Presets matching Table II of the paper are provided via
  :func:`paper_model`.
* :class:`ClusterConfig` — the simulated hardware (nodes, GPUs per node,
  link performance per tier).  :func:`wilkes3` builds the paper's testbed
  shape (4x A100 per node, NVLink intra-node, HDR200 InfiniBand inter-node).
* :class:`InferenceConfig` — the serving workload (batch of requests,
  prompt/generation lengths, execution mode).

All configs are frozen dataclasses: they are hashable, comparable and safe
to share between the engine, the placement solvers and the benchmarks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.chaos.spec import ChaosSpec

if TYPE_CHECKING:
    from _typeshed import DataclassInstance

__all__ = [
    "GatingKind",
    "ExecutionMode",
    "ModelConfig",
    "LinkSpec",
    "ClusterConfig",
    "InferenceConfig",
    "ServingConfig",
    "FleetConfig",
    "ROUTER_KINDS",
    "paper_model",
    "wilkes3",
    "PAPER_MODELS",
]


class GatingKind(str, Enum):
    """Routing function family used by the MoE layers.

    ``TOP1``/``TOP2`` match GShard-style softmax gating with the
    corresponding number of selected experts per token (the paper's
    inference experiments all use top-1 gating, Table II footnote).
    """

    TOP1 = "top1"
    TOP2 = "top2"

    @property
    def k(self) -> int:
        """Number of experts each token is routed to."""
        return 1 if self is GatingKind.TOP1 else 2


class ExecutionMode(str, Enum):
    """Expert-parallel execution strategies compared in the paper.

    * ``VANILLA`` — DeepSpeed-MoE style: two Alltoalls per MoE layer
      (dispatch + combine), experts placed round-robin.
    * ``CONTEXT_COHERENT`` — ExFlow without affinity: context replicated via
      AllGather each iteration, single Alltoall per layer, round-robin
      placement ("ExFlow w/o affinity" in Fig 10).
    * ``EXFLOW`` — context coherence + affinity-aware expert placement
      ("ExFlow w. affinity").
    """

    VANILLA = "vanilla"
    CONTEXT_COHERENT = "context_coherent"
    EXFLOW = "exflow"

    @property
    def uses_context_coherence(self) -> bool:
        return self is not ExecutionMode.VANILLA

    @property
    def uses_affinity_placement(self) -> bool:
        return self is ExecutionMode.EXFLOW


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a GPT MoE decoder.

    Parameters mirror the DeepSpeed-Megatron models in Table II.  ``d_model``
    is the transformer hidden size (``D`` in the table); each expert is a
    two-matrix FFN with inner size ``d_ff = ffn_mult * d_model``.

    ``moe_every`` controls how many decoder blocks share one MoE layer;
    the paper's models place an MoE layer in every block, so the default is
    1 and ``num_moe_layers == num_layers``.
    """

    name: str
    num_layers: int
    num_experts: int
    d_model: int
    gating: GatingKind = GatingKind.TOP1
    vocab_size: int = 8192
    num_heads: int = 16
    ffn_mult: int = 4
    moe_every: int = 1
    capacity_factor: float = 0.0  # 0 => variable token capacity (paper setting)
    base_params: str = ""  # human-readable base model size, e.g. "350M"

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if self.num_experts <= 0:
            raise ValueError(f"num_experts must be positive, got {self.num_experts}")
        if self.d_model <= 0:
            raise ValueError(f"d_model must be positive, got {self.d_model}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})"
            )
        if self.moe_every < 1:
            raise ValueError("moe_every must be >= 1")
        if self.capacity_factor < 0:
            raise ValueError("capacity_factor must be >= 0 (0 = unbounded)")

    @property
    def d_ff(self) -> int:
        """Expert FFN inner dimension."""
        return self.ffn_mult * self.d_model

    @property
    def num_moe_layers(self) -> int:
        """Number of decoder blocks containing an MoE FFN."""
        return self.num_layers // self.moe_every

    @property
    def moe_layer_indices(self) -> tuple[int, ...]:
        """Indices of decoder blocks whose FFN is a mixture of experts."""
        return tuple(i for i in range(self.num_layers) if (i + 1) % self.moe_every == 0)

    @property
    def expert_params(self) -> int:
        """Parameter count of a single expert FFN (two weight matrices)."""
        return 2 * self.d_model * self.d_ff

    @property
    def total_expert_params(self) -> int:
        return self.expert_params * self.num_experts * self.num_moe_layers

    def expert_bytes(self, dtype_bytes: int = 2) -> int:
        """Memory footprint of one expert in bytes (fp16 by default)."""
        return self.expert_params * dtype_bytes

    def with_experts(self, num_experts: int) -> "ModelConfig":
        """Return a copy with a different expert count (used by sweeps)."""
        return dataclasses.replace(
            self, num_experts=num_experts, name=f"{self.name.split('-E')[0]}-E{num_experts}"
        )


@dataclass(frozen=True)
class LinkSpec:
    """Alpha-beta model of one interconnect tier.

    ``latency_s`` is the fixed per-message cost (alpha) and ``bandwidth_Bps``
    the sustained bytes/second (1/beta).  Transfer of ``n`` bytes costs
    ``latency_s + n / bandwidth_Bps``.
    """

    name: str
    latency_s: float
    bandwidth_Bps: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_Bps <= 0:
            raise ValueError("bandwidth must be > 0")

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` across this link (alpha-beta model)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth_Bps


# Published ballpark figures for the paper's testbed tiers.  Absolute values
# only set the time scale; all reproduced results are ratios.
LOCAL_LINK = LinkSpec("local", latency_s=0.0, bandwidth_Bps=1.5e12)  # HBM-resident, ~free
NVLINK = LinkSpec("nvlink", latency_s=2.0e-6, bandwidth_Bps=300.0e9)  # NVLink3 per-GPU
INFINIBAND = LinkSpec("infiniband", latency_s=8.0e-6, bandwidth_Bps=25.0e9)  # HDR200 eff.


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and performance of the simulated GPU cluster.

    The hierarchy is ``cluster -> node -> gpu``.  Three link tiers govern
    communication cost: ``local`` (same GPU — memcpy within HBM), ``intra``
    (GPUs on one node — NVLink), ``inter`` (GPUs on different nodes —
    InfiniBand).
    """

    num_nodes: int
    gpus_per_node: int
    local_link: LinkSpec = LOCAL_LINK
    intra_link: LinkSpec = NVLINK
    inter_link: LinkSpec = INFINIBAND
    gpu_flops: float = 150.0e12  # sustained fp16 FLOP/s of one simulated GPU
    gpu_memory_bytes: int = 80 * 1024**3
    gpu_hour_usd: float = 2.5  # on-demand A100-80GB ballpark; cost accounting

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        if self.gpu_flops <= 0:
            raise ValueError("gpu_flops must be positive")
        if self.gpu_hour_usd < 0:
            raise ValueError("gpu_hour_usd must be >= 0")

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, gpu: int) -> int:
        """Node index hosting global GPU rank ``gpu``."""
        if not 0 <= gpu < self.num_gpus:
            raise IndexError(f"gpu rank {gpu} out of range [0, {self.num_gpus})")
        return gpu // self.gpus_per_node

    def gpus_of_node(self, node: int) -> range:
        """Global GPU ranks hosted on ``node``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        start = node * self.gpus_per_node
        return range(start, start + self.gpus_per_node)

    def same_node(self, gpu_a: int, gpu_b: int) -> bool:
        return self.node_of(gpu_a) == self.node_of(gpu_b)

    def link_between(self, gpu_a: int, gpu_b: int) -> LinkSpec:
        """Link tier used for a transfer between two GPU ranks."""
        if gpu_a == gpu_b:
            return self.local_link
        if self.same_node(gpu_a, gpu_b):
            return self.intra_link
        return self.inter_link

    def gpu_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs of distinct GPU ranks."""
        for a in range(self.num_gpus):
            for b in range(self.num_gpus):
                if a != b:
                    yield a, b

    def experts_per_gpu(self, num_experts: int) -> int:
        """Per-layer expert capacity of one GPU (paper's C1)."""
        if num_experts % self.num_gpus != 0:
            raise ValueError(
                f"num_experts ({num_experts}) must divide evenly across "
                f"{self.num_gpus} GPUs for load-balanced expert parallelism"
            )
        return num_experts // self.num_gpus

    def experts_per_node(self, num_experts: int) -> int:
        """Per-layer expert capacity of one node (paper's C2)."""
        return self.experts_per_gpu(num_experts) * self.gpus_per_node


@dataclass(frozen=True)
class InferenceConfig:
    """A batched autoregressive serving workload.

    ``requests_per_gpu`` requests originate on every GPU (data parallelism);
    each has ``prompt_len`` prompt tokens and the engine generates
    ``generate_len`` new tokens.  ``dtype_bytes`` sets activation precision
    for communication volume accounting (fp16 default).
    """

    requests_per_gpu: int = 8
    prompt_len: int = 64
    generate_len: int = 32
    dtype_bytes: int = 2
    mode: ExecutionMode = ExecutionMode.EXFLOW
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests_per_gpu <= 0:
            raise ValueError("requests_per_gpu must be positive")
        if self.prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
        if self.generate_len <= 0:
            raise ValueError("generate_len must be positive")
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ValueError("dtype_bytes must be 1, 2, 4 or 8")

    def total_requests(self, num_gpus: int) -> int:
        return self.requests_per_gpu * num_gpus

    def total_context_len(self) -> int:
        """Final context length of each request after generation."""
        return self.prompt_len + self.generate_len


def _require_finite(cfg: DataclassInstance) -> None:
    """Reject NaN and ±inf in every float field.

    Range checks alone let NaN through (every comparison with it is
    false), and a non-finite rate or deadline only fails deep inside a
    run, if at all.
    """
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ServingConfig:
    """A request-level serving scenario for the continuous-batching layer.

    Where :class:`InferenceConfig` describes one lockstep batch,
    ``ServingConfig`` describes an *open* system: requests arrive over time
    (Poisson or bursty), join the running decode batch as slots free up,
    and leave when their generation finishes.

    Parameters
    ----------
    arrival:
        ``"poisson"`` — memoryless arrivals at ``arrival_rate_rps`` — or
        ``"bursty"`` — a two-state Markov-modulated Poisson process whose
        burst state multiplies the rate by ``burst_factor`` while the calm
        state is slowed so the long-run mean rate stays
        ``arrival_rate_rps``.
    burst_fraction:
        Long-run fraction of requests drawn in the burst state.
    burst_persistence:
        Probability the arrival process stays in its current state from one
        request to the next (higher = longer bursts).
    max_batch_requests:
        Continuous-batching admission cap — the serving analogue of the
        engine's total request count.
    """

    arrival: str = "poisson"
    arrival_rate_rps: float = 64.0
    num_requests: int = 512
    burst_factor: float = 4.0
    burst_fraction: float = 0.25
    burst_persistence: float = 0.9
    max_batch_requests: int = 64
    prompt_len: int = 64
    generate_len: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(
                f"arrival must be 'poisson' or 'bursty', got {self.arrival!r}"
            )
        if self.arrival_rate_rps <= 0:
            raise ValueError("arrival_rate_rps must be positive")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 <= self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in [0, 1)")
        if not 0.0 <= self.burst_persistence < 1.0:
            raise ValueError("burst_persistence must be in [0, 1)")
        # the two-state chain needs a calm-state stay probability in [0, 1):
        # pi_burst = burst_fraction requires burst_fraction * (1 - persistence)
        # <= (1 - burst_fraction), else no valid chain exists and the realized
        # burst fraction (and mean rate) would silently drift from the config
        if self.burst_fraction * (1.0 - self.burst_persistence) > (
            1.0 - self.burst_fraction
        ):
            raise ValueError(
                f"infeasible burst shape: burst_fraction={self.burst_fraction} "
                f"with burst_persistence={self.burst_persistence} admits no "
                "two-state chain; raise burst_persistence or lower burst_fraction"
            )
        if self.max_batch_requests <= 0:
            raise ValueError("max_batch_requests must be positive")
        if self.prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
        if self.generate_len <= 0:
            raise ValueError("generate_len must be positive")


# request-router policies the fleet layer implements; kept here so
# FleetConfig can validate without importing repro.fleet (config sits at
# the bottom of the layering)
ROUTER_KINDS: tuple[str, ...] = ("round-robin", "jsq", "p2c", "affinity")


@dataclass(frozen=True)
class FleetConfig:
    """A multi-replica serving deployment for the fleet layer.

    Where :class:`ServingConfig` describes the traffic offered to *one*
    replica, ``FleetConfig`` describes the deployment that absorbs it: how
    many independent replicas run behind the router, which routing policy
    assigns requests, what SLOs admission enforces, and how the reactive
    autoscaler may grow or shrink the fleet.

    Parameters
    ----------
    num_replicas:
        Replicas serving at t=0 (each a full expert-parallel cluster).
    router:
        One of :data:`ROUTER_KINDS` — ``round-robin``, ``jsq``
        (join-shortest-queue), ``p2c`` (power-of-two-choices) or
        ``affinity`` (placement-aware kept-mass scoring).
    num_regimes:
        Distinct routing regimes in the traffic mix; replica placements are
        fit round-robin across regimes, so with more than one regime the
        fleet is heterogeneous and affinity routing has signal to exploit.
    slo_ms / batch_slo_ms:
        Latency deadlines of the interactive (priority 0) and batch
        (priority 1) classes.
    interactive_fraction:
        Fraction of offered requests in the interactive class.
    shed_slack:
        Admission sheds a request when its predicted latency exceeds
        ``slack * slo``; values > 1 admit optimistically, < 1 shed early.
    max_queue_per_replica:
        Hard cap on any one replica's wait queue; arrivals beyond it are
        shed regardless of predicted latency.
    autoscale:
        Enable the reactive autoscaler (otherwise the fleet is static).
    min_replicas / max_replicas:
        Autoscaler bounds on the live replica count.
    scale_up_queue_per_replica / scale_down_queue_per_replica:
        Queue-depth-per-replica thresholds triggering scale-up/down.
    autoscale_check_every_s:
        Autoscaler evaluation cadence on the simulation clock.
    scale_dwell_checks:
        Consecutive over/under-threshold checks required before acting
        (hysteresis against reacting to one bursty tick).
    boot_overhead_s:
        Fixed per-replica boot cost (process start, CUDA context, …) added
        on top of the modelled weight-load + placement-migration time.
    migrate_on_drain:
        When a replica is drained by scale-down, hand its queued (not yet
        admitted) requests back to the router for re-placement on the
        remaining replicas instead of letting them wait out the drain.
        The replica's *active* decode batch always finishes in place
        (migrating KV state mid-generation is not modelled).
    replace:
        Run each replica's own PR-2 online re-placement loop.
    affinity_load_weight:
        Congestion penalty subtracted from the affinity router's kept-mass
        score per unit of relative replica load (0 = pure affinity).  The
        default 1.0 trades one full batch of backlog against one unit of
        kept mass — enough to spill traffic off a matched-but-congested
        replica instead of herding.
    chaos:
        Optional deterministic fault-injection schedule
        (:class:`~repro.chaos.spec.ChaosSpec`): replica crashes, spot
        preemptions, brownouts, and the retry policy governing failed
        request attempts.  ``None`` (the default) is a sunny day.
    """

    num_replicas: int = 4
    router: str = "p2c"
    num_regimes: int = 2
    slo_ms: float = 400.0
    batch_slo_ms: float = 4000.0
    interactive_fraction: float = 0.8
    shed_slack: float = 1.0
    max_queue_per_replica: int = 256
    autoscale: bool = False
    min_replicas: int = 1
    max_replicas: int = 8
    scale_up_queue_per_replica: float = 6.0
    scale_down_queue_per_replica: float = 0.5
    autoscale_check_every_s: float = 0.2
    scale_dwell_checks: int = 2
    boot_overhead_s: float = 0.0
    migrate_on_drain: bool = True
    replace: bool = False
    affinity_load_weight: float = 1.0
    chaos: ChaosSpec | None = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.router not in ROUTER_KINDS:
            raise ValueError(
                f"unknown router {self.router!r}; choose from {ROUTER_KINDS}"
            )
        if self.num_regimes < 1:
            raise ValueError("num_regimes must be >= 1")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if self.batch_slo_ms < self.slo_ms:
            raise ValueError("batch_slo_ms must be >= slo_ms (batch is the laxer class)")
        if not 0.0 <= self.interactive_fraction <= 1.0:
            raise ValueError("interactive_fraction must be in [0, 1]")
        if self.shed_slack <= 0:
            raise ValueError("shed_slack must be positive")
        if self.max_queue_per_replica <= 0:
            raise ValueError("max_queue_per_replica must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if not self.min_replicas <= self.num_replicas <= self.max_replicas:
            raise ValueError("num_replicas must lie in [min_replicas, max_replicas]")
        if self.scale_down_queue_per_replica < 0:
            raise ValueError("scale_down_queue_per_replica must be >= 0")
        if self.scale_up_queue_per_replica <= self.scale_down_queue_per_replica:
            raise ValueError(
                "scale_up_queue_per_replica must exceed scale_down_queue_per_replica"
            )
        if self.autoscale_check_every_s <= 0:
            raise ValueError("autoscale_check_every_s must be positive")
        if self.scale_dwell_checks < 1:
            raise ValueError("scale_dwell_checks must be >= 1")
        if self.boot_overhead_s < 0:
            raise ValueError("boot_overhead_s must be >= 0")
        if self.affinity_load_weight < 0:
            raise ValueError("affinity_load_weight must be >= 0")
        if self.chaos is not None and not isinstance(self.chaos, ChaosSpec):
            raise TypeError("chaos must be a ChaosSpec or None")

    @property
    def slo_s(self) -> float:
        return self.slo_ms / 1e3

    @property
    def batch_slo_s(self) -> float:
        return self.batch_slo_ms / 1e3


def _paper_models() -> dict[str, ModelConfig]:
    """Table II of the paper: seven pre-trained GPT MoE variants."""
    models = {}
    for experts in (8, 16, 32, 64):
        models[f"gpt-m-350m-e{experts}"] = ModelConfig(
            name=f"MoE-GPT-M-350M-E{experts}",
            num_layers=24,
            num_experts=experts,
            d_model=1024,
            base_params="350M",
        )
    models["gpt-m-470m-e32"] = ModelConfig(
        name="MoE-GPT-M-470M-E32",
        num_layers=32,
        num_experts=32,
        d_model=1024,
        base_params="470M",
    )
    models["gpt-m-590m-e32"] = ModelConfig(
        name="MoE-GPT-M-590M-E32",
        num_layers=40,
        num_experts=32,
        d_model=1024,
        base_params="590M",
    )
    models["gpt-xl-1.3b-e16"] = ModelConfig(
        name="MoE-GPT-XL-1.3B-E16",
        num_layers=24,
        num_experts=16,
        d_model=2048,
        base_params="1.3B",
    )
    return models


PAPER_MODELS: dict[str, ModelConfig] = _paper_models()


def paper_model(key: str) -> ModelConfig:
    """Look up one of the Table II model presets by key.

    Keys: ``gpt-m-350m-e{8,16,32,64}``, ``gpt-m-470m-e32``,
    ``gpt-m-590m-e32``, ``gpt-xl-1.3b-e16``.
    """
    try:
        return PAPER_MODELS[key]
    except KeyError:
        raise KeyError(
            f"unknown paper model {key!r}; available: {sorted(PAPER_MODELS)}"
        ) from None


def wilkes3(num_nodes: int, gpus_per_node: int = 4) -> ClusterConfig:
    """The paper's Wilkes3 testbed shape: 4x A100-80GB per node.

    NVLink intra-node, dual-rail HDR200 InfiniBand inter-node.
    """
    return ClusterConfig(num_nodes=num_nodes, gpus_per_node=gpus_per_node)


def scaled_proxy(model: ModelConfig, d_model: int = 64, vocab_size: int = 512) -> ModelConfig:
    """Shrink a paper model's hidden dimensions for fast functional runs.

    Keeps the layer/expert structure (which drives all routing and placement
    behaviour) while making numpy forward passes cheap.  Head count is scaled
    down so the head dimension stays sane.
    """
    num_heads = max(1, d_model // 16)
    if d_model % num_heads:
        num_heads = 1
    return dataclasses.replace(
        model,
        d_model=d_model,
        vocab_size=vocab_size,
        num_heads=num_heads,
        name=f"{model.name}-proxy{d_model}",
    )


def validate_deployment(model: ModelConfig, cluster: ClusterConfig) -> None:
    """Raise if ``model`` cannot be expert-parallelised on ``cluster``.

    Checks divisibility (load-balance constraint, formula 9) and that each
    GPU can hold its expert shard in memory.
    """
    per_gpu = cluster.experts_per_gpu(model.num_experts)  # raises on indivisible
    shard_bytes = per_gpu * model.num_moe_layers * model.expert_bytes()
    if shard_bytes > cluster.gpu_memory_bytes:
        raise ValueError(
            f"expert shard needs {shard_bytes / 2**30:.1f} GiB but GPU has "
            f"{cluster.gpu_memory_bytes / 2**30:.1f} GiB"
        )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean helper used by benchmark summaries."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
