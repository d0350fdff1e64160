"""Equivalence suite: the vectorized engine vs the loop reference oracle.

The batched executor must reproduce the step-by-step oracle's
:class:`~repro.engine.metrics.RunResult` *bit for bit* — not approximately
— on identical inputs: every breakdown field, every ledger accumulator,
and both locality fractions.  The cases sweep all three execution modes,
top-1 and top-2 gating, round-robin and affinity placements, single-GPU
degenerate clusters and the chunked traffic-stack path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    GatingKind,
    InferenceConfig,
    ModelConfig,
)
from repro.core.placement.staged import staged_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine import executor as executor_mod
from repro.engine.executor import simulate_inference
from repro.engine.reference import simulate_inference_reference
from repro.engine.workload import make_decode_workload

MODES = list(ExecutionMode)


def assert_bit_identical(a, b):
    """Every value in two RunResults matches exactly (no tolerance)."""
    assert a.mode == b.mode
    for f in ("attention_s", "gating_s", "expert_ffn_s", "alltoall_s", "allgather_s"):
        va, vb = getattr(a.breakdown, f), getattr(b.breakdown, f)
        assert va == vb, f"breakdown.{f}: {va!r} != {vb!r}"
    assert a.generated_tokens == b.generated_tokens
    assert a.iterations == b.iterations
    assert a.gpu_stay_fraction == b.gpu_stay_fraction
    assert a.node_stay_fraction == b.node_stay_fraction
    assert dict(a.ledger.time_by_op) == dict(b.ledger.time_by_op)
    assert dict(a.ledger.count_by_op) == dict(b.ledger.count_by_op)
    tiers_a = {op: dict(t) for op, t in a.ledger.bytes_by_op_tier.items()}
    tiers_b = {op: dict(t) for op, t in b.ledger.bytes_by_op_tier.items()}
    assert tiers_a == tiers_b


def both(model, cluster, infer, placement, workload):
    vec = simulate_inference(model, cluster, infer, placement, workload)
    ref = simulate_inference_reference(model, cluster, infer, placement, workload)
    return vec, ref


@pytest.fixture(params=[GatingKind.TOP1, GatingKind.TOP2], ids=["top1", "top2"])
def gated_model(request, small_model):
    return dataclasses.replace(small_model, gating=request.param)


@pytest.fixture
def gated_workload(gated_model, small_cluster, small_infer):
    return make_decode_workload(gated_model, small_cluster, small_infer)


class TestEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_vanilla_placement(
        self, mode, gated_model, small_cluster, small_infer, gated_workload
    ):
        placement = vanilla_placement(
            gated_model.num_moe_layers, gated_model.num_experts, small_cluster.num_gpus
        )
        cfg = dataclasses.replace(small_infer, mode=mode)
        vec, ref = both(gated_model, small_cluster, cfg, placement, gated_workload)
        assert_bit_identical(vec, ref)

    @pytest.mark.parametrize("mode", MODES)
    def test_affinity_placement(
        self, mode, gated_model, small_cluster, small_infer, gated_workload
    ):
        placement = staged_placement(gated_workload.flat_trace(), small_cluster)
        cfg = dataclasses.replace(small_infer, mode=mode)
        vec, ref = both(gated_model, small_cluster, cfg, placement, gated_workload)
        assert_bit_identical(vec, ref)

    @pytest.mark.parametrize("mode", MODES)
    def test_single_gpu(self, mode, gated_model):
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=1)
        infer = InferenceConfig(
            requests_per_gpu=3, prompt_len=4, generate_len=3, mode=mode
        )
        placement = vanilla_placement(
            gated_model.num_moe_layers, gated_model.num_experts, 1
        )
        workload = make_decode_workload(gated_model, cluster, infer)
        vec, ref = both(gated_model, cluster, infer, placement, workload)
        assert_bit_identical(vec, ref)

    @pytest.mark.parametrize("mode", MODES)
    def test_multi_node_larger(self, mode):
        """A 2x4 cluster with an uneven model shape (16 experts, 6 layers)."""
        model = ModelConfig(
            name="eq-mid",
            num_layers=6,
            num_experts=16,
            d_model=64,
            vocab_size=256,
            num_heads=4,
            gating=GatingKind.TOP2,
        )
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
        infer = InferenceConfig(
            requests_per_gpu=5, prompt_len=16, generate_len=6, mode=mode
        )
        placement = staged_placement(
            make_decode_workload(model, cluster, infer).flat_trace(), cluster
        )
        workload = make_decode_workload(model, cluster, infer)
        vec, ref = both(model, cluster, infer, placement, workload)
        assert_bit_identical(vec, ref)

    @pytest.mark.parametrize("mode", MODES)
    def test_chunked_traffic_stacks(
        self, mode, monkeypatch, gated_model, small_cluster, small_infer, gated_workload
    ):
        """Force tiny stack blocks so chunk boundaries cross iterations."""
        monkeypatch.setattr(executor_mod, "_MAX_STACK_ELEMENTS", 1)
        placement = vanilla_placement(
            gated_model.num_moe_layers, gated_model.num_experts, small_cluster.num_gpus
        )
        cfg = dataclasses.replace(small_infer, mode=mode)
        vec, ref = both(gated_model, small_cluster, cfg, placement, gated_workload)
        assert_bit_identical(vec, ref)

    def test_custom_cost_model(self, small_model, small_cluster, small_infer):
        from repro.engine.costs import CostModel

        cost = CostModel(small_model, gpu_flops=5e12, attention_efficiency=0.5)
        placement = vanilla_placement(
            small_model.num_moe_layers, small_model.num_experts, small_cluster.num_gpus
        )
        workload = make_decode_workload(small_model, small_cluster, small_infer)
        vec = simulate_inference(
            small_model, small_cluster, small_infer, placement, workload, cost
        )
        ref = simulate_inference_reference(
            small_model, small_cluster, small_infer, placement, workload, cost
        )
        assert_bit_identical(vec, ref)


class TestCompareModesEngines:
    def test_engine_switch_identical(
        self, small_model, small_cluster, small_infer, monkeypatch
    ):
        # compare_modes runs the vectorized engine; swap the oracle in at
        # its one call site and every row must come out the same
        from repro.engine import comparison

        fast = comparison.compare_modes(small_model, small_cluster, small_infer, seed=11)
        monkeypatch.setattr(
            comparison, "simulate_inference", simulate_inference_reference
        )
        slow = comparison.compare_modes(small_model, small_cluster, small_infer, seed=11)
        for label in fast:
            assert_bit_identical(fast[label].result, slow[label].result)
            assert fast[label].speedup == slow[label].speedup

    def test_unknown_engine_rejected(self, small_model, small_cluster, small_infer):
        from repro.engine.comparison import compare_modes

        # no argument selects an engine any more
        with pytest.raises(TypeError, match="engine"):
            compare_modes(small_model, small_cluster, small_infer, engine="reference")


class TestValidation:
    """Full input validation (negative ranks, out-of-range expert ids)."""

    @pytest.fixture
    def setup(self, small_model, small_cluster, small_infer):
        placement = vanilla_placement(
            small_model.num_moe_layers, small_model.num_experts, small_cluster.num_gpus
        )
        workload = make_decode_workload(small_model, small_cluster, small_infer)
        return small_model, small_cluster, small_infer, placement, workload

    @pytest.mark.parametrize(
        "engine", [simulate_inference, simulate_inference_reference]
    )
    def test_negative_home_rank_rejected(self, engine, setup):
        model, cluster, infer, placement, workload = setup
        workload.home_gpu[0] = -1  # in-place mutation bypasses __post_init__
        with pytest.raises(ValueError, match=">= 0"):
            engine(model, cluster, infer, placement, workload)

    @pytest.mark.parametrize(
        "engine", [simulate_inference, simulate_inference_reference]
    )
    def test_out_of_range_expert_id_rejected(self, engine, setup):
        model, cluster, infer, placement, workload = setup
        workload.paths[0, 0, 0] = model.num_experts + 3
        with pytest.raises(ValueError, match="expert id"):
            engine(model, cluster, infer, placement, workload)

    @pytest.mark.parametrize(
        "engine", [simulate_inference, simulate_inference_reference]
    )
    def test_negative_expert_id_rejected(self, engine, setup):
        model, cluster, infer, placement, workload = setup
        workload.paths[0, 0, 0] = -2
        with pytest.raises(ValueError, match="expert id"):
            engine(model, cluster, infer, placement, workload)

    def test_secondary_out_of_range_rejected(self, small_cluster, small_infer, small_model):
        model = dataclasses.replace(small_model, gating=GatingKind.TOP2)
        placement = vanilla_placement(
            model.num_moe_layers, model.num_experts, small_cluster.num_gpus
        )
        workload = make_decode_workload(model, small_cluster, small_infer)
        assert workload.secondary_paths is not None
        workload.secondary_paths[0, 0, 0] = model.num_experts
        with pytest.raises(ValueError, match="secondary_paths"):
            simulate_inference(model, small_cluster, small_infer, placement, workload)

    def test_workload_negative_home_rejected_at_construction(self):
        from repro.engine.workload import DecodeWorkload

        paths = np.zeros((2, 3, 2), dtype=np.int64)
        home = np.array([0, -1, 1])
        with pytest.raises(ValueError, match=">= 0"):
            DecodeWorkload(paths, home, num_experts=4, prompt_len=8)
