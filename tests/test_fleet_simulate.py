"""Integration tests for the event-driven fleet serving simulation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import ClusterConfig, ExecutionMode, FleetConfig, ModelConfig, ServingConfig
from repro.fleet.requests import (
    FleetRequest,
    flash_crowd_arrivals,
    make_fleet_requests,
)
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.reference import simulate_fleet_reference
from repro.fleet.simulate import _simulate_fleet_cluster_serving
from repro.trace.markov import MarkovRoutingModel


@pytest.fixture
def model():
    return ModelConfig(name="fleet-test", num_layers=4, num_experts=8, d_model=64, num_heads=4)


@pytest.fixture
def cluster():
    return ClusterConfig(num_nodes=2, gpus_per_node=2)


@pytest.fixture
def serving():
    return ServingConfig(
        arrival="bursty",
        arrival_rate_rps=900.0,
        num_requests=80,
        generate_len=6,
        max_batch_requests=8,
        prompt_len=8,
        seed=0,
    )


class TestFleetRequest:
    def test_inherits_request_validation(self):
        with pytest.raises(ValueError):
            FleetRequest(0, -1.0, 8, 4)
        with pytest.raises(ValueError):
            FleetRequest(0, 0.0, 0, 4)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            FleetRequest(0, 0.0, 8, 4, regime=-1)
        with pytest.raises(ValueError):
            FleetRequest(0, 0.0, 8, 4, priority=-1)


class TestFlashCrowd:
    def test_count_and_ordering(self, serving):
        reqs = flash_crowd_arrivals(serving, 4.0, 0.02, 0.03)
        assert len(reqs) == serving.num_requests
        times = np.array([q.arrival_s for q in reqs])
        assert (np.diff(times) > 0).all()
        assert [q.req_id for q in reqs] == list(range(len(reqs)))

    def test_flash_window_is_denser(self):
        cfg = ServingConfig(arrival_rate_rps=100.0, num_requests=4000, seed=1)
        reqs = flash_crowd_arrivals(cfg, 8.0, 5.0, 5.0)
        times = np.array([q.arrival_s for q in reqs])
        in_flash = ((times >= 5.0) & (times < 10.0)).sum() / 5.0
        before = (times < 5.0).sum() / 5.0
        assert in_flash > 3.0 * before

    def test_factor_one_is_plain_poisson_rate(self):
        cfg = ServingConfig(arrival_rate_rps=200.0, num_requests=4000, seed=2)
        reqs = flash_crowd_arrivals(cfg, 1.0, 1.0, 1.0)
        measured = len(reqs) / reqs[-1].arrival_s
        assert 0.85 * 200.0 < measured < 1.2 * 200.0

    def test_deterministic(self, serving):
        assert flash_crowd_arrivals(serving, 4.0, 0.02, 0.03) == flash_crowd_arrivals(
            serving, 4.0, 0.02, 0.03
        )

    def test_validation(self, serving):
        with pytest.raises(ValueError):
            flash_crowd_arrivals(serving, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(serving, 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(serving, 2.0, -1.0, 1.0)


class TestMakeFleetRequests:
    def test_labels_in_range_and_deterministic(self, serving):
        from repro.engine.serving import make_arrivals

        base = make_arrivals(serving)
        fleet = FleetConfig(num_regimes=3, interactive_fraction=0.5)
        a = make_fleet_requests(base, fleet, np.random.default_rng(1))
        b = make_fleet_requests(base, fleet, np.random.default_rng(1))
        assert a == b
        assert all(0 <= q.regime < 3 for q in a)
        assert all(q.priority in (0, 1) for q in a)
        assert {q.req_id for q in a} == {q.req_id for q in base}

    def test_time_varying_mix(self, serving):
        from repro.engine.serving import make_arrivals

        base = make_arrivals(serving)
        fleet = FleetConfig(num_regimes=2)
        labelled = make_fleet_requests(
            base,
            fleet,
            np.random.default_rng(0),
            regime_weight_at=lambda t: (0.0, 1.0),
        )
        assert all(q.regime == 1 for q in labelled)

    def test_rejects_bad_weights(self, serving):
        from repro.engine.serving import make_arrivals

        base = make_arrivals(serving)
        fleet = FleetConfig(num_regimes=2)
        with pytest.raises(ValueError):
            make_fleet_requests(
                base, fleet, np.random.default_rng(0), regime_weight_at=lambda t: (0.7, 0.7)
            )


class TestFleetServing:
    def _run(self, model, cluster, serving, fleet, **kwargs):
        return _simulate_fleet_cluster_serving(model, cluster, serving, fleet, **kwargs)

    def test_conservation(self, model, cluster, serving):
        fleet = FleetConfig(num_replicas=3, router="jsq", max_replicas=4)
        res = self._run(model, cluster, serving, fleet)
        assert res.served + len(res.shed) == serving.num_requests
        assert res.served == sum(r.served for r in res.replicas)
        for c in res.completed:
            assert c.latency_s > 0
            assert c.queue_s >= 0
            assert 0 <= c.replica_id < len(res.replicas)

    def test_deterministic(self, model, cluster, serving):
        fleet = FleetConfig(num_replicas=2, router="p2c")
        a = self._run(model, cluster, serving, fleet)
        b = self._run(model, cluster, serving, fleet)
        assert a.latency == b.latency
        assert a.makespan_s == b.makespan_s
        assert a.completed == b.completed

    def test_empty_requests(self, model, cluster):
        regimes = [MarkovRoutingModel.with_affinity(8, 4, 0.8)]
        from repro.core.placement.vanilla import vanilla_placement

        res = simulate_fleet_tick(
            [],
            model,
            cluster,
            regimes,
            [vanilla_placement(4, 8, 4)],
            FleetConfig(num_regimes=1),
        )
        assert res.completed == () and res.shed == () and res.makespan_s == 0.0
        assert res.throughput_rps == 0.0

    def test_validation(self, model, cluster):
        from repro.core.placement.vanilla import vanilla_placement

        regimes = [MarkovRoutingModel.with_affinity(8, 4, 0.8)]
        flat = vanilla_placement(4, 8, 4)
        with pytest.raises(ValueError, match="num_regimes"):
            simulate_fleet_tick(
                [], model, cluster, regimes, [flat], FleetConfig(num_regimes=2)
            )
        with pytest.raises(ValueError, match="placement"):
            simulate_fleet_tick(
                [], model, cluster, regimes, [], FleetConfig(num_regimes=1)
            )
        with pytest.raises(ValueError, match="max_batch"):
            simulate_fleet_tick(
                [], model, cluster, regimes, [flat],
                FleetConfig(num_regimes=1), max_batch_requests=0,
            )
        with pytest.raises(ValueError, match="shape"):
            bad = [MarkovRoutingModel.with_affinity(4, 4, 0.8)]
            simulate_fleet_tick(
                [], model, cluster, bad, [flat], FleetConfig(num_regimes=1)
            )

    @pytest.mark.parametrize(
        "engine", [simulate_fleet_reference, simulate_fleet_tick], ids=["event", "tick"]
    )
    def test_out_of_range_regime_rejected_at_entry(self, model, cluster, engine):
        """Regression: a request labelled with an unmodelled regime used to
        be silently clamped onto the last regime (reshaping traffic and
        hiding labelling bugs); both engines now reject it up front."""
        from repro.core.placement.vanilla import vanilla_placement

        regimes = [MarkovRoutingModel.with_affinity(8, 4, 0.8)]
        flat = vanilla_placement(4, 8, 4)
        bad = [FleetRequest(0, 0.0, 8, 4, regime=3)]
        with pytest.raises(ValueError, match="regime 3.*only regimes 0..0"):
            engine(bad, model, cluster, regimes, [flat], FleetConfig(num_regimes=1))

    def test_every_router_serves_everything_when_unloaded(
        self, model, cluster, serving
    ):
        for router in ("round-robin", "jsq", "p2c", "affinity"):
            fleet = FleetConfig(num_replicas=2, router=router)
            res = self._run(model, cluster, serving, fleet)
            assert res.served == serving.num_requests, router
            assert res.shed_fraction == 0.0

    def test_overload_sheds_with_reasons(self, model, cluster):
        overload = ServingConfig(
            arrival_rate_rps=50000.0,
            num_requests=300,
            generate_len=6,
            max_batch_requests=4,
            prompt_len=8,
            seed=3,
        )
        fleet = FleetConfig(
            num_replicas=1,
            router="jsq",
            slo_ms=0.5,
            batch_slo_ms=1.0,
            max_queue_per_replica=16,
        )
        res = self._run(model, cluster, overload, fleet)
        assert len(res.shed) > 0
        assert {s.reason for s in res.shed} <= {"deadline", "queue-full"}
        assert res.served + len(res.shed) == overload.num_requests
        # attainment accounts sheds as misses
        assert res.slo_attainment["interactive"] < 1.0

    def test_priority_class_jumps_queue(self, model, cluster):
        loaded = ServingConfig(
            arrival_rate_rps=20000.0,
            num_requests=200,
            generate_len=6,
            max_batch_requests=4,
            prompt_len=8,
            seed=4,
        )
        fleet = FleetConfig(
            num_replicas=1,
            router="jsq",
            interactive_fraction=0.3,
            slo_ms=10000.0,  # no shedding: isolate the queueing-order effect
            batch_slo_ms=20000.0,
            max_queue_per_replica=500,
        )
        res = self._run(model, cluster, loaded, fleet)
        assert res.shed == ()
        inter = [c.queue_s for c in res.completed if c.request.priority == 0]
        batch = [c.queue_s for c in res.completed if c.request.priority == 1]
        assert np.mean(inter) < np.mean(batch)

    def test_autoscaler_reacts_to_flash_crowd(self, model, cluster):
        # per-replica capacity here is ~10k req/s (batch 8, ~0.1 ms steps);
        # 15k offered across 2 replicas leaves headroom, the 4x flash does not
        base = ServingConfig(
            arrival_rate_rps=15000.0,
            num_requests=600,
            generate_len=8,
            max_batch_requests=8,
            prompt_len=8,
            seed=5,
        )
        arrivals = flash_crowd_arrivals(base, 4.0, 0.005, 0.05)
        fleet = FleetConfig(
            num_replicas=2,
            router="jsq",
            autoscale=True,
            min_replicas=2,
            max_replicas=8,
            slo_ms=50.0,
            batch_slo_ms=500.0,
            autoscale_check_every_s=0.002,
            scale_up_queue_per_replica=4.0,
            scale_dwell_checks=2,
        )
        res = self._run(model, cluster, base, fleet, arrivals=arrivals)
        ups = [e for e in res.scale_events if e.kind == "up"]
        assert ups, "flash crowd must trigger scale-up"
        assert all(e.cold_start_s > 0 for e in ups)
        assert res.peak_replicas > 2
        static = self._run(
            model, cluster, base, dataclasses.replace(fleet, autoscale=False),
            arrivals=arrivals,
        )
        assert res.shed_fraction <= static.shed_fraction

    def test_scale_down_drains_idle_replicas(self, model, cluster):
        # a long quiet tail after the initial burst: the fleet should shrink
        quiet = ServingConfig(
            arrival_rate_rps=20.0,
            num_requests=60,
            generate_len=4,
            max_batch_requests=8,
            prompt_len=8,
            seed=6,
        )
        fleet = FleetConfig(
            num_replicas=4,
            router="jsq",
            autoscale=True,
            min_replicas=1,
            max_replicas=4,
            autoscale_check_every_s=0.05,
            scale_down_queue_per_replica=0.5,
            scale_dwell_checks=2,
        )
        res = self._run(model, cluster, quiet, fleet)
        downs = [e for e in res.scale_events if e.kind == "down"]
        assert downs
        assert res.final_replicas < 4
        assert res.served == quiet.num_requests  # draining loses nothing

    def test_online_replacement_path_runs(self, model, cluster, serving):
        fleet = FleetConfig(num_replicas=2, router="p2c", replace=True)
        res = self._run(model, cluster, serving, fleet)
        assert res.served == serving.num_requests
        assert all(r.replacements >= 0 for r in res.replicas)

    def test_vanilla_mode(self, model, cluster, serving):
        fleet = FleetConfig(num_replicas=2, router="round-robin")
        res = self._run(
            model, cluster, serving, fleet, mode=ExecutionMode.VANILLA
        )
        assert res.served == serving.num_requests

    def test_replica_stats_consistent(self, model, cluster, serving):
        fleet = FleetConfig(num_replicas=2, router="jsq")
        res = self._run(model, cluster, serving, fleet)
        for s in res.replicas:
            assert s.decode_steps > 0
            assert s.busy_s > 0
            assert 0 < s.mean_batch_size <= serving.max_batch_requests
