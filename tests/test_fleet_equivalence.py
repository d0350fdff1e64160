"""The tick engine against the event-heap oracle: exact FleetResult match.

The vectorized tick engine (:mod:`repro.fleet.engine`) exists for speed;
its *correctness* is defined entirely by
:func:`repro.fleet.reference.simulate_fleet_reference`.  Every scenario
here runs both engines on identical inputs — built by the one
``_fleet_engine_args`` both are fed from, or, for ``run()``-level
monitoring, by swapping the oracle into the fleet entry point's single
engine call — and demands the full
:class:`~repro.fleet.result.FleetResult` match **exactly** — completed
and shed tuples (order included), latency/queue percentile stats, replica
accounts, scale events, SLO attainment, GPU-hour billing.  No tolerances:
the engines share rng consumption order and float expression order, so
any drift is a bug, not noise.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import pytest

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    GatingKind,
    ModelConfig,
    ServingConfig,
)
from repro.chaos import (
    BrownoutSpec,
    ChaosSpec,
    CrashSpec,
    PreemptSpec,
    RetryPolicy,
    bad_day_schedule,
)
from repro.fleet import simulate as fleet_simulate
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.reference import simulate_fleet_reference
from repro.fleet.requests import flash_crowd_arrivals
from repro.fleet.simulate import _fleet_engine_args

MODEL = ModelConfig(
    name="fleet-eq-test", num_layers=4, num_experts=8, d_model=64, num_heads=4
)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=2)
SERVING = ServingConfig(
    arrival="bursty",
    arrival_rate_rps=900.0,
    num_requests=120,
    generate_len=6,
    max_batch_requests=8,
    prompt_len=8,
    seed=0,
)

ROUTERS = ("round-robin", "jsq", "p2c", "affinity")


def run_engine(engine, fleet, model=MODEL, serving=SERVING, recorder=None,
               profiler=None, **kwargs):
    args = _fleet_engine_args(model, CLUSTER, serving, fleet, **kwargs)
    return engine(**args, recorder=recorder, profiler=profiler)


def run_both(fleet, model=MODEL, serving=SERVING, **kwargs):
    event = run_engine(simulate_fleet_reference, fleet, model, serving, **kwargs)
    tick = run_engine(simulate_fleet_tick, fleet, model, serving, **kwargs)
    return event, tick


@contextlib.contextmanager
def fleet_engine(engine):
    """Run ``run()``'s fleet scenarios on ``engine`` inside the block."""
    with mock.patch.object(fleet_simulate, "simulate_fleet_tick", engine):
        yield


def assert_identical(event, tick):
    """Field-by-field first (for a readable diff), then the whole value."""
    assert tick.completed == event.completed
    assert tick.shed == event.shed
    assert tick.latency == event.latency
    assert tick.queue == event.queue
    assert tick.makespan_s == event.makespan_s
    assert tick.replicas == event.replicas
    assert tick.scale_events == event.scale_events
    assert tick.slo_attainment == event.slo_attainment
    assert tick.peak_replicas == event.peak_replicas
    assert tick.generated_tokens == event.generated_tokens
    assert tick.gpu_hours == event.gpu_hours
    assert tick.cost_usd == event.cost_usd
    assert tick.failures == event.failures
    assert tick.lost == event.lost
    assert tick.retries == event.retries
    assert tick == event


def assert_conserved(result, num_requests):
    """Every submitted request has exactly one terminal outcome."""
    done_ids = (
        [c.request.req_id for c in result.completed]
        + [s.request.req_id for s in result.shed]
        + [lo.request.req_id for lo in result.lost]
    )
    assert len(done_ids) == num_requests
    assert len(set(done_ids)) == num_requests


@pytest.mark.parametrize("router", ROUTERS)
def test_every_router_kind(router):
    fleet = FleetConfig(num_replicas=3, router=router, num_regimes=2)
    event, tick = run_both(fleet)
    assert event.served > 0
    assert_identical(event, tick)


@pytest.mark.parametrize("router", ROUTERS)
def test_overload_sheds_identically(router):
    overload = ServingConfig(
        arrival_rate_rps=50000.0,
        num_requests=400,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=3,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router=router,
        num_regimes=2,
        slo_ms=0.5,
        batch_slo_ms=1.0,
        max_queue_per_replica=16,
    )
    event, tick = run_both(fleet, serving=overload)
    assert len(event.shed) > 0  # both queue-full and deadline paths exercised
    assert {s.reason for s in event.shed} & {"deadline", "queue-full"}
    assert_identical(event, tick)


def test_priority_classes():
    loaded = ServingConfig(
        arrival_rate_rps=20000.0,
        num_requests=250,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=4,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        interactive_fraction=0.3,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=500,
    )
    event, tick = run_both(fleet, serving=loaded)
    assert {q.request.priority for q in event.completed} == {0, 1}
    assert_identical(event, tick)


@pytest.mark.parametrize("router", ("jsq", "affinity"))
def test_autoscale_flash_crowd(router):
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
        router=router,
        num_regimes=2,
        autoscale=True,
        min_replicas=2,
        max_replicas=8,
        slo_ms=50.0,
        batch_slo_ms=500.0,
        autoscale_check_every_s=0.002,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
    )
    event, tick = run_both(fleet, serving=base, arrivals=arrivals)
    assert any(e.kind == "up" for e in event.scale_events)
    assert_identical(event, tick)


@pytest.mark.parametrize("migrate", (False, True))
def test_scale_down_and_migration(migrate):
    quiet = ServingConfig(
        arrival_rate_rps=20.0,
        num_requests=80,
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
        migrate_on_drain=migrate,
    )
    event, tick = run_both(fleet, serving=quiet)
    assert any(e.kind == "down" for e in event.scale_events)
    assert_identical(event, tick)


def test_online_replacement():
    # fleet.replace seeds one replacer rng per replica from the shared
    # stream — creation order must match between engines
    fleet = FleetConfig(num_replicas=2, router="p2c", replace=True)
    event, tick = run_both(fleet)
    assert_identical(event, tick)


def test_top2_gating_secondary_paths():
    model = dataclasses.replace(MODEL, gating=GatingKind.TOP2)
    fleet = FleetConfig(num_replicas=2, router="jsq", num_regimes=2)
    event, tick = run_both(fleet, model=model)
    assert_identical(event, tick)


def test_vanilla_mode():
    fleet = FleetConfig(num_replicas=2, router="round-robin")
    event, tick = run_both(fleet, mode=ExecutionMode.VANILLA)
    assert_identical(event, tick)


class TestTelemetryEquivalence:
    """Recording must be invisible to results and identical across engines."""

    FLEET = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        autoscale=True,
        min_replicas=1,
        max_replicas=4,
        slo_ms=50.0,
        batch_slo_ms=500.0,
        autoscale_check_every_s=0.002,
        scale_up_queue_per_replica=4.0,
        scale_down_queue_per_replica=0.5,
        scale_dwell_checks=2,
    )
    BUSY = ServingConfig(
        arrival_rate_rps=15000.0,
        num_requests=300,
        generate_len=6,
        max_batch_requests=8,
        prompt_len=8,
        seed=7,
    )

    def run_with_recorders(self):
        from repro.obs.recorder import TimelineRecorder

        rec_event = TimelineRecorder()
        rec_tick = TimelineRecorder()
        event = run_engine(
            simulate_fleet_reference, self.FLEET, serving=self.BUSY, recorder=rec_event
        )
        tick = run_engine(
            simulate_fleet_tick, self.FLEET, serving=self.BUSY, recorder=rec_tick
        )
        return event, tick, rec_event, rec_tick

    def test_results_identical_with_recorder_attached(self):
        event, tick, _, _ = self.run_with_recorders()
        assert event.served > 0
        assert_identical(event, tick)

    def test_recording_is_observation_only(self):
        # a bare run (no recorder) must be bit-identical to a recorded one
        event, tick, _, _ = self.run_with_recorders()
        bare_event, bare_tick = run_both(self.FLEET, serving=self.BUSY)
        assert_identical(bare_event, event)
        assert_identical(bare_tick, tick)

    def test_timelines_identical_across_engines(self):
        _, _, rec_event, rec_tick = self.run_with_recorders()
        tl_event = rec_event.timeline()
        tl_tick = rec_tick.timeline()
        assert tl_event == tl_tick
        assert tl_event["totals"]["completed"] > 0
        assert tl_event["num_windows"] > 0

    def test_chrome_traces_identical_and_valid(self, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        _, _, rec_event, rec_tick = self.run_with_recorders()
        doc_event = rec_event.to_chrome_trace()
        doc_tick = rec_tick.to_chrome_trace()
        assert doc_event == doc_tick
        assert validate_chrome_trace(doc_event) > 0
        # the written artefact must itself schema-validate after JSON round-trip
        out = rec_tick.write_chrome_trace(tmp_path / "fleet.trace.json")
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == len(doc_tick["traceEvents"])


def test_profiler_does_not_perturb_results():
    from repro.obs.profile import PhaseProfiler

    fleet = FleetConfig(num_replicas=3, router="p2c", num_regimes=2)
    bare_event, bare_tick = run_both(fleet)
    prof_event = PhaseProfiler()
    prof_tick = PhaseProfiler()
    event = run_engine(simulate_fleet_reference, fleet, profiler=prof_event)
    tick = run_engine(simulate_fleet_tick, fleet, profiler=prof_tick)
    assert_identical(bare_event, event)
    assert_identical(bare_tick, tick)
    for prof in (prof_event, prof_tick):
        p = prof.profile()
        assert p.total_s > 0.0
        assert sum(p.fractions.values()) == pytest.approx(1.0)


CHAOS_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001, backoff_factor=2.0)


@pytest.mark.parametrize("router", ROUTERS)
def test_crash_equivalence(router):
    chaos = ChaosSpec(
        crashes=(CrashSpec(0.02, 0), CrashSpec(0.05, 1)), retry=CHAOS_RETRY
    )
    fleet = FleetConfig(num_replicas=3, router=router, num_regimes=2, chaos=chaos)
    event, tick = run_both(fleet)
    assert len(event.failures) == 2
    assert all(f.kind == "crash" for f in event.failures)
    assert all(f.recovered_at_s is not None for f in event.failures)
    assert event.mean_time_to_recover_s > 0.0
    assert_conserved(event, SERVING.num_requests)
    assert_identical(event, tick)


def test_crash_all_replicas_retry_exhaustion():
    # every replica dies at once, queues deep, with a one-attempt budget and
    # no recovery: in-flight and queued work is lost terminally, later
    # arrivals shed "no-capacity"
    overload = ServingConfig(
        arrival_rate_rps=50000.0,
        num_requests=300,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=9,
    )
    chaos = ChaosSpec(
        crashes=(CrashSpec(0.002, 0), CrashSpec(0.002, 1)),
        retry=RetryPolicy(max_attempts=1),
        recover=False,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=500,
        chaos=chaos,
    )
    event, tick = run_both(fleet, serving=overload)
    assert len(event.failures) == 2
    assert all(f.recovered_at_s is None for f in event.failures)
    assert event.mean_time_to_recover_s == 0.0
    assert event.retries == 0
    assert len(event.lost) > 0
    assert all(lo.attempts == 1 and lo.reason == "crash" for lo in event.lost)
    assert "no-capacity" in {s.reason for s in event.shed}
    assert event.availability < 1.0
    assert_conserved(event, overload.num_requests)
    assert_identical(event, tick)


@pytest.mark.parametrize("migrate", (False, True))
def test_preemption_equivalence(migrate):
    # one preemption with a grace period too short to drain the batch
    # (kill-lost path) and one generous enough to drain clean
    chaos = ChaosSpec(
        preemptions=(
            PreemptSpec(0.02, 0, grace_s=0.00005),
            PreemptSpec(0.06, 1, grace_s=0.01),
        ),
        retry=CHAOS_RETRY,
    )
    fleet = FleetConfig(
        num_replicas=3,
        router="p2c",
        num_regimes=2,
        migrate_on_drain=migrate,
        chaos=chaos,
    )
    event, tick = run_both(fleet)
    assert len(event.failures) == 2
    assert all(f.kind == "preempt" for f in event.failures)
    assert any(f.lost_active + f.lost_queued > 0 for f in event.failures)
    assert_conserved(event, SERVING.num_requests)
    assert_identical(event, tick)


def test_brownout_equivalence():
    chaos = ChaosSpec(brownouts=(BrownoutSpec(0.01, 0.08, 0, factor=5.0),))
    fleet = FleetConfig(num_replicas=2, router="jsq", num_regimes=2, chaos=chaos)
    event, tick = run_both(fleet)
    bare_event, _ = run_both(dataclasses.replace(fleet, chaos=None))
    assert event.makespan_s != bare_event.makespan_s  # the slowdown is real
    assert not event.failures and not event.lost
    assert_identical(event, tick)


def test_attempt_timeout_equivalence():
    overload = ServingConfig(
        arrival_rate_rps=50000.0,
        num_requests=300,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=9,
    )
    chaos = ChaosSpec(
        retry=RetryPolicy(
            max_attempts=2, backoff_base_s=0.0005, attempt_timeout_s=0.002
        )
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=500,
        chaos=chaos,
    )
    event, tick = run_both(fleet, serving=overload)
    assert event.retries > 0  # queue waits exceed the per-attempt timeout
    assert_conserved(event, overload.num_requests)
    assert_identical(event, tick)


def test_chaos_with_autoscale():
    base = ServingConfig(
        arrival_rate_rps=15000.0,
        num_requests=600,
        generate_len=8,
        max_batch_requests=8,
        prompt_len=8,
        seed=5,
    )
    arrivals = flash_crowd_arrivals(base, 4.0, 0.005, 0.05)
    chaos = ChaosSpec(
        crashes=(CrashSpec(0.01, 0),),
        preemptions=(PreemptSpec(0.02, 1, grace_s=0.001),),
        retry=CHAOS_RETRY,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        autoscale=True,
        min_replicas=2,
        max_replicas=8,
        slo_ms=50.0,
        batch_slo_ms=500.0,
        autoscale_check_every_s=0.002,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
        chaos=chaos,
    )
    event, tick = run_both(fleet, serving=base, arrivals=arrivals)
    assert len(event.failures) == 2
    assert event.mean_time_to_recover_s > 0.0
    assert_conserved(event, base.num_requests)
    assert_identical(event, tick)


def test_bad_day_schedule_equivalence():
    chaos = bad_day_schedule(
        num_replicas=3, horizon_s=0.12, seed=2, crashes=1, preemptions=1, brownouts=1
    )
    fleet = FleetConfig(num_replicas=3, router="p2c", num_regimes=2, chaos=chaos)
    event, tick = run_both(fleet)
    assert len(event.failures) >= 1
    assert_conserved(event, SERVING.num_requests)
    assert_identical(event, tick)


class TestChaosTelemetryEquivalence:
    """Recording a chaos run must stay observation-only and engine-identical."""

    CHAOS = ChaosSpec(
        crashes=(CrashSpec(0.02, 0),),
        preemptions=(PreemptSpec(0.04, 1, grace_s=0.0001),),
        brownouts=(BrownoutSpec(0.01, 0.05, 2, factor=3.0),),
        retry=CHAOS_RETRY,
    )
    FLEET = FleetConfig(num_replicas=3, router="jsq", num_regimes=2, chaos=CHAOS)

    def run_with_recorders(self):
        from repro.obs.recorder import TimelineRecorder

        rec_event = TimelineRecorder()
        rec_tick = TimelineRecorder()
        event = run_engine(simulate_fleet_reference, self.FLEET, recorder=rec_event)
        tick = run_engine(simulate_fleet_tick, self.FLEET, recorder=rec_tick)
        return event, tick, rec_event, rec_tick

    def test_results_identical_with_recorder_attached(self):
        event, tick, _, _ = self.run_with_recorders()
        assert len(event.failures) == 2
        assert_identical(event, tick)

    def test_recording_is_observation_only(self):
        event, tick, _, _ = self.run_with_recorders()
        bare_event, bare_tick = run_both(self.FLEET)
        assert_identical(bare_event, event)
        assert_identical(bare_tick, tick)

    def test_timelines_identical_across_engines(self):
        _, _, rec_event, rec_tick = self.run_with_recorders()
        tl_event = rec_event.timeline()
        tl_tick = rec_tick.timeline()
        assert tl_event == tl_tick
        # the recorder counts hard kills; a preemption that drains clean
        # inside its grace period opens a FailureRecord but never fails
        assert tl_event["totals"]["failures"] >= 1
        assert tl_event["totals"]["retries"] + tl_event["totals"]["lost"] > 0

    def test_chrome_traces_identical_and_valid(self, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        _, _, rec_event, rec_tick = self.run_with_recorders()
        doc_event = rec_event.to_chrome_trace()
        doc_tick = rec_tick.to_chrome_trace()
        assert doc_event == doc_tick
        assert validate_chrome_trace(doc_event) > 0
        names = {e["name"] for e in doc_event["traceEvents"] if e.get("cat") == "chaos"}
        assert "fail" in names and "outage" in names
        out = rec_tick.write_chrome_trace(tmp_path / "chaos.trace.json")
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == len(doc_tick["traceEvents"])


class TestSloMonitoringEquivalence:
    """The SLO monitor must be observation-only and engine-identical.

    The whole monitored pipeline — recorder, burn-rate evaluator, blind
    signal detector, ground-truth scorer — runs through the ``run()``
    facade on both engines, over the bad-day smoke preset (hot enough
    that crashes lose work, brownouts span multiple baselined steps and
    the error budget actually burns).  The contract: bit-identical alert
    logs, detections and compliance summaries across engines, and not a
    single shared report field may change versus an unmonitored run.
    """

    def report(self, engine, monitored=True):
        from repro.obs.slo import SloSpec
        from repro.scenarios import TelemetrySpec, get_scenario, run

        s = dataclasses.replace(
            get_scenario("fleet-bad-day-smoke"),
            telemetry=TelemetrySpec(slo=SloSpec()) if monitored else None,
        )
        with fleet_engine(engine):
            return run(s)

    def test_alert_logs_identical_across_engines(self):
        ev = self.report(simulate_fleet_reference)
        tk = self.report(simulate_fleet_tick)
        assert ev.alerts == tk.alerts
        assert ev.detection == tk.detection
        assert ev.slo == tk.slo
        # and non-trivially so: this bad day is actually visible
        assert len(ev.alerts) >= 1
        scored = ev.detection["scored"]
        assert scored["outages"]["detected"] >= 1
        assert scored["brownouts"]["detected"] >= 1

    def test_alert_spans_well_formed(self):
        from repro.obs.slo import AlertSpan

        report = self.report(simulate_fleet_reference)
        spans = [AlertSpan(**a) for a in report.alerts]
        by_kind: dict[str, list[AlertSpan]] = {}
        for span in spans:
            assert span.close_s >= span.open_s
            by_kind.setdefault(span.kind, []).append(span)
        for kind_spans in by_kind.values():
            ordered = sorted(kind_spans, key=lambda s: s.open_s)
            for prev, cur in zip(ordered, ordered[1:]):
                assert prev.close_s <= cur.open_s, "alert spans overlap within a kind"

    def test_monitoring_is_observation_only(self):
        for engine in (simulate_fleet_reference, simulate_fleet_tick):
            mon = self.report(engine)
            bare = self.report(engine, monitored=False)
            drift = [
                f.name
                for f in dataclasses.fields(mon)
                if f.name not in ("slo", "alerts", "detection", "timeline")
                and getattr(mon, f.name) != getattr(bare, f.name)
            ]
            assert drift == []


def test_tick_rejects_custom_components():
    # both engines build the router and admission controller from the
    # FleetConfig; neither takes a custom one
    for engine in (simulate_fleet_reference, simulate_fleet_tick):
        args = _fleet_engine_args(MODEL, CLUSTER, SERVING, FleetConfig(num_regimes=1))
        with pytest.raises(TypeError, match="router"):
            engine(**args, router=object())
        with pytest.raises(TypeError, match="admission"):
            engine(**args, admission=object())
