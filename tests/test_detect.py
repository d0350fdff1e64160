"""SignalDetector unit tests: synthetic hook streams, scoring, FP guard.

The detector sees only the benign half of the recorder protocol, so every
behaviour here is driven by hand-built hook sequences: watchdog outages
(completion-gap and queue-stall), premature alarms resolved by observed
progress, replacement write-off and revival, brownout open/close from
step-time z-scores, and deliberate blindness to the chaos channel.  The
Hypothesis guard at the bottom holds the default thresholds to zero
alerts and zero detections across arbitrary chaos-free, adequately
provisioned steady-traffic fleets.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chaos import BrownoutSpec, ChaosSpec
from repro.config import ClusterConfig, FleetConfig, ModelConfig, ServingConfig
from repro.fleet import simulate as fleet_simulate
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.reference import simulate_fleet_reference
from repro.obs.detect import (
    ObservedBrownout,
    ObservedOutage,
    SignalDetector,
    score_against_chaos,
)
from repro.obs.slo import SloSpec
from repro.scenarios import Scenario, TelemetrySpec, run

STEP_S = 0.01  # synthetic steady step cadence; gap threshold = 12 * this


def make_detector(num_replicas: int = 2, **kwargs) -> SignalDetector:
    det = SignalDetector(**kwargs)
    det.on_run_start(0.0, {})
    for rid in range(num_replicas):
        det.on_replica_start(0.0, rid, 0, False, 0.0, 0.0)
    return det


def warm(det: SignalDetector, t: float, steps: int = 3, replicas=(0, 1)) -> float:
    """Feed identical steady steps so baselines and step counts exist."""
    for _ in range(steps):
        t += STEP_S
        for rid in replicas:
            det.on_step_end(t, rid, STEP_S, 4)
    return t


def tick_along(det: SignalDetector, t: float, until: float, rid: int = 1) -> float:
    """Keep one healthy replica stepping so the watchdog clock advances."""
    while t < until:
        t += STEP_S
        det.on_step_end(t, rid, STEP_S, 4)
    return t


class TestOutageWatchdogs:
    def test_completion_gap_opens_and_closes_at_run_end(self):
        det = make_detector()
        t = warm(det, 0.0)
        det.on_enqueue(t, 0, 100)
        det.on_admit(t, 0, [100], 0.0)
        t_silent = t
        t = tick_along(det, t, t_silent + 0.5)
        det.on_run_end(t)
        assert len(det.outages) == 1
        o = det.outages[0]
        assert o.replica == 0
        assert o.signal == "completion-gap"
        assert o.resolution == "run-end"
        # the alarm fires once the gap exceeds gap_factor expected steps
        assert o.detected_s >= t_silent + 12 * STEP_S
        assert o.detected_s < t_silent + 20 * STEP_S
        assert o.closed_s == t
        assert det.brownouts == ()

    def test_queue_stall_when_nothing_was_admitted(self):
        det = make_detector()
        t = warm(det, 0.0)
        det.on_enqueue(t, 0, 100)  # queued, never admitted
        t = tick_along(det, t, t + 0.5)
        det.on_run_end(t)
        assert [o.signal for o in det.outages] == ["queue-stall"]

    def test_observed_progress_resolves_as_resumed(self):
        det = make_detector()
        t = warm(det, 0.0)
        det.on_enqueue(t, 0, 100)
        det.on_admit(t, 0, [100], 0.0)
        t = tick_along(det, t, t + 0.3)
        det.on_complete(t + 0.001, 0, 100, 0.0, t, 6)
        det.on_run_end(t + 0.01)
        assert [o.resolution for o in det.outages] == ["resumed"]
        assert det.outages[0].closed_s == pytest.approx(t + 0.001)

    def test_idle_replica_never_alarms(self):
        det = make_detector()
        t = warm(det, 0.0)
        # replica 0 is silent but holds no believed work: not an outage
        t = tick_along(det, t, t + 1.0)
        det.on_run_end(t)
        assert det.outages == ()

    def test_boot_ready_closes_as_replaced_and_writes_off(self):
        det = make_detector()
        t = warm(det, 0.0)
        det.on_enqueue(t, 0, 100)
        det.on_admit(t, 0, [100], 0.0)
        t = tick_along(det, t, t + 0.3)
        det.on_replica_start(t, 2, 0, True, t + 0.005, t)
        det.on_boot_ready(t + 0.005, 2)
        assert [o.resolution for o in det.outages] == ["replaced"]
        # written off: the phantom believed batch must not re-alarm
        t = tick_along(det, t + 0.005, t + 1.0)
        assert len(det.outages) == 1
        # observed progress revives the watch; fresh silence alarms again
        det.on_complete(t, 0, 100, 0.0, 0.0, 6)
        det.on_enqueue(t, 0, 101)
        det.on_admit(t, 0, [101], 0.0)
        t = tick_along(det, t, t + 0.5)
        det.on_run_end(t)
        assert len(det.outages) == 2
        assert det.outages[1].resolution == "run-end"

    def test_sparse_replica_ids_rejected(self):
        det = make_detector()
        with pytest.raises(ValueError, match="densely"):
            det.on_replica_start(0.0, 5, 0, False, 0.0, 0.0)


class TestBrownoutDetection:
    def test_slow_streak_opens_and_calm_streak_closes(self):
        det = make_detector(num_replicas=1)
        t = warm(det, 0.0, steps=12, replicas=(0,))
        for _ in range(3):  # 5x baseline, 3 consecutive: opens
            t += 5 * STEP_S
            det.on_step_end(t, 0, 5 * STEP_S, 4)
        t_open = t
        for _ in range(3):  # back to baseline, 3 consecutive: closes
            t += STEP_S
            det.on_step_end(t, 0, STEP_S, 4)
        det.on_run_end(t)
        assert len(det.brownouts) == 1
        b = det.brownouts[0]
        assert b.replica == 0
        assert b.resolution == "cleared"
        assert b.detected_s == pytest.approx(t_open)
        assert b.closed_s > b.detected_s
        assert b.peak_z > 6.0
        assert det.outages == ()

    def test_single_slow_step_does_not_open(self):
        det = make_detector(num_replicas=1)
        t = warm(det, 0.0, steps=12, replicas=(0,))
        det.on_step_end(t + 5 * STEP_S, 0, 5 * STEP_S, 4)
        t = warm(det, t + 5 * STEP_S, steps=5, replicas=(0,))
        det.on_run_end(t)
        assert det.brownouts == ()

    def test_batch_growth_is_not_a_brownout(self):
        # doubling the batch roughly doubles the step: the normalization
        # must absorb it instead of paging
        det = make_detector(num_replicas=1)
        t = warm(det, 0.0, steps=12, replicas=(0,))
        for _ in range(6):
            t += 2 * STEP_S
            det.on_step_end(t, 0, 2 * STEP_S, 8)
        det.on_run_end(t)
        assert det.brownouts == ()

    def test_still_open_at_run_end(self):
        det = make_detector(num_replicas=1)
        t = warm(det, 0.0, steps=12, replicas=(0,))
        for _ in range(4):
            t += 5 * STEP_S
            det.on_step_end(t, 0, 5 * STEP_S, 4)
        det.on_run_end(t)
        assert [b.resolution for b in det.brownouts] == ["run-end"]


class TestChaosBlindness:
    def test_chaos_channel_hooks_are_inert(self):
        det = make_detector()
        t = warm(det, 0.0)
        det.on_preempt(t, 0, 0.001)
        det.on_fail(t, 0, "crash", 5, 3)
        det.on_retry(t, 100, 0, 1, 0.001, True)
        det.on_lost(t, 100, 0, 3, "retries-exhausted", True)
        det.on_recover(t, 2, 0, 0.005)
        t = warm(det, t, steps=2)
        det.on_run_end(t)
        # being told about the fault must not create a detection: only
        # request-level silence may
        assert det.outages == ()
        assert det.brownouts == ()
        assert det.summary()["observed_mttr_s"] == 0.0


class TestDetectorValidation:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"gap_factor": 1.0},
            {"outage_min_steps": 0},
            {"brownout_min_steps": 0},
            {"brownout_open_streak": 0},
            {"brownout_close_streak": 0},
            {"z_open": 0.0},
            {"rel_open": 1.0},
            {"rel_close": 0.9},
            {"z_floor_frac": 0.0},
        ),
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SignalDetector(**kwargs)


def _failure(t, rid, lost_active=1, lost_queued=0, recovered=None, kind="crash"):
    return SimpleNamespace(
        time_s=t,
        replica_id=rid,
        kind=kind,
        lost_active=lost_active,
        lost_queued=lost_queued,
        recovered_at_s=recovered,
    )


def _outage(rid, detected, closed, resolution="replaced"):
    return ObservedOutage(
        replica=rid,
        signal="completion-gap",
        detected_s=detected,
        closed_s=closed,
        resolution=resolution,
        last_progress_s=detected,
    )


class TestScoring:
    def test_perfect_detection(self):
        score = score_against_chaos(
            outages=[_outage(0, 1.5, 3.0)],
            brownouts=[],
            failures=[_failure(1.0, 0, recovered=2.0)],
            chaos=None,
        )
        out = score["outages"]
        assert out == {
            "true_events": 1,
            "observable_events": 1,
            "detected": 1,
            "observed_events": 1,
            "false_alarms": 0,
            "recall": 1.0,
            "precision": 1.0,
            "detection_latency": {"median_s": 0.5, "mean_s": 0.5, "max_s": 0.5},
            "observed_mttr_s": 1.5,
            "true_mttr_s": 1.0,
        }

    def test_invisible_fault_excluded_from_observable(self):
        # a crash that destroyed no work cannot be seen by request-level
        # signals; missing it does not count against recall
        score = score_against_chaos(
            outages=[],
            brownouts=[],
            failures=[_failure(1.0, 0, lost_active=0, lost_queued=0)],
            chaos=None,
        )
        assert score["outages"]["observable_events"] == 0
        assert score["outages"]["recall"] == 1.0

    def test_false_alarm_costs_precision_not_recall(self):
        score = score_against_chaos(
            outages=[_outage(0, 1.5, 3.0), _outage(1, 2.0, 3.0)],
            brownouts=[],
            failures=[_failure(1.0, 0)],
            chaos=None,
        )
        assert score["outages"]["false_alarms"] == 1
        assert score["outages"]["precision"] == 0.5
        assert score["outages"]["recall"] == 1.0

    def test_detection_before_fault_does_not_match(self):
        score = score_against_chaos(
            outages=[_outage(0, 0.5, 0.9)],
            brownouts=[],
            failures=[_failure(1.0, 0)],
            chaos=None,
        )
        assert score["outages"]["detected"] == 0
        assert score["outages"]["false_alarms"] == 1

    def test_each_detection_matches_at_most_one_fault(self):
        score = score_against_chaos(
            outages=[_outage(0, 1.5, 3.0)],
            brownouts=[],
            failures=[_failure(1.0, 0), _failure(1.2, 0)],
            chaos=None,
        )
        assert score["outages"]["detected"] == 1
        assert score["outages"]["recall"] == 0.5

    def test_brownouts_match_on_replica_and_overlap(self):
        chaos = ChaosSpec(
            brownouts=(
                BrownoutSpec(start_s=1.0, duration_s=1.0, replica=0, factor=3.0),
                BrownoutSpec(start_s=5.0, duration_s=1.0, replica=1, factor=3.0),
            )
        )
        observed = [
            ObservedBrownout(
                replica=0, detected_s=1.2, closed_s=1.8, resolution="cleared", peak_z=9.0
            ),
            # wrong replica for the second window: unmatched on both sides
            ObservedBrownout(
                replica=0, detected_s=5.2, closed_s=5.8, resolution="cleared", peak_z=9.0
            ),
        ]
        score = score_against_chaos(
            outages=[], brownouts=observed, failures=[], chaos=chaos
        )
        bro = score["brownouts"]
        assert bro["true_events"] == 2
        assert bro["detected"] == 1
        assert bro["false_alarms"] == 1
        assert bro["recall"] == 0.5
        assert bro["precision"] == 0.5
        assert bro["detection_latency"]["median_s"] == pytest.approx(0.2)


# -- the false-positive guard ---------------------------------------------

FP_MODEL = ModelConfig(
    name="detect-fp-test", num_layers=4, num_experts=8, d_model=64, num_heads=4
)
FP_CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=2)

serving_cfgs = st.builds(
    ServingConfig,
    arrival=st.sampled_from(["poisson", "bursty"]),
    arrival_rate_rps=st.sampled_from([300.0, 1000.0, 3000.0]),
    num_requests=st.integers(60, 140),
    generate_len=st.integers(4, 8),
    max_batch_requests=st.sampled_from([4, 8]),
    prompt_len=st.sampled_from([8, 16, 32]),
    seed=st.integers(0, 7),
)
fleet_cfgs = st.builds(
    FleetConfig,
    num_replicas=st.integers(2, 4),
    router=st.sampled_from(["round-robin", "jsq", "p2c"]),
    num_regimes=st.just(2),
    slo_ms=st.just(10000.0),
    batch_slo_ms=st.just(20000.0),
    max_queue_per_replica=st.just(64),
)


@settings(max_examples=10, deadline=None)
@given(
    serving=serving_cfgs,
    fleet=fleet_cfgs,
    engine=st.sampled_from([simulate_fleet_reference, simulate_fleet_tick]),
)
def test_no_alerts_on_chaos_free_steady_traffic(serving, fleet, engine):
    """Default thresholds stay silent on any adequately provisioned day,
    on either fleet engine (the oracle swapped in at the one call site)."""
    s = Scenario(
        name="detect-fp-guard",
        model=FP_MODEL,
        cluster=FP_CLUSTER,
        serving=serving,
        fleet=fleet,
        telemetry=TelemetrySpec(slo=SloSpec()),
    )
    with mock.patch.object(fleet_simulate, "simulate_fleet_tick", engine):
        report = run(s)
    # the property is about monitoring, not capacity planning: a draw
    # that legitimately sheds is outside the steady-day contract
    assume(report.shed_fraction == 0.0)
    assert report.alerts == []
    assert report.detection["outages"] == []
    assert report.detection["brownouts"] == []
    scored = report.detection["scored"]
    assert scored["outages"]["false_alarms"] == 0
    assert scored["brownouts"]["false_alarms"] == 0
    assert report.slo["ok"] is True
