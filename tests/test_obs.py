"""Unit tests for repro.obs: recorder windowing, trace validation,
self-profiling, the telemetry spec, and the CLI export/report paths.

Cross-engine telemetry equivalence lives in test_fleet_equivalence.py;
this module covers the observability layer's own contracts — window
doubling conserves totals, the span budget degrades gracefully, the
Chrome-trace validator rejects malformed documents, and profiler phase
fractions always sum to one.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro.config import ClusterConfig, FleetConfig, ServingConfig, paper_model
from repro.engine.metrics import LATENCY_HIST_EDGES_S, LatencyStats
from repro.obs.profile import MEASURED_PHASES, PROFILE_PHASES, PhaseProfiler
from repro.obs.recorder import MetricsRecorder, NullRecorder, TeeRecorder, TimelineRecorder
from repro.obs.trace import validate_chrome_trace
from repro.scenarios import Scenario, SimReport, TelemetrySpec, run

SMALL_CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=2)
SMALL_SERVING = ServingConfig(
    arrival_rate_rps=900.0,
    num_requests=24,
    generate_len=4,
    max_batch_requests=8,
    prompt_len=8,
    seed=0,
)


def drive(rec, n=100, dt=0.01, meta=None):
    """Feed a synthetic single-replica hook stream: n requests, one per dt."""
    rec.on_run_start(0.0, meta if meta is not None else {"num_gpus": 4.0, "gpu_hour_usd": 2.0})
    rec.on_replica_start(0.0, 0, 0, False, 0.0, 0.0)
    t = 0.0
    for i in range(n):
        t = i * dt
        rec.on_enqueue(t, 0, i)
        rec.on_admit(t + dt / 4, 0, [i], 0.0)
        rec.on_step_end(t + dt / 2, 0, dt / 4, 1)
        rec.on_complete(t + dt / 2, 0, i, t, t + dt / 4, 4)
    rec.on_run_end(t + dt)
    return rec


class TestNullRecorder:
    def test_all_hooks_are_noops(self):
        rec = NullRecorder()
        rec.on_run_start(0.0, {})
        rec.on_replica_start(0.0, 0, 0, True, 1.0, 0.0)
        rec.on_boot_ready(1.0, 0)
        rec.on_enqueue(1.0, 0, 7)
        rec.on_requeue(1.5, 0, 1)
        rec.on_shed(2.0, 8, None, "queue-full")
        rec.on_admit(2.0, 0, [7], 0.001)
        rec.on_step_end(2.1, 0, 0.1, 1)
        rec.on_complete(2.1, 0, 7, 1.0, 2.0, 4)
        rec.on_scale(2.5, "up", 9.0, 1, 2, 0.5)
        rec.on_drain(3.0, 0)
        rec.on_stop(3.5, 0)
        rec.on_run_end(4.0)


HOOKS = [name for name in vars(MetricsRecorder) if name.startswith("on_")]


def _logging_recorder(label, log):
    """A recorder that appends ``(hook, label, args)`` to ``log`` for every hook."""

    def hook(name):
        def record(self, *args):
            log.append((name, label, args))

        return record

    return type("LoggingRecorder", (MetricsRecorder,), {h: hook(h) for h in HOOKS})()


class TestTeeRecorder:
    def test_forwards_every_hook_once_per_child_in_order(self):
        assert len(HOOKS) == 18
        log: list = []
        tee = TeeRecorder((_logging_recorder("a", log), _logging_recorder("b", log)))
        expected = []
        for i, name in enumerate(HOOKS):
            # distinct positional args per hook, one per hook parameter
            n_args = len(inspect.signature(getattr(MetricsRecorder, name)).parameters) - 1
            args = tuple(range(i, i + n_args))
            getattr(tee, name)(*args)
            expected += [(name, "a", args), (name, "b", args)]
        # a hook the tee does not forward hits the base no-op and logs nothing
        assert log == expected


class TestTimelineRecorder:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"window_s": 0.0},
            {"window_s": -1.0},
            {"max_windows": 1},
            {"max_span_events": -1},
        ),
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            TimelineRecorder(**kwargs)

    def test_single_use(self):
        rec = drive(TimelineRecorder(), n=3)
        with pytest.raises(RuntimeError, match="single-use"):
            rec.on_run_start(0.0, {})

    def test_hooks_require_run_start(self):
        rec = TimelineRecorder()
        with pytest.raises(RuntimeError, match="on_run_start"):
            rec.on_enqueue(0.0, 0, 1)

    def test_replica_ids_must_be_dense(self):
        rec = TimelineRecorder()
        rec.on_run_start(0.0, {})
        with pytest.raises(ValueError, match="densely"):
            rec.on_replica_start(0.0, 3, 0, False, 0.0, 0.0)

    def test_auto_window_doubles_and_conserves_totals(self):
        max_windows = 8
        rec = drive(TimelineRecorder(max_windows=max_windows), n=500)
        tl = rec.timeline()
        # the window grew from its 2^-20 s seed to cover the 5 s horizon
        assert rec.window_s > 2.0**-20
        assert 0 < tl["num_windows"] <= 2 * max_windows + 1
        # doubling pair-merges closed windows: nothing is lost
        assert tl["totals"]["admitted"] == 500
        assert tl["totals"]["completed"] == 500
        assert sum(tl["windows"]["admitted"]) == 500
        assert sum(tl["windows"]["completed"]) == 500
        assert tl["windows"]["cum_completed"][-1] == 500

    def test_explicit_window_is_never_merged(self):
        rec = drive(TimelineRecorder(window_s=0.05), n=100, dt=0.01)
        tl = rec.timeline()
        assert tl["window_s"] == 0.05
        # boundaries sit on the fixed grid (last one is the run end)
        for k, rel in enumerate(tl["time_s"][:-1]):
            assert rel == pytest.approx(0.05 * (k + 1))
        assert sum(tl["windows"]["completed"]) == 100

    def test_latency_series(self):
        rec = drive(TimelineRecorder(window_s=0.05), n=100, dt=0.01)
        tl = rec.timeline()
        # every request completes dt/2 after arrival in the synthetic stream
        for mean, mx, c in zip(
            tl["windows"]["latency_mean_s"],
            tl["windows"]["latency_max_s"],
            tl["windows"]["completed"],
            strict=True,
        ):
            if c:
                assert mean == pytest.approx(0.005)
                assert mx == pytest.approx(0.005)

    def test_cost_series_accrues(self):
        rec = drive(TimelineRecorder(window_s=0.05), n=100, dt=0.01)
        costs = rec.timeline()["windows"]["cost_usd"]
        assert costs == sorted(costs)
        # 1 s of 4 gpus at 2 $/gpu-hour
        assert costs[-1] == pytest.approx(4.0 * 2.0 * 1.0 / 3600.0)

    def test_empty_meta_reports_zero_cost(self):
        rec = drive(TimelineRecorder(window_s=0.05), n=10, meta={})
        assert set(rec.timeline()["windows"]["cost_usd"]) == {0.0}

    def test_span_budget_degrades_gracefully(self):
        rec = drive(TimelineRecorder(max_span_events=10), n=50)
        assert rec.dropped_span_events > 0
        tl = rec.timeline()
        assert tl["totals"]["dropped_span_events"] == rec.dropped_span_events
        # timelines are unaffected by span exhaustion
        assert tl["totals"]["completed"] == 50

    def test_scale_events_survive_span_exhaustion(self):
        rec = TimelineRecorder(max_span_events=0)
        rec.on_run_start(0.0, {})
        rec.on_replica_start(0.0, 0, 0, False, 0.0, 0.0)
        rec.on_scale(0.5, "up", 9.0, 1, 2, 0.25)
        rec.on_run_end(1.0)
        doc = rec.to_chrome_trace()
        names = [e["name"] for e in doc["traceEvents"]]
        assert "scale-up" in names
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])

    def test_spans_disabled_still_exports_counters(self):
        rec = drive(TimelineRecorder(spans=False, window_s=0.05), n=20)
        assert rec.dropped_span_events == 0
        doc = rec.to_chrome_trace()
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "C" in phases and "M" in phases
        assert "X" not in phases and "b" not in phases
        assert validate_chrome_trace(doc) > 0

    def test_replica_rows_utilization_bounds(self):
        rec = drive(TimelineRecorder(), n=50)
        rows = rec.replica_rows()
        assert len(rows) == 1
        assert 0.0 <= rows[0]["utilization"] <= 1.0
        assert rows[0]["completed"] == 50

    def test_timeline_is_json_ready(self):
        rec = drive(TimelineRecorder(max_windows=4), n=30)
        tl = rec.timeline()
        assert json.loads(json.dumps(tl)) == tl


class TestTraceValidator:
    def good(self, **over):
        ev = {"name": "step", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 2.0}
        ev.update(over)
        return ev

    def test_accepts_minimal_document(self):
        assert validate_chrome_trace({"traceEvents": [self.good()]}) == 1

    @pytest.mark.parametrize(
        "doc",
        (
            [],  # not an object
            {},  # no traceEvents
            {"traceEvents": []},  # empty
            {"traceEvents": ["nope"]},  # event not an object
        ),
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(ValueError):
            validate_chrome_trace(doc)

    @pytest.mark.parametrize(
        "over",
        (
            {"ph": "Q"},  # unknown phase
            {"name": ""},  # missing name
            {"pid": "0"},  # non-int pid
            {"ts": -1.0},  # negative timestamp
            {"dur": -2.0},  # negative duration
            {"dur": None},  # X without dur
        ),
    )
    def test_rejects_malformed_events(self, over):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [self.good(**over)]})

    def test_rejects_unbalanced_async_pairs(self):
        b = self.good(ph="b", cat="request", id="1")
        del b["dur"]
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace({"traceEvents": [b]})

    def test_balanced_async_pairs_pass(self):
        b = {"name": "queue", "ph": "b", "cat": "request", "id": "1", "pid": 1, "tid": 0, "ts": 0}
        e = {**b, "ph": "e", "ts": 5}
        assert validate_chrome_trace({"traceEvents": [b, e]}) == 2

    def test_rejects_instant_without_scope(self):
        ev = {"name": "shed", "ph": "i", "pid": 0, "tid": 0, "ts": 0}
        with pytest.raises(ValueError, match="scope"):
            validate_chrome_trace({"traceEvents": [ev]})

    def test_rejects_counter_without_args(self):
        ev = {"name": "queued", "ph": "C", "pid": 0, "tid": 0, "ts": 0, "args": {}}
        with pytest.raises(ValueError, match="args"):
            validate_chrome_trace({"traceEvents": [ev]})


class TestPhaseProfiler:
    def test_fractions_sum_to_one(self):
        prof = PhaseProfiler()
        prof.run_start()
        for _ in range(1000):
            pass
        prof.run_end()
        prof.add("routing", 1e-9)
        p = prof.profile()
        assert p.total_s > 0.0
        assert set(p.phase_s) == set(PROFILE_PHASES)
        assert sum(p.fractions.values()) == pytest.approx(1.0)
        assert p.phase_s["bookkeeping"] >= 0.0

    def test_measured_overrun_clamps_bookkeeping(self):
        # clock granularity can make measured > bracketed total
        prof = PhaseProfiler()
        prof.run_start()
        prof.run_end()
        prof.add("routing", 5.0)
        p = prof.profile()
        assert p.total_s == pytest.approx(5.0)
        assert p.phase_s["bookkeeping"] == 0.0
        assert sum(p.fractions.values()) == pytest.approx(1.0)

    def test_zero_total_has_zero_fractions(self):
        p = PhaseProfiler().profile()
        assert p.total_s == 0.0
        assert set(p.fractions.values()) == {0.0}

    def test_unknown_phase_rejected(self):
        with pytest.raises(KeyError, match="unknown profile phase"):
            PhaseProfiler().add("gardening", 1.0)
        assert "routing" in MEASURED_PHASES

    def test_unbalanced_brackets_rejected(self):
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError):
            prof.run_end()
        prof.run_start()
        with pytest.raises(RuntimeError):
            prof.run_start()

    def test_as_dict_round_trips_through_json(self):
        prof = PhaseProfiler()
        prof.run_start()
        prof.run_end()
        d = prof.profile().as_dict()
        assert json.loads(json.dumps(d)) == d


class TestLatencyHistogram:
    def test_counts_conserved(self):
        samples = [0.0005, 0.001, 0.0015, 0.3, 7.0, 9999.0]
        stats = LatencyStats.from_samples(samples)
        assert len(stats.histogram) == len(LATENCY_HIST_EDGES_S) + 1
        assert sum(stats.histogram) == stats.count == len(samples)
        assert sum(stats.histogram_dict().values()) == len(samples)

    def test_bucket_semantics(self):
        # bucket i is [edges[i-1], edges[i]): a sample exactly on an edge
        # belongs to the bucket above it
        hist = LatencyStats.from_samples([0.001]).histogram_dict()
        assert hist["<0.001s"] == 0
        assert hist["<0.002s"] == 1
        assert LatencyStats.from_samples([9999.0]).histogram_dict()["+inf"] == 1

    def test_empty_sample(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert sum(stats.histogram) == 0
        assert len(stats.histogram) == len(LATENCY_HIST_EDGES_S) + 1

    def test_pre_histogram_stats_yield_empty_dict(self):
        legacy = LatencyStats(count=3, mean_s=0.1, p50_s=0.1, p95_s=0.1, p99_s=0.1, max_s=0.1)
        assert legacy.histogram_dict() == {}

    def test_histograms_merge_by_addition(self):
        a = LatencyStats.from_samples([0.01, 0.3])
        b = LatencyStats.from_samples([0.01, 7.0])
        merged = [x + y for x, y in zip(a.histogram, b.histogram, strict=True)]
        both = LatencyStats.from_samples([0.01, 0.3, 0.01, 7.0])
        assert tuple(merged) == both.histogram


def _serving_scenario(**overrides) -> Scenario:
    fields = dict(
        name="t-obs-serving",
        model=paper_model("gpt-m-350m-e8"),
        cluster=SMALL_CLUSTER,
        serving=SMALL_SERVING,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestTelemetrySpec:
    @pytest.mark.parametrize(
        "kwargs",
        ({"window_s": 0.0}, {"max_windows": 1}, {"max_span_events": -1}),
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError, match="telemetry"):
            TelemetrySpec(**kwargs)

    def test_telemetry_needs_serving_or_fleet_kind(self):
        from repro.config import InferenceConfig

        with pytest.raises(ValueError, match="serving and fleet"):
            Scenario(
                name="t-batch",
                model=paper_model("gpt-m-350m-e8"),
                cluster=SMALL_CLUSTER,
                batch=InferenceConfig(requests_per_gpu=2, prompt_len=8, generate_len=3),
                telemetry=TelemetrySpec(),
            )

    def test_profile_needs_fleet_section(self):
        with pytest.raises(ValueError, match="fleet"):
            _serving_scenario(telemetry=TelemetrySpec(profile=True))

    def test_round_trips_through_serde(self):
        s = _serving_scenario(telemetry=TelemetrySpec(window_s=0.25, max_windows=32))
        assert Scenario.from_dict(s.to_dict()) == s
        assert Scenario.from_json(s.to_json()) == s


class TestRunFacadeTelemetry:
    def test_serving_scenario_records_timeline(self):
        report = run(_serving_scenario(telemetry=TelemetrySpec()))
        tl = report.timeline
        assert tl is not None
        assert tl["totals"]["completed"] == report.completed
        assert tl["num_replicas"] == 1
        assert report.latency_hist
        assert sum(report.latency_hist.values()) == report.completed
        # recording is observation-only: the bare run agrees on every field
        bare = run(_serving_scenario())
        assert dataclasses.replace(report, timeline=None) == bare
        assert [
            (c.request.req_id, c.admitted_s, c.finished_s) for c in report.raw.completed
        ] == [(c.request.req_id, c.admitted_s, c.finished_s) for c in bare.raw.completed]
        assert report.raw.busy_s == bare.raw.busy_s

    def test_fleet_scenario_records_timeline_and_profile(self):
        s = _serving_scenario(
            name="t-obs-fleet",
            fleet=FleetConfig(num_replicas=2, router="jsq"),
            telemetry=TelemetrySpec(profile=True),
        )
        report = run(s)
        assert report.timeline is not None
        assert report.timeline["num_replicas"] == 2
        assert report.extra["profile_total_s"] > 0.0
        fracs = [report.extra[f"profile_{p}_frac"] for p in PROFILE_PHASES]
        assert sum(fracs) == pytest.approx(1.0)

    def test_no_telemetry_means_no_timeline(self):
        report = run(_serving_scenario())
        assert report.timeline is None
        assert "profile_total_s" not in report.extra

    def test_recorder_rejected_for_batch_kind(self):
        from repro.config import InferenceConfig

        s = Scenario(
            name="t-batch",
            model=paper_model("gpt-m-350m-e8"),
            cluster=SMALL_CLUSTER,
            batch=InferenceConfig(requests_per_gpu=2, prompt_len=8, generate_len=3),
        )
        with pytest.raises(ValueError, match="serving and fleet"):
            run(s, recorder=TimelineRecorder())

    @pytest.mark.parametrize(
        "name", ["fig15-abrupt-smoke", "fig15-gradual-smoke", "fig15-diurnal-smoke"]
    )
    def test_online_preset_records_like_bare_run(self, name):
        rec = TimelineRecorder()
        report = run(name, recorder=rec)
        bare = run(name)
        assert report.kind == "online"
        assert dataclasses.replace(report, timeline=None) == bare
        got, want = report.raw, bare.raw
        assert got.serving.busy_s == want.serving.busy_s
        assert got.kept_timeline == want.kept_timeline
        assert got.events == want.events
        assert (got.final_placement.gpu_of == want.final_placement.gpu_of).all()
        assert validate_chrome_trace(rec.to_chrome_trace()) > 0
        assert report.timeline["totals"]["completed"] == report.completed
        assert sum(report.latency_hist.values()) == report.completed

    @pytest.mark.parametrize("name", ["serve-poisson-smoke", "fig15-abrupt-smoke"])
    def test_single_replica_timeline_bills_the_report_cost(self, name):
        # the loop reports the cluster's cost constants at run start, so
        # the timeline's cumulative cost ends at the report's bill
        rec = TimelineRecorder()
        report = run(name, recorder=rec)
        costs = rec.timeline()["windows"]["cost_usd"]
        assert report.cost_usd > 0.0
        assert costs == sorted(costs)
        assert costs[-1] == pytest.approx(report.cost_usd, rel=1e-12)

    def test_profiler_rejected_without_fleet(self):
        with pytest.raises(ValueError, match="fleet"):
            run(_serving_scenario(), profiler=PhaseProfiler())

    def test_report_round_trips_with_timeline(self):
        report = run(_serving_scenario(telemetry=TelemetrySpec()), keep_raw=False)
        clone = SimReport.from_json(json.dumps(report.to_dict()))
        assert clone == dataclasses.replace(report, raw=None)
        assert clone.timeline == report.timeline
        assert clone.latency_hist == report.latency_hist
        assert clone.is_finite()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            SimReport.from_dict({"scenario": "x", "kind": "serving", "bogus": 1})


class TestCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        _serving_scenario(telemetry=TelemetrySpec(window_s=0.05)).save(path)
        return path

    def test_run_exports_trace_and_metrics(self, tmp_path, spec_file, capsys):
        trace = tmp_path / "out.trace.json"
        metrics = tmp_path / "out.metrics.json"
        rc = self.run_cli(
            ["run", "--scenario", str(spec_file), "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert rc == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        doc = json.loads(metrics.read_text())
        assert doc["scenario"] == "t-obs-serving"
        assert doc["kind"] == "serving"
        assert doc["metrics"]["totals"]["completed"] > 0

    def test_report_reads_metrics_doc(self, tmp_path, spec_file, capsys):
        metrics = tmp_path / "out.metrics.json"
        self.run_cli(["run", "--scenario", str(spec_file), "--metrics", str(metrics)])
        capsys.readouterr()
        assert self.run_cli(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "replica" in out

    def test_report_rejects_trace_files(self, tmp_path, spec_file, capsys):
        trace = tmp_path / "out.trace.json"
        self.run_cli(["run", "--scenario", str(spec_file), "--trace", str(trace)])
        assert self.run_cli(["report", str(trace)]) == 2

    def test_trace_rejected_for_batch_scenarios(self, tmp_path, capsys):
        from repro.config import InferenceConfig

        spec = tmp_path / "batch.json"
        Scenario(
            name="t-batch",
            model=paper_model("gpt-m-350m-e8"),
            cluster=SMALL_CLUSTER,
            batch=InferenceConfig(requests_per_gpu=2, prompt_len=8, generate_len=3),
        ).save(spec)
        rc = self.run_cli(["run", "--scenario", str(spec), "--trace", str(tmp_path / "t.json")])
        assert rc == 2
