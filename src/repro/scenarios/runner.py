"""The ``run()`` facade: one entry point for every scenario kind.

``run(scenario)`` inspects the spec's sections, dispatches to the right
simulator — the lockstep batch engine, the single-replica continuous-
batching loop, the online drift-aware loop, or the fleet event simulation
— and condenses the outcome into one :class:`~repro.scenarios.report.SimReport`.
The full underlying result object stays reachable on ``report.raw``.

``run_sweep(scenarios)`` executes a list of scenarios (objects or
registered preset names) across a multiprocessing pool — the parameter-
grid workhorse: build the grid with ``dataclasses.replace`` over a base
spec, hand the list over, get rectangular reports back.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import traceback
import warnings
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.config import ExecutionMode
from repro.core.online import OnlineReplacer
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.comparison import compare_modes
from repro.engine.serving import (
    CurvePricer,
    DriftPricer,
    continuous_batching,
    engine_step_time,
    make_arrivals,
)
from repro.engine.workload import make_drift_scenario
from repro.fleet.requests import flash_crowd_arrivals
from repro.fleet.simulate import _simulate_fleet_cluster_serving
from repro.obs.detect import SignalDetector, score_against_chaos
from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import MetricsRecorder, TeeRecorder, TimelineRecorder, run_meta
from repro.obs.slo import compliance_summary, evaluate_burn_alerts
from repro.scenarios.report import SimReport
from repro.scenarios.spec import Scenario

__all__ = ["SweepError", "make_recorder", "run", "run_sweep"]


class SweepError(RuntimeError):
    """A sweep worker failed; carries which scenario and its full spec.

    A bare exception escaping a ``multiprocessing`` worker surfaces as a
    context-free traceback with no hint of *which* grid point died.  The
    sweep runner wraps worker failures so the scenario name and its exact
    spec JSON travel with the error — enough to re-run the single point
    with :func:`run` and debug it serially.

    Constructed with ``(scenario_name, spec_json, details)`` positional
    args (all strings) so the instance survives pickling back across the
    pool boundary.
    """

    def __init__(self, scenario_name: str, spec_json: str, details: str) -> None:
        super().__init__(scenario_name, spec_json, details)
        self.scenario_name = scenario_name
        self.spec_json = spec_json
        self.details = details

    def __str__(self) -> str:
        return (
            f"sweep worker failed on scenario {self.scenario_name!r}\n"
            f"--- scenario spec ---\n{self.spec_json}\n"
            f"--- worker traceback ---\n{self.details}"
        )

# compare_modes row holding each execution mode's numbers
_MODE_ROW = {
    ExecutionMode.VANILLA: "deepspeed",
    ExecutionMode.CONTEXT_COHERENT: "exflow-noaff",
    ExecutionMode.EXFLOW: "exflow",
}


def _resolve(scenario: Scenario | str) -> Scenario:
    if isinstance(scenario, str):
        from repro.scenarios.registry import get_scenario

        return get_scenario(scenario)
    if not isinstance(scenario, Scenario):
        raise TypeError(
            f"run() takes a Scenario or a registered name, got {type(scenario).__name__}"
        )
    return scenario


def _cost_fields(scenario: Scenario, makespan_s: float, tokens: int) -> dict:
    """Single-replica cost account: one cluster billed for the makespan."""
    gpu_hours = makespan_s * scenario.cluster.num_gpus / 3600.0
    cost = gpu_hours * scenario.cluster.gpu_hour_usd
    return {
        "gpu_hours": gpu_hours,
        "cost_usd": cost,
        "usd_per_million_tokens": cost / (tokens / 1e6) if tokens > 0 else 0.0,
    }


def _run_batch(s: Scenario) -> SimReport:
    rows = compare_modes(
        s.model,
        s.cluster,
        s.batch,
        placement_strategy=s.placement_strategy,
        affinity=s.affinity,
        seed=s.seed,
    )
    head = rows[_MODE_ROW[s.mode]].result
    completed = s.batch.total_requests(s.cluster.num_gpus)
    makespan = head.total_time_s
    return SimReport(
        scenario=s.name,
        kind="batch",
        completed=completed,
        generated_tokens=head.generated_tokens,
        makespan_s=makespan,
        decode_steps=head.iterations,
        mean_batch_size=float(completed),
        throughput_rps=completed / makespan if makespan > 0 else 0.0,
        throughput_tokens_per_s=head.throughput_tokens_per_s,
        extra={
            "speedup_noaff": rows["exflow-noaff"].speedup,
            "speedup_exflow": rows["exflow"].speedup,
            "comm_reduction_exflow": rows["exflow"].comm_reduction,
            "alltoall_fraction_deepspeed": rows["deepspeed"].result.alltoall_fraction,
            "gpu_stay_fraction_exflow": rows["exflow"].result.gpu_stay_fraction,
        },
        **_cost_fields(s, makespan, head.generated_tokens),
        raw=rows,
    )


def _curve_pricer(s: Scenario) -> CurvePricer:
    """The calibrated step-time curve, probed up to the admission cap."""
    serving = s.serving
    g = s.cluster.num_gpus
    cap_per_gpu = max(1, -(-serving.max_batch_requests // g))  # ceil div
    probes = sorted({1, *(p for p in (2, 4, 8) if p < cap_per_gpu), cap_per_gpu})
    return CurvePricer(
        engine_step_time(
            s.model,
            s.cluster,
            mode=s.mode,
            prompt_len=serving.prompt_len,
            affinity=s.affinity,
            placement_strategy=s.placement_strategy,
            probe_requests_per_gpu=probes,
            seed=serving.seed,
        )
    )


def _drift_pricer(s: Scenario) -> DriftPricer:
    """Deploy as a real cluster would, then price the drifting workload.

    Profile the *initial* regime offline (``profile_tokens`` sampled from
    the drift scenario at t=0), solve the placement once, then serve under
    the drift ``s.drift`` names over the expected horizon
    (``num_requests / arrival_rate_rps``) — statically without a
    replacement section, with online re-placement with one.

    Seed layout (all derived from ``serving.seed``, all disjoint): arrivals
    use ``seed``, the offline profile ``seed + 1``, the per-step routing
    draws ``seed + 2``, and the replacer's solver ``seed + 3`` — the live
    token stream must never replay the profile stream, or the placement
    would be scored on the data it was fit to.
    """
    model, cluster, serving = s.model, s.cluster, s.serving
    drift = make_drift_scenario(
        s.drift.kind if s.drift is not None else "none",
        model.num_experts,
        model.num_moe_layers,
        horizon_s=serving.num_requests / serving.arrival_rate_rps,
        affinity=s.affinity,
        seed=serving.seed,
    )
    if s.mode.uses_affinity_placement:
        profile = drift.model_at(0.0).sample(
            s.profile_tokens, np.random.default_rng(serving.seed + 1)
        )
        placement = solve_placement(s.placement_strategy, profile, cluster)
    else:
        placement = vanilla_placement(
            model.num_moe_layers, model.num_experts, cluster.num_gpus
        )
    replacer = None
    if s.replacement is not None:
        replacer = OnlineReplacer(
            model,
            cluster,
            policy=s.replacement.policy,
            halflife_tokens=s.replacement.halflife_tokens,
            dtype_bytes=2,
            rng=np.random.default_rng(serving.seed + 3),
        )
    return DriftPricer(
        model,
        cluster,
        drift,
        placement,
        mode=s.mode,
        replacer=replacer,
        rng=np.random.default_rng(serving.seed + 2),
    )


def _run_single_replica(
    s: Scenario, recorder: MetricsRecorder | None = None
) -> SimReport:
    """``serving`` and ``online`` kinds: one continuous-batching replica.

    The kinds differ only in the step pricer: ``serving`` prices steps
    from the calibrated batch-size curve, ``online`` from each step's
    sampled drifting routing under a live placement.
    """
    pricer = _drift_pricer(s) if s.kind == "online" else _curve_pricer(s)
    requests = make_arrivals(s.serving, np.random.default_rng(s.serving.seed))
    res = continuous_batching(
        requests,
        pricer,
        max_batch_requests=s.serving.max_batch_requests,
        num_gpus=s.cluster.num_gpus,
        recorder=recorder,
        meta=run_meta(s.cluster),
    )
    raw: object = res
    account: dict[str, Any] = {}
    if isinstance(pricer, DriftPricer):
        online = pricer.result(res)
        timeline = online.kept_timeline
        raw = online
        account = {
            "kept_mass_initial": timeline[0].true_kept if timeline else None,
            "kept_mass_final": timeline[-1].true_kept if timeline else None,
            "num_replacements": online.num_replacements,
            "migration_stall_s": online.migration_stall_s,
        }
    return SimReport(
        scenario=s.name,
        kind=s.kind,
        completed=res.num_completed,
        generated_tokens=res.generated_tokens,
        makespan_s=res.makespan_s,
        decode_steps=res.decode_steps,
        mean_batch_size=res.mean_batch_size,
        throughput_rps=res.throughput_rps,
        throughput_tokens_per_s=res.throughput_tokens_per_s,
        latency_mean_s=res.latency.mean_s,
        latency_p50_s=res.latency.p50_s,
        latency_p95_s=res.latency.p95_s,
        latency_p99_s=res.latency.p99_s,
        queue_p95_s=res.queue.p95_s,
        latency_hist=res.latency.histogram_dict(),
        **account,
        **_cost_fields(s, res.makespan_s, res.generated_tokens),
        raw=raw,
    )


def _diurnal_mix(horizon_s: float) -> Callable[[float], tuple[float, float]]:
    """fig16a's regime process: two regimes rotating once over the horizon."""

    def weights(t: float) -> tuple[float, float]:
        w = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / horizon_s))
        return (1.0 - w, w)

    return weights


def _run_fleet(
    s: Scenario,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
) -> SimReport:
    arrivals = None
    if s.flash is not None:
        arrivals = flash_crowd_arrivals(
            s.serving, s.flash.factor, s.flash.start_s, s.flash.duration_s
        )
    regime_weight_at = None
    if s.regime_mix == "diurnal":
        horizon = s.serving.num_requests / s.serving.arrival_rate_rps
        regime_weight_at = _diurnal_mix(horizon)
    fleet = s.fleet
    if s.chaos is not None:
        fleet = dataclasses.replace(fleet, chaos=s.chaos)
    res = _simulate_fleet_cluster_serving(
        s.model,
        s.cluster,
        s.serving,
        fleet,
        mode=s.mode,
        affinity=s.affinity,
        placement_strategy=s.placement_strategy,
        profile_tokens=s.profile_tokens,
        arrivals=arrivals,
        regime_weight_at=regime_weight_at,
        replace_policy=s.replacement.policy if s.replacement is not None else None,
        replace_halflife_tokens=(
            s.replacement.halflife_tokens if s.replacement is not None else None
        ),
        recorder=recorder,
        profiler=profiler,
    )
    busy = sum(r.busy_s for r in res.replicas)
    weighted = sum(r.mean_batch_size * r.busy_s for r in res.replicas)
    return SimReport(
        scenario=s.name,
        kind="fleet",
        completed=res.served,
        generated_tokens=res.generated_tokens,
        makespan_s=res.makespan_s,
        decode_steps=sum(r.decode_steps for r in res.replicas),
        mean_batch_size=weighted / busy if busy > 0 else 0.0,
        throughput_rps=res.throughput_rps,
        throughput_tokens_per_s=(
            res.generated_tokens / res.makespan_s if res.makespan_s > 0 else 0.0
        ),
        latency_mean_s=res.latency.mean_s,
        latency_p50_s=res.latency.p50_s,
        latency_p95_s=res.latency.p95_s,
        latency_p99_s=res.latency.p99_s,
        queue_p95_s=res.queue.p95_s,
        latency_hist=res.latency.histogram_dict(),
        num_replacements=sum(r.replacements for r in res.replicas),
        migration_stall_s=sum(r.migration_stall_s for r in res.replicas),
        shed=len(res.shed),
        shed_fraction=res.shed_fraction,
        slo_attainment=dict(res.slo_attainment),
        peak_replicas=res.peak_replicas,
        scale_ups=sum(1 for e in res.scale_events if e.kind == "up"),
        failures=len(res.failures),
        lost=len(res.lost),
        retries=res.retries,
        availability=res.availability,
        goodput_rps=res.goodput_rps,
        mean_time_to_recover_s=res.mean_time_to_recover_s,
        gpu_hours=res.gpu_hours,
        cost_usd=res.cost_usd,
        usd_per_million_tokens=res.usd_per_million_tokens,
        raw=res,
    )


def make_recorder(scenario: Scenario | str) -> TimelineRecorder:
    """The :class:`TimelineRecorder` ``run`` would auto-attach for a spec.

    One builder keeps every caller (``run`` itself, the CLI's
    ``--trace``/``--metrics`` paths) constructing identical recorders —
    including the SLO slow-completion threshold when ``telemetry.slo``
    is set, which the burn-rate evaluator's latency signal needs.
    """
    s = _resolve(scenario)
    tele = s.telemetry
    if tele is None:
        raise ValueError(f"scenario {s.name!r} has no telemetry section")
    return TimelineRecorder(
        window_s=tele.window_s,
        max_windows=tele.max_windows,
        spans=tele.spans,
        max_span_events=tele.max_span_events,
        slow_latency_s=tele.slo.slow_latency_s if tele.slo is not None else None,
    )


def _flatten_recorders(recorder: MetricsRecorder | None) -> list[MetricsRecorder]:
    """Every leaf recorder behind ``recorder``, tees unwrapped recursively."""
    if recorder is None:
        return []
    if isinstance(recorder, TeeRecorder):
        return [leaf for r in recorder.recorders for leaf in _flatten_recorders(r)]
    return [recorder]


def _slo_fields(
    s: Scenario,
    report: SimReport,
    detector: SignalDetector,
) -> SimReport:
    """Fill ``report.slo`` / ``alerts`` / ``detection`` after an SLO run."""
    slo = s.telemetry.slo if s.telemetry is not None else None
    if slo is None:
        return report
    alerts = (
        evaluate_burn_alerts(report.timeline, slo)
        if report.timeline is not None
        else []
    )
    compliance = compliance_summary(
        slo,
        p95_latency_s=report.latency_p95_s,
        availability=report.availability,
        shed_fraction=report.shed_fraction,
        alerts=alerts,
    )
    if slo.class_overrides:
        classes: dict[str, dict[str, object]] = {}
        for o in slo.class_overrides:
            observed = report.slo_attainment.get(o.name)
            target = o.availability if o.availability is not None else slo.availability
            classes[o.name] = {
                "attainment": observed,
                "target": target,
                "ok": observed is None or observed >= target,
            }
        compliance["classes"] = classes
    detection = detector.summary()
    res = report.raw
    failures = list(getattr(res, "failures", ()) or ())
    chaos = s.chaos if s.chaos is not None else (s.fleet.chaos if s.fleet is not None else None)
    detection["scored"] = score_against_chaos(
        outages=detector.outages,
        brownouts=detector.brownouts,
        failures=failures,
        chaos=chaos,
    )
    return dataclasses.replace(
        report,
        slo=compliance,
        alerts=[a.to_dict() for a in alerts],
        detection=detection,
    )


def run(
    scenario: Scenario | str,
    *,
    keep_raw: bool = True,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
) -> SimReport:
    """Execute one scenario (object or registered preset name).

    Dispatch follows :attr:`Scenario.kind`; the returned
    :class:`SimReport` always has the shared schema filled, with the
    simulator's native result on ``raw`` (dropped when ``keep_raw`` is
    false — the sweep runner does this to keep IPC payloads small).

    Telemetry: a scenario with a ``telemetry`` section automatically gets
    a fresh :class:`~repro.obs.recorder.TimelineRecorder` (and, with
    ``profile=True``, a :class:`~repro.obs.profile.PhaseProfiler`)
    attached; pass ``recorder``/``profiler`` explicitly to override (e.g.
    to keep the recorder for Chrome-trace export).  When the recorder is
    a ``TimelineRecorder``, its timeline document lands on
    ``report.timeline``; profiler phase seconds/fractions land in
    ``report.extra`` under ``profile_*`` keys.  Recorders attach to every
    kind but ``batch`` (the lockstep engine has no serving loop to
    observe), profilers to fleet scenarios only.

    SLO monitoring: when ``telemetry.slo`` is set, a
    :class:`~repro.obs.detect.SignalDetector` rides the same hook stream
    (tee'd next to the timeline recorder), burn-rate alerts are evaluated
    over the recorded timeline, and ``report.slo`` / ``report.alerts`` /
    ``report.detection`` are filled in.  Monitoring is observation-only:
    every shared result field is bit-identical to an unmonitored run.

    Passing an explicit ``recorder`` for an SLO-monitored scenario: build
    it with :func:`make_recorder` (possibly inside a
    :class:`~repro.obs.recorder.TeeRecorder`) so the timeline carries the
    spec's slow-completion threshold — a recorder without it zeroes the
    latency burn signal, and ``run`` warns about the mismatch.  A
    :class:`SignalDetector` already present anywhere in the supplied tee
    is reused for detection instead of tee'ing a second one on top.
    """
    s = _resolve(scenario)
    tele = s.telemetry
    if recorder is None and tele is not None:
        recorder = make_recorder(s)
    if profiler is None and tele is not None and tele.profile:
        profiler = PhaseProfiler()
    if recorder is not None and s.kind == "batch":
        raise ValueError(
            "recorders attach to serving and fleet scenarios (online included), "
            "not kind 'batch'"
        )
    if profiler is not None and s.kind != "fleet":
        raise ValueError(
            f"profilers attach to fleet scenarios (phase timers live in the "
            f"fleet engines), not kind {s.kind!r}"
        )
    detector: SignalDetector | None = None
    engine_recorder: MetricsRecorder | None = recorder
    leaves = _flatten_recorders(recorder)
    if tele is not None and tele.slo is not None and s.kind == "fleet":
        detector = next(
            (r for r in leaves if isinstance(r, SignalDetector)), None
        )
        if detector is None:
            detector = SignalDetector()
            engine_recorder = (
                TeeRecorder((recorder, detector)) if recorder is not None else detector
            )
        if recorder is not None:
            want = tele.slo.slow_latency_s
            if not any(
                isinstance(r, TimelineRecorder) and r.slow_latency_s == want
                for r in leaves
            ):
                warnings.warn(
                    f"scenario {s.name!r} declares an SLO but the supplied recorder "
                    f"has no TimelineRecorder with slow_latency_s={want}; the latency "
                    "burn signal will read all-zero — build recorders for SLO "
                    "scenarios with make_recorder()",
                    stacklevel=2,
                )
    if s.kind == "fleet":
        report = _run_fleet(s, recorder=engine_recorder, profiler=profiler)
    elif s.kind == "batch":
        report = _run_batch(s)
    else:
        report = _run_single_replica(s, recorder=recorder)
    timeline_rec = next(
        (r for r in leaves if isinstance(r, TimelineRecorder)), None
    )
    if timeline_rec is not None:
        report = dataclasses.replace(report, timeline=timeline_rec.timeline())
    if detector is not None:
        report = _slo_fields(s, report, detector)
    if profiler is not None:
        prof = profiler.profile()
        extra = dict(report.extra)
        extra["profile_total_s"] = prof.total_s
        for phase, seconds in prof.phase_s.items():
            extra[f"profile_{phase}_s"] = seconds
        for phase, frac in prof.fractions.items():
            extra[f"profile_{phase}_frac"] = frac
        report = dataclasses.replace(report, extra=extra)
    if not keep_raw:
        report = dataclasses.replace(report, raw=None)
    return report


def _run_for_sweep(scenario: Scenario) -> SimReport:
    try:
        return run(scenario, keep_raw=False)
    except SweepError:
        raise
    except Exception:
        raise SweepError(
            scenario.name, scenario.to_json(), traceback.format_exc()
        ) from None


def run_sweep(
    scenarios: Iterable[Scenario | str],
    processes: int | None = None,
) -> list[SimReport]:
    """Run many scenarios across a process pool; reports in input order.

    ``scenarios`` mixes :class:`Scenario` objects and registered preset
    names freely.  ``processes`` defaults to ``min(len(grid), cpu_count)``;
    pass ``1`` to force serial execution (useful under debuggers).  Raw
    result objects are dropped from sweep reports — re-run the single
    scenario with :func:`run` when you need one in full.

    A worker failure raises :class:`SweepError` naming the scenario and
    carrying its spec JSON, instead of a bare multiprocessing traceback.
    """
    grid: Sequence[Scenario] = [_resolve(s) for s in scenarios]
    if not grid:
        return []
    if processes is None:
        processes = min(len(grid), os.cpu_count() or 1)
    if processes < 1:
        raise ValueError("processes must be >= 1")
    if processes == 1 or len(grid) == 1:
        return [_run_for_sweep(s) for s in grid]
    with multiprocessing.Pool(processes) as pool:
        return pool.map(_run_for_sweep, grid)
