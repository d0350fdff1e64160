"""Spans around the calls into each ``repro`` layer, recorded from outside.

:func:`install` wraps public functions and methods at each layer boundary
(collectives, step pricing, path sampling, placement solves, the online
re-placer, fleet labelling, admission and autoscaling, recorder hooks and
SLO evaluation).  A wrapper times the call, remembers which span was open
when it started, and hands the call's arguments and result to a counter,
so ratios such as the inter-node byte share are measured where the work
happens.  Nothing a wrapper does feeds back into the simulation; the
benchmark checks that a traced run's report equals an untraced one.

Spans live in memory as ``[name, start_ns, end_ns, parent, run_id]``
rows and are written out once, as a Chrome trace, when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

#: Every per-layer metric the traced run publishes, with its unit.
#: ``scenarios.run.s`` (untraced run time) and ``tracing.overhead_frac``
#: come from the untraced half of each sample pair, in ``run.py``.
LAYER_METRICS: dict[str, str] = {
    "scenarios.run.s": "s",
    "scenarios.run.self_s": "s",
    "engine.step_time.calls": "count",
    "engine.step_time.self_s": "s",
    "engine.step_time.p50_us": "us",
    "engine.step_time.p99_us": "us",
    "engine.step_time.mean_batch": "requests",
    "engine.admission_time.calls": "count",
    "engine.admission_time.self_s": "s",
    "engine.arrivals.s": "s",
    "engine.curve.s": "s",
    "cluster.alltoall.calls": "count",
    "cluster.alltoall.s": "s",
    "cluster.allgather.calls": "count",
    "cluster.allgather.s": "s",
    "cluster.alltoall.inter_node_frac": "ratio",
    "cluster.comm_sim_frac": "ratio",
    "trace.sample.calls": "count",
    "trace.sample.s": "s",
    "trace.sample.tokens": "tokens",
    "core.placement.solve.calls": "count",
    "core.placement.solve.s": "s",
    "core.online.observe.s": "s",
    "core.online.check.calls": "count",
    "core.online.check.s": "s",
    "core.online.replacements": "count",
    "core.online.replace_ratio": "ratio",
    "fleet.requests.label.s": "s",
    "fleet.requests.label.us_per_req": "us/request",
    "fleet.admission.assess.calls": "count",
    "fleet.admission.assess.s": "s",
    "fleet.admission.assess.admit_frac": "ratio",
    "fleet.autoscaler.decide.calls": "count",
    "fleet.autoscaler.decide.s": "s",
    "fleet.phase.routing_s": "s",
    "fleet.phase.admission_s": "s",
    "fleet.phase.pricing_s": "s",
    "fleet.phase.bookkeeping_s": "s",
    "obs.hooks.calls": "count",
    "obs.hooks.s": "s",
    "obs.slo.evaluate.s": "s",
    "sim.decode_steps": "count",
    "sim.mean_batch": "requests",
    "sim.queue_p95_ms": "ms",
    "tracing.overhead_frac": "ratio",
}

_PRICING_SPANS = ("engine.step_time", "engine.admission_time")


class Tracer:
    """In-memory span store plus the counters the wrappers feed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.run_id = 0
        self._open: list[int] = []
        self.counts: dict[str, float] = {
            "step_batch": 0.0,  # requests summed over priced decode steps
            "step_sim_s": 0.0,  # simulated seconds returned by step pricing
            "comm_sim_s": 0.0,  # simulated collective seconds inside pricing
            "a2a_inter_bytes": 0.0,
            "a2a_cross_bytes": 0.0,
            "sample_tokens": 0.0,
            "replacements": 0.0,
            "labelled": 0.0,
            "assessed": 0.0,
            "admitted": 0.0,
        }

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[["Tracer", tuple, Any, str | None], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``count`` sees (args, result, parent)."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            idx = len(spans)
            row = [name, 0, 0, parent, self.run_id]
            spans.append(row)
            stack.append(idx)
            row[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def span_stats(self) -> dict[str, dict[str, Any]]:
        """Per span name: calls, total seconds, self seconds, durations."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, Any]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durs_ns": []})
            st["calls"] += 1
            st["s"] += (end - start) * 1e-9
            st["self_s"] += (end - start - child_ns[i]) * 1e-9
            st["durs_ns"].append(end - start)
        return out

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as a Chrome trace document (complete ``X`` events, µs)."""
        origin = min((row[1] for row in self.spans), default=0)
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "ts": 0,
             "args": {"name": "repro (host time, traced from perfbench)"}},
        ]
        for name, start, end, parent, run_id in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                    "run_id": run_id,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- counters fed by the wrappers ----------------------------------------------


def _count_step(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["step_batch"] += len(args[1])  # (self, paths, ...): one row per request
    t.counts["step_sim_s"] += result


def _count_admission(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["step_sim_s"] += result


def _collective_results(result: Any) -> list[Any]:
    return result if isinstance(result, list) else [result]


def _count_alltoall(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    results = _collective_results(result)
    t.counts["a2a_inter_bytes"] += sum(r.inter_node_bytes for r in results)
    t.counts["a2a_cross_bytes"] += sum(r.cross_gpu_bytes for r in results)
    if parent in _PRICING_SPANS:
        t.counts["comm_sim_s"] += sum(r.time_s for r in results)


def _count_allgather(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    if parent in _PRICING_SPANS:
        t.counts["comm_sim_s"] += sum(r.time_s for r in _collective_results(result))


def _count_sample(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["sample_tokens"] += result.paths.shape[0]


def _count_check(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["replacements"] += result is not None


def _count_label(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["labelled"] += len(result)


def _count_assess(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["assessed"] += 1
    t.counts["admitted"] += result is None


def _count_assess_codes(t: Tracer, args: tuple, result: Any, parent: str | None) -> None:
    t.counts["assessed"] += len(result)
    t.counts["admitted"] += int(np.count_nonzero(result == 0))


# -- installing the wrappers ---------------------------------------------------


def _patch_function(tracer: Tracer, original: Callable[..., Any], name: str, count: Any = None) -> None:
    """Rebind ``original`` to its traced wrapper in every loaded repro module.

    Modules import layer functions by name (``from x import f``), so the
    wrapper must replace each binding, not only the defining module's.
    """
    traced = tracer.wrap(name, original, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, traced)


def _patch_method(tracer: Tracer, cls: type, method: str, name: str, count: Any = None) -> None:
    setattr(cls, method, tracer.wrap(name, getattr(cls, method), count))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported ``repro`` with ``tracer``."""
    import repro
    from repro.cluster import collectives
    from repro.core.online import OnlineReplacer
    from repro.core.placement import registry
    from repro.engine import serving
    from repro.fleet import requests
    from repro.fleet.admission import AdmissionController
    from repro.fleet.autoscaler import ReactiveAutoscaler
    from repro.obs import slo

    _patch_function(tracer, collectives.alltoall_matrix, "cluster.alltoall", _count_alltoall)
    _patch_function(tracer, collectives.allgather_cost, "cluster.allgather", _count_allgather)
    _patch_function(tracer, serving.make_arrivals, "engine.arrivals")
    _patch_function(tracer, serving.engine_step_time, "engine.curve")
    _patch_function(tracer, registry.solve_placement, "core.placement.solve")
    _patch_function(tracer, requests.make_fleet_requests, "fleet.requests.label", _count_label)
    _patch_function(tracer, slo.evaluate_burn_alerts, "obs.slo.evaluate")

    _patch_method(tracer, serving.PlacementStepTimer, "step_time", "engine.step_time", _count_step)
    _patch_method(
        tracer, serving.PlacementStepTimer, "admission_time", "engine.admission_time",
        _count_admission,
    )
    _patch_method(tracer, repro.MarkovRoutingModel, "sample", "trace.sample", _count_sample)
    _patch_method(tracer, OnlineReplacer, "observe", "core.online.observe")
    _patch_method(tracer, OnlineReplacer, "maybe_replace", "core.online.check", _count_check)
    _patch_method(tracer, AdmissionController, "assess", "fleet.admission.assess", _count_assess)
    _patch_method(
        tracer, AdmissionController, "assess_codes", "fleet.admission.assess",
        _count_assess_codes,
    )
    _patch_method(tracer, ReactiveAutoscaler, "decide", "fleet.autoscaler.decide")
    hooks = [h for h in vars(repro.NullRecorder) if h.startswith("on_")]
    for cls in (repro.TimelineRecorder, repro.SignalDetector):
        for hook in hooks:
            _patch_method(tracer, cls, hook, "obs.hooks")


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, report: Any, phase_s: dict[str, float]) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry the traced sample itself measures.

    ``phase_s`` is the fleet :class:`repro.PhaseProfiler` split (empty for
    kinds the profiler does not attach to, whose phases read zero).
    """
    st = tracer.span_stats()
    c = tracer.counts

    def get(span: str, key: str) -> float:
        return float(st[span][key]) if span in st else 0.0

    step_us = sorted(d / 1e3 for d in st.get("engine.step_time", {}).get("durs_ns", []))
    checks = get("core.online.check", "calls")
    out = {
        "scenarios.run.self_s": get("scenarios.run", "self_s"),
        "engine.step_time.calls": get("engine.step_time", "calls"),
        "engine.step_time.self_s": get("engine.step_time", "self_s"),
        "engine.step_time.p50_us": statistics.median(step_us) if step_us else 0.0,
        "engine.step_time.p99_us": (
            statistics.quantiles(step_us, n=100)[98] if len(step_us) > 1 else 0.0
        ),
        "engine.step_time.mean_batch": _ratio(c["step_batch"], get("engine.step_time", "calls")),
        "engine.admission_time.calls": get("engine.admission_time", "calls"),
        "engine.admission_time.self_s": get("engine.admission_time", "self_s"),
        "engine.arrivals.s": get("engine.arrivals", "s"),
        "engine.curve.s": get("engine.curve", "s"),
        "cluster.alltoall.calls": get("cluster.alltoall", "calls"),
        "cluster.alltoall.s": get("cluster.alltoall", "s"),
        "cluster.allgather.calls": get("cluster.allgather", "calls"),
        "cluster.allgather.s": get("cluster.allgather", "s"),
        "cluster.alltoall.inter_node_frac": _ratio(c["a2a_inter_bytes"], c["a2a_cross_bytes"]),
        "cluster.comm_sim_frac": _ratio(c["comm_sim_s"], c["step_sim_s"]),
        "trace.sample.calls": get("trace.sample", "calls"),
        "trace.sample.s": get("trace.sample", "s"),
        "trace.sample.tokens": c["sample_tokens"],
        "core.placement.solve.calls": get("core.placement.solve", "calls"),
        "core.placement.solve.s": get("core.placement.solve", "s"),
        "core.online.observe.s": get("core.online.observe", "s"),
        "core.online.check.calls": checks,
        "core.online.check.s": get("core.online.check", "s"),
        "core.online.replacements": c["replacements"],
        "core.online.replace_ratio": _ratio(c["replacements"], checks),
        "fleet.requests.label.s": get("fleet.requests.label", "s"),
        "fleet.requests.label.us_per_req": _ratio(
            get("fleet.requests.label", "s") * 1e6, c["labelled"]
        ),
        "fleet.admission.assess.calls": get("fleet.admission.assess", "calls"),
        "fleet.admission.assess.s": get("fleet.admission.assess", "s"),
        "fleet.admission.assess.admit_frac": _ratio(c["admitted"], c["assessed"]),
        "fleet.autoscaler.decide.calls": get("fleet.autoscaler.decide", "calls"),
        "fleet.autoscaler.decide.s": get("fleet.autoscaler.decide", "s"),
        "obs.hooks.calls": get("obs.hooks", "calls"),
        "obs.hooks.s": get("obs.hooks", "s"),
        "obs.slo.evaluate.s": get("obs.slo.evaluate", "s"),
        "sim.decode_steps": float(report.decode_steps),
        "sim.mean_batch": float(report.mean_batch_size),
        "sim.queue_p95_ms": report.queue_p95_s * 1e3,
    }
    for phase in ("routing", "admission", "pricing", "bookkeeping"):
        out[f"fleet.phase.{phase}_s"] = float(phase_s.get(phase, 0.0))
    return out
