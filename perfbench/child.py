"""One measured sample: a fresh interpreter sets up and runs one workload.

Usage (``run.py`` drives this; it is not meant to be run by hand)::

    python3 perfbench/child.py WORKLOAD SEED {plain|traced} [--tiny] [--trace-out PATH]

Prints one JSON object on its last stdout line: host set-up and run time,
peak resident memory, the report fields the output check reads, a digest
of the whole report and, for a traced sample, the per-layer metrics.  A
run that raises is reported with ``error`` set instead of crashing, so the
caller can count it as failed.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: SimReport fields the output check and the golden comparison read.
REPORT_FIELDS = (
    "completed", "shed", "lost", "generated_tokens", "decode_steps",
    "makespan_s", "mean_batch_size", "throughput_tokens_per_s",
    "latency_p50_s", "latency_p95_s", "latency_p99_s", "queue_p95_s",
    "num_replacements", "shed_fraction", "availability", "slo_attainment",
    "kept_mass_initial", "kept_mass_final",
)


def _digest(report) -> str:
    """SHA-256 of the report's full JSON form, minus the profiler's extras."""
    doc = report.to_dict()
    doc["extra"] = {k: v for k, v in doc["extra"].items() if not k.startswith("profile_")}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("plain", "traced"))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import repro
    from workloads import build_scenario

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    scenario = build_scenario(args.workload, args.seed, tiny=args.tiny)
    setup_s = perf_counter() - _T0

    out: dict = {"setup_s": setup_s, "offered": scenario.serving.num_requests, "error": None}
    tracer = profiler = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.run_id = args.seed
        tracing.install(tracer)
        run = tracer.wrap("scenarios.run", repro.run)
        if scenario.kind == "fleet":
            profiler = repro.PhaseProfiler()
    else:
        run = repro.run
    try:
        t0 = perf_counter()
        report = run(scenario, profiler=profiler)
        out["run_s"] = perf_counter() - t0
    except Exception:  # the caller counts a raising run as failed
        out["error"] = traceback.format_exc()
        print(out["error"], file=sys.stderr)
        print(json.dumps(out))
        return 0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["report"] = {f: getattr(report, f) for f in REPORT_FIELDS}
    out["report"]["is_finite"] = report.is_finite()
    out["report"]["profile_keys"] = sorted(k for k in report.extra if k.startswith("profile_"))
    out["digest"] = _digest(report)
    if tracer is not None:
        phases = profiler.profile().phase_s if profiler is not None else {}
        out["layers"] = tracing.layer_metrics(tracer, report, dict(phases))
        if args.trace_out is not None:
            doc = tracer.chrome_trace()
            repro.validate_chrome_trace(doc)
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(doc))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
