"""Benchmark of the ``repro`` simulator: host cost and simulated outcome.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-steady --seed 0 --seconds 25 --trace 0

Each sample is a fresh interpreter (``child.py``) that imports ``repro``,
builds the workload's scenario from the seed and runs it once through
``repro.run``: one caller, one run at a time.  Samples repeat until the
next one would overrun ``--seconds`` (at least :data:`MIN_SAMPLES`).

``--trace 0`` reports the end-to-end metrics: medians over samples of host
set-up time and peak memory, and the simulated throughput, latency and
served share of the deployment (fixed by the seed).  ``--trace 1``
alternates untraced and traced samples and reports the untraced run time,
the per-layer split of the traced runs (see ``tracer.py``) and the tracing
overhead, and writes the spans as a Chrome trace under ``perfbench/out``.
Host run time is a per-layer metric, not an end-to-end one, because on
the shared 2-vCPU machine the benchmark was built on its run-to-run spread
(0.22 to 0.48 of the median over ten seeds) exceeds the largest bound an
end-to-end metric may have.

Every sample's output is checked: request conservation, fractions in
[0, 1], ordered percentiles, identical reports across samples (traced or
not), zero shed on ``fleet-steady``, and the values recorded in
``golden.json`` for seeds that have them.  The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` count ``repro.run``
calls, and ``metrics`` maps each metric to its value and unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
GOLDEN = HERE / "golden.json"

#: Seed used when none is given: the source presets' own seed.
DEFAULT_SEED = 0
#: A seed kept out of every choice made while sizing the workloads; the
#: steadiness proof runs it next to the default.
HELD_OUT_SEED = 97

#: Scenario seeds per run seed.  Sample ``i`` of a run with seed ``n`` runs
#: scenario seed ``n * SUBSEEDS + i % SUBSEEDS``, so one run's medians
#: cover several arrival schedules and vary less from seed to seed.
SUBSEEDS = 4
#: Fewest samples a measured run takes (one per scenario seed), and fewest
#: untraced/traced pairs a traced run takes.
MIN_SAMPLES = SUBSEEDS
MIN_TRACED_PAIRS = 2
#: Samples still running this long after a run started are killed and
#: counted as failed, so a run ends within three minutes.
DEADLINE_S = 170.0
#: Workloads that must shed nothing (the fleet sized to absorb its load).
ZERO_SHED = ("fleet-steady",)
#: Completed requests a full-size workload must reach, so that at least
#: 24 samples lie beyond its p95.
MIN_COMPLETED = 480
#: Relative tolerance of the golden comparison for float fields.
GOLDEN_RTOL = 1e-9


def fingerprint() -> dict[str, Any]:
    """The machine and library versions a result was measured on."""

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_child(
    workload: str,
    seed: int,
    mode: str,
    tiny: bool,
    trace_out: Path | None = None,
    timeout_s: float = DEADLINE_S,
) -> dict[str, Any]:
    """Run one sample in a fresh interpreter and return its JSON record."""
    tag = {"mode": mode, "subseed": seed}
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if tiny:
        cmd.append("--tiny")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # one BLAS thread: the samples run one at a time and their matrices are
    # small, so a second thread only adds contention noise
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {**tag, "error": f"sample killed after {timeout_s:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**tag, "error": f"sample exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return {**tag, **json.loads(lines[-1])}


# -- output checks -------------------------------------------------------------


def check_report(workload: str, rec: dict[str, Any], tiny: bool) -> list[str]:
    """Invariant problems in one sample's report (empty when it passes)."""
    r = rec["report"]
    bad = []
    if not r["is_finite"]:
        bad.append("report has a non-finite field")
    if r["completed"] + r["shed"] + r["lost"] != rec["offered"]:
        bad.append(
            f"conservation: completed {r['completed']} + shed {r['shed']} + lost "
            f"{r['lost']} != offered {rec['offered']}"
        )
    fracs = {"shed_fraction": r["shed_fraction"], "availability": r["availability"]}
    fracs.update({f"slo_attainment[{k}]": v for k, v in r["slo_attainment"].items()})
    for key in ("kept_mass_initial", "kept_mass_final"):
        if r[key] is not None:
            fracs[key] = r[key]
    for key, v in fracs.items():
        if not 0.0 <= v <= 1.0:
            bad.append(f"{key} = {v} is outside [0, 1]")
    if not r["latency_p50_s"] <= r["latency_p95_s"] <= r["latency_p99_s"]:
        bad.append("latency percentiles are not ordered p50 <= p95 <= p99")
    if workload in ZERO_SHED and r["shed"] + r["lost"] > 0:
        bad.append(f"{workload} must shed nothing, shed {r['shed']} and lost {r['lost']}")
    if not tiny and r["completed"] < MIN_COMPLETED:
        bad.append(f"only {r['completed']} requests completed, need {MIN_COMPLETED}")
    return bad


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=GOLDEN_RTOL, abs_tol=0.0
        )
    return a == b


def check_golden(workload: str, seed: int, report: dict[str, Any]) -> list[str]:
    """Differences from the values recorded for this workload and seed."""
    recorded = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return []
    return [
        f"{key} = {report.get(key)!r}, recorded {want!r}"
        for key, want in recorded.items()
        if not _close(report.get(key), want)
    ]


# -- measuring -----------------------------------------------------------------


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def subseed(seed: int, i: int) -> int:
    """Scenario seed of sample ``i`` of a run: one of :data:`SUBSEEDS` per seed."""
    return seed * SUBSEEDS + i % SUBSEEDS


def end_to_end(plain: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per-metric sample lists of the end-to-end metrics.

    Host metrics take every sample.  Simulated metrics are fixed by the
    scenario seed (the check enforces it), so each takes one value per
    sub-seed; the served share pools requests over the sub-seeds.
    """
    first = {s["subseed"]: s for s in reversed(plain)}.values()  # earliest per sub-seed
    reports = [s["report"] for s in first]
    return {
        "setup_s": [s["setup_s"] for s in plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        "sim_tokens_per_s": [r["throughput_tokens_per_s"] for r in reports],
        "sim_latency_p50_ms": [r["latency_p50_s"] * 1e3 for r in reports],
        "sim_latency_p95_ms": [r["latency_p95_s"] * 1e3 for r in reports],
        "sim_served_frac": [
            sum(r["completed"] for r in reports) / sum(s["offered"] for s in first)
        ],
    }


def per_layer(samples: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per-metric sample lists of the traced split, untraced run time and overhead.

    ``samples`` alternates untraced and traced runs of the same scenario
    seed; the overhead compares the two runs of each pair, which ran back
    to back on the same machine state.
    """
    plain, traced = samples[0::2], samples[1::2]
    out = {"scenarios.run.s": [p["run_s"] for p in plain]}
    out.update({k: [s["layers"][k] for s in traced] for k in traced[0]["layers"]})
    out["tracing.overhead_frac"] = [
        t["run_s"] / p["run_s"] - 1.0 for p, t in zip(plain, traced, strict=True)
    ]
    return out


def check_samples(
    workload: str, seed: int, samples: list[dict[str, Any]], tiny: bool
) -> tuple[int, list[str]]:
    """(failed sample count, problems) over every sample of one run."""
    problems: list[str] = []
    failed = 0
    for i, rec in enumerate(samples):
        if rec.get("error"):
            bad = [rec["error"]]
        else:
            bad = check_report(workload, rec, tiny)
            if rec["mode"] == "plain" and rec["report"]["profile_keys"]:
                bad.append("an untraced report carries profiler fields")
            if not tiny:
                golden = check_golden(workload, rec["subseed"], rec["report"])
                bad += [f"golden: {p}" for p in golden]
        if bad:
            failed += 1
            problems += [f"sample {i} (scenario seed {rec['subseed']}): {b}" for b in bad]
    digests: dict[int, set[str]] = {}
    for rec in samples:
        if not rec.get("error"):
            digests.setdefault(rec["subseed"], set()).add(rec["digest"])
    problems += [
        f"reports of scenario seed {k} differ between samples (traced or not)"
        for k, d in digests.items() if len(d) > 1
    ]
    return failed, problems


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    min_samples: int | None = None,
) -> dict[str, Any]:
    """Sample one workload and return the full result record.

    ``min_samples`` counts samples, or untraced/traced pairs when tracing.
    """
    if min_samples is None:
        min_samples = MIN_TRACED_PAIRS if trace else MIN_SAMPLES
    # one trace file per workload, overwritten by each traced sample, so a
    # checkout holds at most one (several MB) per workload
    trace_out = OUT_DIR / f"{workload}{'-tiny' if tiny else ''}.trace.json"
    samples: list[dict[str, Any]] = []
    walls: list[float] = []
    start = time.perf_counter()

    def left() -> float:
        return max(1.0, start + DEADLINE_S - time.perf_counter())

    while len(walls) < min_samples or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        t0 = time.perf_counter()
        sub = subseed(seed, len(walls))
        samples.append(run_child(workload, sub, "plain", tiny, timeout_s=left()))
        if trace:
            samples.append(run_child(workload, sub, "traced", tiny, trace_out, left()))
        walls.append(time.perf_counter() - t0)

    failed, problems = check_samples(workload, seed, samples, tiny)
    metrics: dict[str, list[float]] = {}
    if failed == 0:
        metrics = per_layer(samples) if trace else end_to_end(samples)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "tiny": tiny,
        "fingerprint": fingerprint(),
        "elapsed_s": time.perf_counter() - start,
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "metrics": {
            k: {"median": statistics.median(v), "iqr": _iqr(v), "n": len(v), "samples": v}
            for k, v in metrics.items()
        },
        "samples": samples,
        "trace_file": str(trace_out.relative_to(ROOT)) if trace and failed == 0 else None,
    }


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no repro source tree under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="seconds-long instance (tests)")
    args = ap.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # byte-compile once so no sample pays for it inside its set-up time
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    if res["metrics"] and set(res["metrics"]) != set(units):
        res["problems"].append(
            f"metrics {sorted(set(res['metrics']) ^ set(units))} disagree with BENCHMARK.json"
        )
        res["correct"] = False

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(res, indent=1))

    fp = res["fingerprint"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: python {fp['python']}, "
        f"numpy {fp['numpy']}, scipy {fp['scipy']}, nproc {fp['nproc']}, {fp['platform']}"
    )
    for key, m in res["metrics"].items():
        print(
            f"{key:36s} {m['median']:>16.6g} {units.get(key, '?'):10s} "
            f"n={m['n']:<3d} iqr={m['iqr']:.4g}"
        )
    for p in res["problems"]:
        print(f"PROBLEM: {p}")
    if res["trace_file"]:
        print(f"# chrome trace: {res['trace_file']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            k: {"value": m["median"], "unit": units[k]}
            for k, m in res["metrics"].items() if k in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
