"""Tests of the benchmark itself, on tiny instances of its four workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import repro
import run
import tracer
from workloads import build_scenario

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_benchmark_json_names_what_the_code_measures():
    assert LAYER_UNITS == tracer.LAYER_METRICS
    assert "setup_s" in E2E_UNITS
    kinds = {w: build_scenario(w, 0, tiny=True).kind for w in WORKLOADS}
    assert kinds == {
        "fleet-steady": "fleet",
        "fleet-surge": "fleet",
        "online-drift": "online",
        "serving-curve": "serving",
    }


def test_workloads_follow_the_seed():
    for w in WORKLOADS:
        assert build_scenario(w, 5) == build_scenario(w, 5)
        assert build_scenario(w, 5).serving.seed == 5
        assert build_scenario(w, 5) != build_scenario(w, 6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_publishes_every_metric_and_passes_its_checks(workload):
    plain = run.measure(workload, 0, seconds=0, trace=False, tiny=True, min_samples=1)
    assert plain["correct"], plain["problems"]
    assert set(plain["metrics"]) == set(E2E_UNITS)
    assert all(m["median"] > 0 for m in plain["metrics"].values())

    traced = run.measure(workload, 0, seconds=0, trace=True, tiny=True, min_samples=1)
    # correct includes: the traced report equals the untraced one
    assert traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == set(LAYER_UNITS)
    doc = json.loads((run.ROOT / traced["trace_file"]).read_text())
    assert repro.validate_chrome_trace(doc) > 0


def test_cli_prints_the_result_contract_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving-curve", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == run.MIN_SAMPLES
    assert {k: m["unit"] for k, m in out["metrics"].items()} == E2E_UNITS
    # every metric line names its unit and sample count
    for name, unit in E2E_UNITS.items():
        assert any(line.startswith(name) and unit in line and "n=" in line
                   for line in proc.stdout.splitlines())
    assert "numpy" in proc.stdout.splitlines()[0]  # machine fingerprint


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-steady", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _good_record() -> dict:
    report = {
        "completed": 90, "shed": 8, "lost": 2, "generated_tokens": 900, "decode_steps": 50,
        "makespan_s": 0.5, "mean_batch_size": 2.0, "throughput_tokens_per_s": 1800.0,
        "latency_p50_s": 0.001, "latency_p95_s": 0.002, "latency_p99_s": 0.003,
        "queue_p95_s": 0.0005, "num_replacements": 0, "shed_fraction": 0.08,
        "availability": 1.0, "slo_attainment": {"interactive": 0.9},
        "kept_mass_initial": None, "kept_mass_final": None, "is_finite": True,
        "profile_keys": [],
    }
    return {"offered": 100, "report": report}


@pytest.mark.parametrize(
    ("field", "value", "problem"),
    [
        ("completed", 91, "conservation"),
        ("shed_fraction", 1.5, "outside [0, 1]"),
        ("slo_attainment", {"batch": -0.1}, "outside [0, 1]"),
        ("latency_p95_s", 0.0005, "not ordered"),
        ("is_finite", False, "non-finite"),
    ],
)
def test_output_check_catches_a_broken_report(field, value, problem):
    assert run.check_report("fleet-surge", _good_record(), tiny=True) == []
    rec = _good_record()
    rec["report"][field] = value
    assert any(problem in p for p in run.check_report("fleet-surge", rec, tiny=True))


def test_output_check_holds_fleet_steady_to_zero_shed():
    problems = run.check_report("fleet-steady", _good_record(), tiny=True)
    assert any("must shed nothing" in p for p in problems)


def test_golden_values_catch_a_changed_result():
    golden = json.loads(run.GOLDEN.read_text())
    workload, by_seed = next(iter(golden.items()))
    seed, recorded = next(iter(by_seed.items()))
    assert run.check_golden(workload, int(seed), recorded) == []
    moved = copy.deepcopy(recorded)
    moved["latency_p95_s"] *= 1.0 + 1e-6
    assert run.check_golden(workload, int(seed), moved)


def test_samples_of_one_seed_must_agree():
    recs = []
    for digest in ("a", "b"):
        rec = _good_record()
        rec.update(mode="plain", subseed=0, digest=digest)
        recs.append(rec)
    failed, problems = run.check_samples("fleet-surge", 0, recs, tiny=True)
    assert failed == 0
    assert any("differ between samples" in p for p in problems)
