"""The benchmark's four workloads, each built from a seed.

Every workload starts from a registered preset and changes it with
``dataclasses.replace`` only, so the program under test receives nothing
but the generated :class:`repro.Scenario`.  The seed lands in
``serving.seed``, the one seed every serving, online and fleet scenario
draws its arrivals, routing paths and labels from.

``tiny=True`` gives a seconds-long instance of the same pipeline for the
benchmark's own tests.  Why each workload is in the benchmark is recorded
next to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses

import repro

# Request counts.  fleet-steady and fleet-surge are cut down from their
# source presets (1,500 and 300k requests) so that one fresh-process run
# takes a few seconds and a measured run holds several of them; 500 keeps
# fleet-steady above the 480 completions its p95 needs.
_STEADY_REQUESTS = 500
_SURGE_REQUESTS = 30_000
_CURVE_REQUESTS = 50_000

_TINY_REQUESTS = {
    "fleet-steady": 40,
    "fleet-surge": 2_000,
    "serving-curve": 2_000,
}


def _with_requests(s: repro.Scenario, n: int) -> repro.Scenario:
    return dataclasses.replace(
        s, serving=dataclasses.replace(s.serving, num_requests=n)
    )


def _fleet_surge(n: int) -> repro.Scenario:
    # the surge row of benchmarks/bench_fleet_scale.py on the
    # fleet-scale-day pipeline: 128 replicas, jsq, diurnal mix, tick engine
    base = repro.get_scenario("fleet-scale-day")
    return dataclasses.replace(
        base,
        name="fleet-surge",
        description="fleet-scale-day pipeline at the surge row's settings",
        serving=dataclasses.replace(
            base.serving, arrival_rate_rps=2e8, num_requests=n
        ),
        fleet=dataclasses.replace(
            base.fleet,
            slo_ms=5.0,
            batch_slo_ms=50.0,
            max_queue_per_replica=8,
            autoscale=False,
        ),
    )


def build_scenario(name: str, seed: int, tiny: bool = False) -> repro.Scenario:
    """The named workload's scenario, with every random draw keyed on ``seed``."""
    if name == "fleet-steady":
        n = _TINY_REQUESTS[name] if tiny else _STEADY_REQUESTS
        s = _with_requests(repro.get_scenario("fleet-steady-day"), n)
    elif name == "fleet-surge":
        s = _fleet_surge(_TINY_REQUESTS[name] if tiny else _SURGE_REQUESTS)
    elif name == "online-drift":
        s = repro.get_scenario("fig15-abrupt-smoke" if tiny else "fig15-abrupt")
    elif name == "serving-curve":
        n = _TINY_REQUESTS[name] if tiny else _CURVE_REQUESTS
        s = _with_requests(repro.get_scenario("serve-poisson"), n)
    else:
        raise ValueError(f"unknown workload {name!r}")
    s = dataclasses.replace(
        s,
        name=f"{name}-seed{seed}" + ("-tiny" if tiny else ""),
        serving=dataclasses.replace(s.serving, seed=seed),
    )
    # a spec that does not survive its own round trip is not a valid input
    if repro.Scenario.from_dict(s.to_dict()) != s:
        raise ValueError(f"workload {name!r} does not round-trip as a Scenario")
    return s
