"""Fig 15 (extension) — online drift-aware re-placement during serving.

The paper solves expert placement once from a static profiling trace; its
own Fig 12 (affinity evolving across training) and Tab 3 (affinity shifting
across corpora) show the assumption decaying.  This benchmark quantifies
what that costs a live serving system and what the online re-placement loop
(streaming affinity estimator -> kept-mass degradation trigger ->
warm-started local-search re-solve -> explicit migration charge) buys back.

For each drift scenario (gradual Markov interpolation, abrupt regime
switch, diurnal mixture) the same bursty arrival sequence is served twice:
once with the offline placement frozen (static arm) and once with a
:class:`~repro.core.online.ReplacementPolicy` active (online arm).  Both
arms pay identical scheduling; the online arm additionally pays every
migration stall on its latency timeline.

Shape checks: under the abrupt switch — the adversarial case, where the
offline placement's entire affinity structure is invalidated mid-run — the
online arm must recover at least 50% of the kept-transition-mass the static
arm loses, while completing every request with migration cost included in
the reported p95.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.scenarios import get_scenario
from repro.scenarios import run as run_scenario

from conftest import publish

DRIFTS = ("gradual", "abrupt", "diurnal")


def _run_pair(drift: str, smoke: bool = False):
    """Serve one drift scenario with the placement frozen vs online.

    Both arms come from the registry: the online arm is the
    ``fig15-<drift>`` preset itself; the static arm is the same spec with
    the replacement section stripped (placement frozen, identical drift
    and scheduling).
    """
    online_spec = get_scenario(f"fig15-{drift}" + ("-smoke" if smoke else ""))
    static_spec = dataclasses.replace(
        online_spec, name=f"{online_spec.name}-static", replacement=None
    )
    static = run_scenario(static_spec).raw
    online = run_scenario(online_spec).raw
    return online_spec.serving, static, online


def _kept_phases(result, switch_t: float):
    """Mean true kept mass before the drift midpoint and at the run's tail."""
    pre = [s.true_kept for s in result.kept_timeline if s.time_s < switch_t]
    tail = [s.true_kept for s in result.kept_timeline[-10:]]
    before = float(np.mean(pre[3:] if len(pre) > 3 else pre)) if pre else float("nan")
    return before, float(np.mean(tail))


def run(smoke: bool = False) -> tuple[str, dict]:
    rows = []
    checks: dict = {}
    for drift in DRIFTS:
        serving, static, online = _run_pair(drift, smoke)
        switch_t = 0.5 * serving.num_requests / serving.arrival_rate_rps
        kept_before, static_after = _kept_phases(static, switch_t)
        _, online_after = _kept_phases(online, switch_t)
        lost = kept_before - static_after
        recovery = (online_after - static_after) / lost if lost > 1e-9 else float("nan")
        rows.append(
            [
                drift,
                f"{static.serving.latency.p95_s * 1e3:.2f}",
                f"{online.serving.latency.p95_s * 1e3:.2f}",
                f"{kept_before:.1%}",
                f"{static_after:.1%}",
                f"{online_after:.1%}",
                f"{recovery:.0%}" if np.isfinite(recovery) else "-",
                online.num_replacements,
                sum(e.moved_experts for e in online.events),
                f"{online.migration_stall_s * 1e3:.2f}",
            ]
        )
        checks[drift] = {
            "serving": serving,
            "static": static,
            "online": online,
            "kept_before": kept_before,
            "static_after": static_after,
            "online_after": online_after,
            "recovery": recovery,
        }

    from repro.analysis.report import format_table

    table = format_table(
        [
            "drift",
            "static p95 ms",
            "online p95 ms",
            "kept before",
            "static after",
            "online after",
            "recovered",
            "migrations",
            "moved experts",
            "stall ms",
        ],
        rows,
        title=(
            "Fig 15 — static vs online re-placement under routing drift "
            "(migration stalls charged to the online latency timeline)"
        ),
    )
    return table, checks


def _assert_claims(checks: dict) -> None:
    for drift, c in checks.items():
        static, online, serving = c["static"], c["online"], c["serving"]
        # both arms serve every request; the static arm never migrates
        assert static.serving.num_completed == serving.num_requests, drift
        assert online.serving.num_completed == serving.num_requests, drift
        assert static.num_replacements == 0 and static.migration_stall_s == 0.0
        # every migration is accounted: events carry positive stalls that sum
        # to the timeline charge the latency percentiles already include
        assert online.migration_stall_s == sum(e.stall_s for e in online.events)
        for e in online.events:
            assert e.stall_s > 0 and e.moved_experts > 0

    abrupt = checks["abrupt"]
    # the headline claim: online re-placement claws back >= 50% of the
    # kept-transition mass the abrupt switch destroyed
    assert abrupt["online"].num_replacements >= 1
    assert abrupt["online"].migration_stall_s > 0
    assert abrupt["kept_before"] - abrupt["static_after"] > 0.1  # drift really hurt
    assert abrupt["recovery"] >= 0.5, f"recovered only {abrupt['recovery']:.0%}"


def test_fig15_online_replacement(benchmark, results_dir):
    benchmark.pedantic(lambda: _run_pair("abrupt", smoke=True), rounds=1, iterations=1)

    table, checks = run(smoke=False)
    publish(results_dir, "fig15_online_replacement", table)
    _assert_claims(checks)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI: same pipeline, seconds not minutes",
    )
    args = parser.parse_args()
    table, checks = run(smoke=args.smoke)
    print(table)
    _assert_claims(checks)
    print("fig15 claims hold")
