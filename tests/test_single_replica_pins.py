"""Exact pins on the single-replica ``serving`` and ``online`` scenario kinds.

``tests/data/single_replica_pins.json`` holds, for each case below, the
full ``SimReport.to_dict()`` plus the per-request schedule and busy time
from ``report.raw``; online cases also pin the kept-mass timeline, the
replacement events and the final placement.  Floats survive JSON exactly
(``json`` writes them with ``repr``), so every comparison is equality.

The pins are the contract for refactors of the continuous-batching loop:
a change that moves any of these numbers is a behaviour change, not a
refactor.  Record them once with ``python tests/test_single_replica_pins.py``
and never re-record to make a refactor pass.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro
from repro.config import ExecutionMode, GatingKind
from repro.engine.serving import OnlineServingResult

PINS = Path(__file__).parent / "data" / "single_replica_pins.json"


def _with_seed(s: repro.Scenario, seed: int) -> repro.Scenario:
    return dataclasses.replace(s, serving=dataclasses.replace(s.serving, seed=seed))


def _case(name: str, mode: ExecutionMode | None = None, seed: int | None = None,
          top2: bool = False) -> tuple[str, repro.Scenario]:
    s = repro.get_scenario(name)
    key = name
    if mode is not None:
        s = dataclasses.replace(s, mode=mode)
        key += f"/{mode.value}"
    if seed is not None:
        s = _with_seed(s, seed)
        key += f"/seed{seed}"
    if top2:
        s = dataclasses.replace(
            s, model=dataclasses.replace(s.model, gating=GatingKind.TOP2)
        )
        key += "/top2"
    return key, s


def _cases() -> dict[str, repro.Scenario]:
    cases = [
        _case(n)
        for n in (
            "serve-poisson",
            "serve-poisson-smoke",
            "serve-bursty",
            "serve-bursty-smoke",
            "fig15-gradual-smoke",
            "fig15-abrupt-smoke",
            "fig15-diurnal-smoke",
        )
    ]
    for name in ("serve-bursty-smoke", "fig15-abrupt-smoke"):
        cases += [_case(name, mode=m, seed=5) for m in ExecutionMode]
    cases.append(_case("fig15-abrupt-smoke", top2=True))
    return dict(cases)


CASES = _cases()


def observe(report: repro.SimReport) -> dict:
    """Everything the pins compare, as a JSON-normalised document."""
    raw = report.raw
    online = isinstance(raw, OnlineServingResult)
    serving = raw.serving if online else raw
    out: dict = {
        "report": report.to_dict(),
        "requests": [
            [c.request.req_id, c.admitted_s, c.finished_s] for c in serving.completed
        ],
        "busy_s": serving.busy_s,
    }
    if online:
        out["kept_timeline"] = [
            [k.step, k.time_s, k.true_kept, k.estimated_kept] for k in raw.kept_timeline
        ]
        out["events"] = [dataclasses.asdict(e) for e in raw.events]
        out["gpu_of"] = raw.final_placement.gpu_of.tolist()
    # one JSON round trip so tuples/lists and numpy scalars compare alike
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_single_replica_run_matches_pin(key, pins):
    got = observe(repro.run(CASES[key]))
    want = pins[key]
    assert got["report"] == want["report"]
    assert got["busy_s"] == want["busy_s"]
    assert got["requests"] == want["requests"]
    assert got == want


if __name__ == "__main__":
    PINS.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(k)}: {json.dumps(observe(repro.run(s)), separators=(',', ':'))}"
        for k, s in CASES.items()
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(CASES)} pins to {PINS}")
