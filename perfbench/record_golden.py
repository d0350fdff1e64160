"""Record the simulated results the benchmark's output check compares against.

Usage, from the root of a checkout::

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs each named workload (default: all) once per scenario seed of run
seeds 0-9 and the held-out seed, and writes their report fields into
``perfbench/golden.json``, keeping the other workloads' entries.
Simulated results are deterministic for a seed, so a change that only
speeds up the simulator leaves this file valid; re-record it only for a
change that is meant to move simulated results, and say so.
"""

from __future__ import annotations

import json
import sys

import run

RUN_SEEDS = (*range(10), run.HELD_OUT_SEED)


def main(argv: list[str]) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in spec["workloads"]]
    golden: dict[str, dict[str, dict]] = json.loads(run.GOLDEN.read_text())
    for w in workloads:
        golden[w] = {}
        for seed in RUN_SEEDS:
            for i in range(run.SUBSEEDS):
                sub = run.subseed(seed, i)
                rec = run.run_child(w, sub, "plain", tiny=False)
                if rec.get("error"):
                    print(rec["error"], file=sys.stderr)
                    return 1
                report = {k: v for k, v in rec["report"].items()
                          if k not in ("is_finite", "profile_keys")}
                golden[w][str(sub)] = report
                print(w, sub, report["completed"], report["latency_p95_s"], flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
