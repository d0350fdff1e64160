"""Unit tests for the repro CLI."""

from __future__ import annotations

import json
from typing import ClassVar

import numpy as np
import pytest

from repro.cli import main
from repro.core.placement.base import Placement
from repro.scenarios import get_scenario, list_scenarios
from repro.trace.events import RoutingTrace


class TestRunCommand:
    def test_runs_registered_preset(self, capsys):
        assert main(["run", "fig10-end-to-end-smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig10-end-to-end-smoke" in out
        assert "exflow" in out
        assert "summary:" in out
        assert "GPU-h" in out

    def test_serving_preset_prints_latency(self, capsys):
        assert main(["run", "serve-poisson-smoke"]) == 0
        out = capsys.readouterr().out
        assert "p95 ms" in out
        assert "$" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["run", "serve-bursty-smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "serve-bursty-smoke"
        assert report["kind"] == "serving"
        assert report["completed"] > 0

    def test_runs_scenario_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        get_scenario("serve-poisson-smoke").save(path)
        assert main(["run", "--scenario", str(path)]) == 0
        assert "serve-poisson-smoke" in capsys.readouterr().out

    def test_positional_path_also_loads_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        get_scenario("serve-poisson-smoke").save(path)
        assert main(["run", str(path)]) == 0
        assert "serve-poisson-smoke" in capsys.readouterr().out

    def test_out_writes_report_and_spec(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        spec_path = tmp_path / "spec.json"
        code = main(
            [
                "run",
                "serve-poisson-smoke",
                "--out",
                str(report_path),
                "--out-spec",
                str(spec_path),
            ]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["kind"] == "serving"
        from repro.scenarios import Scenario

        assert Scenario.load(spec_path) == get_scenario("serve-poisson-smoke")

    def test_unknown_preset_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_scenario_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
        assert "cannot load scenario" in capsys.readouterr().err
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["run", str(broken)]) == 2
        assert "cannot load scenario" in capsys.readouterr().err

    def test_batch_summary_omits_latency(self, capsys):
        # a batch comparison has no per-request latency to summarise
        assert main(["run", "fig10-end-to-end-smoke"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("summary: ")
        assert "p95" not in summary
        assert "tokens/s" in summary

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda d: d["fleet"].update(slo_ms=float("nan")), "slo_ms must be finite"),
            (lambda d: d["serving"].update(arrival_rate_rps=float("inf")), "finite"),
            (lambda d: d["fleet"].update(engine="event"), "unknown FleetConfig field"),
        ],
    )
    def test_invalid_fleet_spec_fails_cleanly(self, tmp_path, capsys, edit, message):
        doc = get_scenario("fleet-steady-day-smoke").to_dict()
        edit(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load scenario" in err
        assert message in err

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "rep.json"
        assert main(["run", "serve-poisson-smoke", "--out", str(bad)]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_json_with_out_keeps_stdout_machine_readable(self, tmp_path, capsys):
        out_path = tmp_path / "rep.json"
        code = main(
            ["run", "serve-poisson-smoke", "--json", "--out", str(out_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # the whole stdout stream must be one JSON document (confirmations
        # go to stderr)
        assert json.loads(captured.out)["scenario"] == "serve-poisson-smoke"
        assert "wrote report" in captured.err

    def test_name_and_file_are_mutually_exclusive(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        get_scenario("serve-poisson-smoke").save(path)
        assert main(["run", "serve-poisson-smoke", "--scenario", str(path)]) == 2
        assert main(["run"]) == 2


class TestScenariosCommand:
    def test_list_shows_every_preset(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in list_scenarios():
            assert name in out
        assert "kind" in out

    def test_default_action_is_list(self, capsys):
        assert main(["scenarios"]) == 0
        assert "registered scenarios" in capsys.readouterr().out

    def test_names_mode_is_script_friendly(self, capsys):
        assert main(["scenarios", "list", "--names", "--smoke-only"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == list(list_scenarios(smoke=True))
        assert all(name.endswith("-smoke") for name in lines)

    def test_kind_filter(self, capsys):
        assert main(["scenarios", "list", "--kind", "fleet", "--names"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(get_scenario(n).kind == "fleet" for n in lines)

    def test_full_only_excludes_smoke(self, capsys):
        assert main(["scenarios", "list", "--full-only", "--names"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and not any(n.endswith("-smoke") for n in lines)

    def test_smoke_and_full_flags_conflict(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "list", "--smoke-only", "--full-only"])

    def test_json_mode_is_machine_readable(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == list(list_scenarios())
        for e in entries:
            s = get_scenario(e["name"])
            assert e["kind"] == s.kind
            assert e["smoke"] == s.is_smoke
            assert e["description"] == s.description
        by_name = {e["name"]: e for e in entries}
        assert by_name["fleet-bad-day"]["chaos"] is True
        assert by_name["fig10-end-to-end"]["chaos"] is False

    def test_json_respects_filters(self, capsys):
        assert main(["scenarios", "list", "--json", "--kind", "fleet", "--smoke-only"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries and all(
            e["kind"] == "fleet" and e["smoke"] for e in entries
        )

    def test_json_and_names_conflict(self, capsys):
        assert main(["scenarios", "list", "--json", "--names"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestModels:
    def test_lists_presets(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt-m-350m-e32" in out
        assert "MoE-GPT-XL-1.3B-E16" in out


class TestProfile:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = main(
            ["profile", "--model", "gpt-m-350m-e8", "--tokens", "200", "--out", str(out)]
        )
        assert code == 0
        trace = RoutingTrace.load(out)
        assert trace.num_tokens == 200
        assert trace.num_experts == 8
        assert "scaled affinity" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["profile", "--tokens", "100", "--seed", "5", "--out", str(a)])
        main(["profile", "--tokens", "100", "--seed", "5", "--out", str(b)])
        assert np.array_equal(RoutingTrace.load(a).paths, RoutingTrace.load(b).paths)


class TestPlace:
    def test_solves_and_saves(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e32", "--tokens", "500", "--out", str(trace_path)])
        placement_path = tmp_path / "placement.npz"
        code = main(
            [
                "place",
                "--trace",
                str(trace_path),
                "--nodes",
                "2",
                "--gpus-per-node",
                "4",
                "--out",
                str(placement_path),
            ]
        )
        assert code == 0
        placement = Placement.load(placement_path)
        assert placement.num_gpus == 8
        assert "same-GPU" in capsys.readouterr().out


class TestSimulate:
    def test_prints_comparison(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                "gpt-m-350m-e8",
                "--nodes",
                "2",
                "--gpus-per-node",
                "4",
                "--requests-per-gpu",
                "2",
                "--generate-len",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deepspeed" in out
        assert "exflow" in out


class TestServe:
    def test_prints_tail_latency(self, capsys):
        code = main(
            [
                "serve",
                "--model",
                "gpt-m-350m-e8",
                "--nodes",
                "2",
                "--gpus-per-node",
                "2",
                "--requests",
                "32",
                "--rate",
                "300",
                "--generate-len",
                "4",
                "--max-batch",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out
        assert "tokens/s" in out

    def test_bursty_arrival(self, capsys):
        code = main(
            [
                "serve",
                "--model",
                "gpt-m-350m-e8",
                "--nodes",
                "1",
                "--gpus-per-node",
                "2",
                "--arrival",
                "bursty",
                "--requests",
                "16",
                "--rate",
                "200",
                "--generate-len",
                "4",
                "--max-batch",
                "4",
                "--mode",
                "vanilla",
            ]
        )
        assert code == 0
        assert "bursty" in capsys.readouterr().out

    def test_unknown_arrival_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--arrival", "uniform"])

    def test_drift_prints_kept_mass(self, capsys):
        code = main(
            [
                "serve",
                "--model",
                "gpt-m-350m-e8",
                "--nodes",
                "2",
                "--gpus-per-node",
                "2",
                "--requests",
                "24",
                "--rate",
                "500",
                "--generate-len",
                "4",
                "--max-batch",
                "8",
                "--drift",
                "abrupt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kept transition mass" in out
        assert "drift=abrupt" in out

    def test_replace_every_reports_events_or_none(self, capsys):
        code = main(
            [
                "serve",
                "--model",
                "gpt-m-350m-e8",
                "--nodes",
                "2",
                "--gpus-per-node",
                "2",
                "--requests",
                "48",
                "--rate",
                "1000",
                "--generate-len",
                "6",
                "--max-batch",
                "16",
                "--drift",
                "abrupt",
                "--replace",
                "--replace-every",
                "16",
                "--halflife",
                "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "online re-placement" in out

    def test_unknown_drift_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--drift", "sideways"])


class TestFleet:
    _BASE: ClassVar[list[str]] = [
        "fleet",
        "--model",
        "gpt-m-350m-e8",
        "--nodes",
        "2",
        "--gpus-per-node",
        "2",
        "--requests",
        "48",
        "--rate",
        "400",
        "--generate-len",
        "4",
        "--max-batch",
        "8",
        "--replicas",
        "2",
    ]

    def test_runs_each_router(self, capsys):
        for router in ("round-robin", "jsq", "p2c", "affinity"):
            code = main([*self._BASE, "--router", router])
            assert code == 0
            out = capsys.readouterr().out
            assert router in out
            assert "per-replica" in out
            assert "SLO ok" in out

    def test_autoscale_flag(self, capsys):
        code = main(
            [*self._BASE,"--router", "jsq", "--autoscale", "--min-replicas", "1", "--max-replicas", "4"]
        )
        assert code == 0
        # quiet traffic: the fleet may shrink but the command must succeed
        assert "fleet" in capsys.readouterr().out

    def test_slo_ms_flag_sheds_when_impossible(self, capsys):
        # sub-microsecond SLO: every predicted latency violates it, so the
        # shed % cell must be non-zero (the only percent-formatted zero)
        code = main([*self._BASE, "--router", "jsq", "--slo-ms", "0.001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.00%" not in out

    def test_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            main([*self._BASE, "--router", "alphabetical"])

    def test_has_no_engine_flag(self):
        # every fleet run executes on the tick engine; nothing selects one
        with pytest.raises(SystemExit):
            main([*self._BASE, "--engine", "tick"])

    def test_conflicting_replica_bounds_error(self):
        # with autoscaling on, --replicas 2 above --max-replicas 1 must
        # surface FleetConfig's ValueError, not silently widen the cap
        with pytest.raises(ValueError):
            main([*self._BASE, "--autoscale", "--max-replicas", "1"])

    def test_chaos_flag_injects_and_reports(self, capsys):
        # --chaos derives a seeded bad day from the nominal horizon; at
        # this load at least the crash fires, so the chaos table and the
        # availability/goodput summary line must render
        code = main(
            [*self._BASE, "--requests", "100", "--rate", "2000", "--chaos", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: injected failures" in out
        assert "availability" in out
        assert "time-to-recover" in out

    def test_chaos_is_seed_deterministic(self, capsys):
        args = [*self._BASE, "--requests", "64", "--rate", "2000", "--chaos", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_static_fleet_ignores_autoscaler_bounds(self, capsys):
        # without --autoscale the replica-count bounds are meaningless; a
        # static fleet larger than the default max must just run
        code = main([*self._BASE, "--replicas", "9", "--requests", "16"])
        assert code == 0
        assert "per-replica" in capsys.readouterr().out


class TestHeatmap:
    def test_renders(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e8", "--tokens", "300", "--out", str(trace_path)])
        assert main(["heatmap", "--trace", str(trace_path), "--layer", "0"]) == 0
        assert "affinity: layer 0 -> 1" in capsys.readouterr().out

    def test_layer_out_of_range(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e8", "--tokens", "100", "--out", str(trace_path)])
        assert main(["heatmap", "--trace", str(trace_path), "--layer", "99"]) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--strategy", "quantum"])
