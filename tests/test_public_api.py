"""Guard tests on the public API surface and repository consistency.

These catch the drift that silently breaks downstream users: ``__all__``
entries that don't resolve, documented bench targets that don't exist, and
solver registry entries without implementations.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.cluster",
    "repro.model",
    "repro.trace",
    "repro.core",
    "repro.core.placement",
    "repro.engine",
    "repro.fleet",
    "repro.training",
    "repro.analysis",
]


class TestAllExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), f"{package} has no __all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.__all__ lists missing {name!r}"

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_quickstart_docstring_imports_work(self):
        """The README/module quickstart names must exist on the package."""
        import repro

        for name in (
            "ExFlowOptimizer",
            "InferenceConfig",
            "paper_model",
            "wilkes3",
            "MarkovRoutingModel",
            "compare_modes",
            "make_decode_workload",
        ):
            assert hasattr(repro, name)


class TestImportWeight:
    def test_preset_run_loads_neither_scipy_nor_networkx(self):
        """A staged-placement preset runs on numpy alone: scipy is only for
        ``ilp-joint`` and networkx only for ``Topology.graph``/``hop_path``,
        both imported on use.  A fresh interpreter, so that no other test's
        imports leak into ``sys.modules``."""
        code = (
            "import sys, repro\n"
            "repro.run('fleet-steady-day-smoke')\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] in ('scipy', 'networkx'))\n"
            "print(heavy)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"


class TestSolverRegistry:
    def test_registry_covers_docs(self):
        from repro.core.placement import SOLVERS, solve_placement  # noqa: F401

        # every advertised solver has an implementation reachable by name
        import numpy as np

        from repro.config import ClusterConfig
        from repro.trace.markov import MarkovRoutingModel

        trace = MarkovRoutingModel.with_affinity(4, 3, 0.5).sample(
            200, np.random.default_rng(0)
        )
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=2)
        for strategy in SOLVERS:
            kwargs = {"time_limit_s": 5.0} if strategy == "ilp-joint" else {}
            p = solve_placement(strategy, trace, cluster, **kwargs)
            assert p.num_gpus == 2


class TestDocsConsistency:
    def test_design_bench_targets_exist(self):
        """Every bench file DESIGN.md names must exist in benchmarks/."""
        design = (REPO_ROOT / "DESIGN.md").read_text()
        import re

        for name in re.findall(r"bench_[a-z0-9_]+\.py", design):
            assert (REPO_ROOT / "benchmarks" / name).exists(), f"missing {name}"

    def test_experiments_bench_targets_exist(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        import re

        for name in re.findall(r"bench_[a-z0-9_]+\.py", experiments):
            assert (REPO_ROOT / "benchmarks" / name).exists(), f"missing {name}"

    def test_every_bench_documented(self):
        """Every benchmark file appears in EXPERIMENTS.md or DESIGN.md."""
        docs = (REPO_ROOT / "EXPERIMENTS.md").read_text() + (
            REPO_ROOT / "DESIGN.md"
        ).read_text()
        for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            assert path.name in docs, f"{path.name} is undocumented"

    def test_examples_exist_and_have_docstrings(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (REPO_ROOT / "examples" / "quickstart.py").exists()
        for path in examples:
            assert path.read_text().lstrip().startswith('"""'), f"{path.name} undocumented"
