"""Public-surface checks: exports are importable, examples run, docs exist."""

import importlib
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.chaos",
    "repro.cluster",
    "repro.dfs",
    "repro.experiments",
    "repro.inversion",
    "repro.linalg",
    "repro.mapreduce",
    "repro.mpi",
    "repro.scalapack",
    "repro.spark",
    "repro.telemetry",
    "repro.workloads",
]

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.{name} in __all__ but missing"

    def test_top_level_quickstart_surface(self):
        import repro

        assert callable(repro.invert)
        assert callable(repro.lu_decompose)
        assert repro.InversionConfig(nb=8, m0=4).mhalf == 2
        assert repro.__version__

    def test_docstrings_on_public_modules(self):
        for package in PACKAGES:
            mod = importlib.import_module(package)
            assert mod.__doc__ and len(mod.__doc__) > 40, f"{package} undocumented"


class TestDocsPresent:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/paper_mapping.md", "docs/internals.md"]
    )
    def test_doc_exists_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 2000, f"{name} too thin"

    def test_examples_present(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 7


class TestExamplesRun:
    """Smoke-run the two fastest examples end-to-end as subprocesses."""

    @pytest.mark.parametrize(
        "script, expect",
        [
            ("streaming_wordcount.py", "word counts"),
            ("quickstart.py", "matches numpy"),
        ],
    )
    def test_example(self, script, expect):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr[-800:]
        assert expect in proc.stdout


class TestRunAllFast:
    def test_run_all_fast_smoke(self, capsys):
        """The master entry point (`python -m repro experiments --fast`)
        regenerates every artifact without error."""
        from repro.experiments.run_all import main as run_all

        run_all(fast=True)
        out = capsys.readouterr().out
        for artifact in ("Table 1", "Table 3", "Figure 6", "Figure 8",
                         "Section 7.4", "Section 8", "Section 7.5"):
            assert f"[{artifact}" in out, artifact


class TestOptionCensus:
    """Every independently settable run option, pinned: a new knob (or a
    removed one) is a deliberate edit of this table, not a side effect."""

    @staticmethod
    def _fields(cls):
        import dataclasses

        return [f.name for f in dataclasses.fields(cls) if f.init]

    @staticmethod
    def _params(cls):
        import inspect

        return [p for p in inspect.signature(cls.__init__).parameters if p != "self"]

    def test_config_dataclasses(self):
        from repro import InversionConfig
        from repro.mapreduce import RetryPolicy, RuntimeConfig

        assert self._fields(InversionConfig) == [
            "nb", "m0", "separate_files", "block_wrap", "transpose_u", "pivot",
            "root", "input_format", "preflight", "retry", "block_cache_bytes",
            "output_commit", "executor", "num_workers", "schedule",
        ]
        assert self._fields(RuntimeConfig) == [
            "num_workers", "executor", "speculative", "max_node_failures",
            "blacklist_window",
        ]
        assert self._fields(RetryPolicy) == [
            "max_attempts", "base_delay", "backoff", "max_delay", "jitter",
            "seed", "attempt_deadline",
        ]

    def test_job_conf_run_policy(self):
        from repro.mapreduce import JobConf

        # What the job *is* (name, factories, splits, shuffle shape, params)
        # is not policy; everything after it is.
        what = [
            "name", "mapper_factory", "splits", "reducer_factory",
            "combiner_factory", "num_reduce_tasks", "partitioner", "sort_keys",
            "grouping_fn", "params",
        ]
        assert self._fields(JobConf) == what + ["retry", "output_commit"]

    def test_constructor_parameters(self):
        from repro.inversion import MatrixInverter
        from repro.mapreduce import DataflowScheduler, Pipeline, ProcessPoolBackend

        assert self._params(MatrixInverter) == ["config", "runtime", "fault_policy"]
        assert self._params(Pipeline) == ["runtime", "commit_log"]
        assert self._params(DataflowScheduler) == ["dfs", "units"]
        assert self._params(ProcessPoolBackend) == ["max_workers"]

    def test_no_option_rides_the_descriptors(self):
        from repro.chaos import FaultSchedule
        from repro.mapreduce.remote import RemoteTask

        assert "inline_limit" not in self._fields(RemoteTask)
        assert self._fields(FaultSchedule) == [
            "name", "description", "events", "retry", "task_faults",
        ]
