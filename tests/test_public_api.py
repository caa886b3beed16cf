"""Public-surface checks: exports are importable, examples run, docs exist
and name only code that exists."""

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.chaos",
    "repro.cluster",
    "repro.dfs",
    "repro.experiments",
    "repro.inversion",
    "repro.linalg",
    "repro.mapreduce",
    "repro.mpi",
    "repro.scalapack",
    "repro.telemetry",
    "repro.workloads",
]

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted(p.name for p in (REPO / "examples").glob("*.py"))


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
        assert EXAMPLES

    def test_api_reference_in_sync(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", REPO / "scripts" / "gen_api_docs.py"
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        assert (REPO / "docs" / "api.md").read_text() == gen.render(), (
            "docs/api.md is stale: run python scripts/gen_api_docs.py"
        )


class TestExamplesRun:
    """Every example runs end-to-end as a subprocess."""

    @pytest.mark.parametrize("script", EXAMPLES)
    def test_example(self, script):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr[-800:]


#: The current documents; CHANGELOG, CHANGES and ROADMAP are history.
CHECKED_DOCS = sorted(
    ["README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md"]
    + [f"docs/{p.name}" for p in (REPO / "docs").glob("*.md")]
)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_PY_PATH = re.compile(r"(?<![\w./-])((?:[\w-]+/)+[\w-]+\.py)\b")


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


class TestDocsNameRealCode:
    """A doc row that outlives the code it names is a bug: every backticked
    ``repro.x.y`` must import or resolve, every backticked ``pkg/mod.py``
    must exist under the repo root, ``src/`` or ``src/repro/``."""

    @pytest.mark.parametrize("doc", CHECKED_DOCS)
    def test_names_resolve(self, doc):
        stale = []
        for lineno, line in enumerate((REPO / doc).read_text().splitlines(), 1):
            for span in _CODE_SPAN.findall(line):
                for name in _DOTTED.findall(span):
                    if not _resolves(name):
                        stale.append(f"{doc}:{lineno}: {name}")
                for path in _PY_PATH.findall(span):
                    if not any((root / path).exists()
                               for root in (REPO, REPO / "src", REPO / "src" / "repro")):
                        stale.append(f"{doc}:{lineno}: {path}")
        assert not stale, "\n".join(stale)


class TestRunAllFast:
    def test_run_all_fast_smoke(self, capsys):
        """The master entry point (`python -m repro experiments --fast`)
        regenerates every artifact without error."""
        from repro.experiments.run_all import main as run_all

        run_all(fast=True)
        out = capsys.readouterr().out
        for artifact in ("Table 1", "Table 3", "Figure 6", "Figure 8",
                         "Section 7.4", "Section 7.5"):
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
        from repro.mapreduce import RetryPolicy

        assert self._fields(InversionConfig) == [
            "nb", "m0", "separate_files", "block_wrap", "transpose_u",
            "root", "retry", "block_cache_bytes", "output_commit", "executor",
            "num_workers", "schedule",
        ]
        assert self._fields(RetryPolicy) == [
            "max_attempts", "base_delay", "max_delay", "jitter",
            "attempt_deadline",
        ]

    def test_job_conf_run_policy(self):
        from repro.mapreduce import JobConf

        # What the job *is* (name, factories, splits, shuffle shape, params)
        # is not policy; everything after it is.
        what = [
            "name", "mapper_factory", "splits", "reducer_factory",
            "combiner_factory", "num_reduce_tasks", "params",
        ]
        assert self._fields(JobConf) == what + ["retry", "output_commit"]

    def test_constructor_parameters(self):
        import inspect

        from repro import observe
        from repro.inversion import MatrixInverter
        from repro.mapreduce import (
            DataflowScheduler,
            MapReduceRuntime,
            Pipeline,
            ProcessPoolBackend,
        )

        assert self._params(MatrixInverter) == ["config", "dfs", "fault_policy"]
        assert self._params(MapReduceRuntime) == [
            "dfs", "executor", "num_workers", "fault_policy",
        ]
        assert list(inspect.signature(observe).parameters) == ["jsonl", "trace_id"]
        assert self._params(Pipeline) == ["runtime", "commit_log"]
        assert self._params(DataflowScheduler) == ["dfs", "units"]
        assert self._params(ProcessPoolBackend) == ["max_workers"]

    def test_fault_policies_carry_no_job_name(self):
        import dataclasses

        from repro.mapreduce.faults import FaultPolicy

        policies, todo = [], [FaultPolicy]
        while todo:
            cls = todo.pop()
            policies.append(cls)
            todo.extend(cls.__subclasses__())
        policies = [cls for cls in policies if cls.__module__.startswith("repro.")]
        assert len(policies) > 5
        for cls in policies:
            assert not hasattr(cls, "job_name"), cls
            if dataclasses.is_dataclass(cls):
                assert "job_name" not in self._fields(cls), cls

    def test_no_option_rides_the_descriptors(self):
        from repro.chaos import FaultSchedule
        from repro.mapreduce.remote import RemoteTask

        assert "inline_limit" not in self._fields(RemoteTask)
        assert self._fields(FaultSchedule) == [
            "name", "description", "events", "retry", "task_faults",
        ]
