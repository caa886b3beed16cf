"""Process-safety analyzer: each PS rule fires on its seeded fixture, clean
task code stays silent, and the whole engine package passes — the static
gate on what ProcessPoolBackend may be handed.

Fixture modules live in ``tests/fixtures/procsafety/`` and are analyzed as
source text — they are never imported, so the deliberate leaks and lifetime
bugs in them never execute.
"""

from __future__ import annotations

import inspect
import pathlib
import re
import textwrap

from repro.analysis import (
    Severity,
    analyze_procsafety_files,
    analyze_procsafety_sources,
    default_procsafety_files,
)
from repro.analysis.cli import main as lint_main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "procsafety"


def rule_ids(findings):
    return {f.rule for f in findings}


def analyze_fixture(name: str):
    return analyze_procsafety_files([FIXTURES / name])


def analyze_snippet(text: str, filename: str = "snippet.py"):
    return analyze_procsafety_sources([(textwrap.dedent(text), filename)])


# -- fixtures -----------------------------------------------------------------------


def test_good_tasks_fixture_is_clean():
    assert analyze_fixture("good_tasks.py") == []


def test_capture_fixture_fires_ps001_ps002_ps007():
    findings = analyze_fixture("bad_captures.py")
    assert rule_ids(findings) == {"PS001", "PS002", "PS007"}
    assert all(f.severity == Severity.ERROR for f in findings)
    messages = " | ".join(f.message for f in findings)
    assert "progress_lock" in messages
    assert "dfs" in messages
    assert "audit_log" in messages
    assert "ticket_stream" in messages


def test_mutation_fixture_fires_ps003_ps004_ps005():
    findings = analyze_fixture("bad_mutation.py")
    assert rule_ids(findings) == {"PS003", "PS004", "PS005"}
    by_rule: dict[str, list] = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    # PS004: direct slice assignment, the in-place helper, and out=.
    ps004 = " | ".join(f.message for f in by_rule["PS004"])
    assert "_normalize_rows" in ps004
    assert "out= argument" in ps004
    assert len(by_rule["PS004"]) == 3
    # PS005: escape via captured list, via self, and via return.
    ps005 = " | ".join(f.message for f in by_rule["PS005"])
    assert "self.last" in ps005
    assert "returns borrowed view" in ps005
    assert "_sink" in ps005
    assert all(f.severity == Severity.WARNING for f in by_rule["PS005"])


def test_rng_and_shm_fixture_fires_ps006_ps008():
    findings = analyze_fixture("bad_rng_shm.py")
    assert rule_ids(findings) == {"PS006", "PS008"}
    by_rule = {f.rule: f for f in findings}
    assert "np.random.standard_normal" in by_rule["PS006"].message
    assert "shm.close()" in by_rule["PS008"].message


def test_all_fixtures_together_cover_every_rule():
    paths = sorted(FIXTURES.glob("*.py"))
    assert len(paths) == 4, "fixture set changed; update the tests"
    findings = analyze_procsafety_files(paths)
    assert rule_ids(findings) == {
        "PS001", "PS002", "PS003", "PS004", "PS005", "PS006", "PS007", "PS008",
    }


# -- discovery routes ---------------------------------------------------------------


def test_jobconf_factory_captures_are_boundary_checked():
    findings = analyze_snippet(
        """
        import threading
        from repro.mapreduce import JobConf

        wave_lock = threading.Lock()

        def make_job(mapper_cls, splits):
            return JobConf(
                name="leaky-factory",
                mapper_factory=lambda: mapper_cls(wave_lock),
                splits=splits,
            )
        """
    )
    assert rule_ids(findings) == {"PS007"}
    assert "wave_lock" in findings[0].message


def test_before_job_hook_function_is_analyzed():
    findings = analyze_snippet(
        """
        import numpy as np

        def install(runtime):
            def jitter_hook(conf):
                conf.params["jitter"] = float(np.random.random())

            runtime.before_job.append(jitter_hook)
        """
    )
    assert rule_ids(findings) == {"PS006"}


def test_before_job_hook_object_captures_handle():
    findings = analyze_snippet(
        """
        from repro.dfs import DFS

        class Recorder:
            def __init__(self, dfs):
                self.dfs = dfs

        def install(runtime):
            dfs = DFS()
            runtime.before_job.append(Recorder(dfs))
        """
    )
    assert rule_ids(findings) == {"PS002"}
    assert "Recorder" in findings[0].message


def test_task_boundary_annotation_marks_thunks():
    findings = analyze_snippet(
        """
        import threading

        def run_wave(executor, items):
            lock = threading.Lock()
            done = []

            def make_thunk(item):
                def thunk():  # task-boundary
                    with lock:
                        done.append(item)
                return thunk

            return executor.run_all([make_thunk(i) for i in items])
        """
    )
    assert rule_ids(findings) == {"PS007"}
    assert "lock" in findings[0].message


def test_unannotated_thunk_is_not_discovered():
    findings = analyze_snippet(
        """
        import threading

        def run_wave(executor, items):
            lock = threading.Lock()

            def thunk():
                with lock:
                    pass

            return executor.run_all([thunk])
        """
    )
    assert findings == []


# -- rule subtleties ----------------------------------------------------------------


def test_writable_read_and_copies_launder_borrowedness():
    findings = analyze_snippet(
        """
        import numpy as np
        from repro.dfs import formats
        from repro.mapreduce import Mapper

        class Clean(Mapper):
            def map(self, ctx, split):
                own = formats.decode_matrix(ctx.read_bytes("/b"), writable=True)
                own += 1.0
                dup = np.array(ctx.read_matrix("/m"))
                dup[0, 0] = 2.0
                other = ctx.read_matrix("/m2").copy()
                other.fill(0.0)
                ctx.write_matrix("/out", own + dup + other)
        """
    )
    assert findings == []


def test_view_aliases_stay_borrowed():
    findings = analyze_snippet(
        """
        from repro.mapreduce import Mapper

        class Aliasing(Mapper):
            def map(self, ctx, split):
                m = ctx.read_matrix("/m")
                t = m.T
                t[0, 0] = 1.0
                sub = m[2:4]
                sub += 1.0
        """
    )
    assert rule_ids(findings) == {"PS004"}
    assert len(findings) == 2


def test_rebinding_clears_borrowed_state():
    findings = analyze_snippet(
        """
        import numpy as np
        from repro.mapreduce import Mapper

        class Rebinding(Mapper):
            def map(self, ctx, split):
                m = ctx.read_matrix("/m")
                m = m @ m          # product is a fresh array
                m[0, 0] = 1.0      # fine now
        """
    )
    assert findings == []


def test_private_rng_construction_is_clean():
    findings = analyze_snippet(
        """
        import numpy as np
        import random
        from repro.mapreduce import Mapper

        class Seeded(Mapper):
            def map(self, ctx, split):
                rng = np.random.default_rng(split.index)
                local = random.Random(split.index)
                ctx.emit(split.index, rng.random() + local.random())
        """
    )
    assert findings == []


def test_shm_close_after_last_use_is_clean():
    findings = analyze_snippet(
        """
        import numpy as np
        from multiprocessing import shared_memory

        def read_block(name):
            shm = shared_memory.SharedMemory(name=name)
            view = np.frombuffer(shm.buf, dtype=np.float64)
            total = float(view.sum())
            shm.close()
            return total
        """
    )
    assert findings == []


def test_driver_code_is_not_flagged():
    """Only task-boundary code is analyzed: driver-side handle use and
    global RNG are fine."""
    findings = analyze_snippet(
        """
        import numpy as np
        from repro.dfs import DFS

        def main():
            dfs = DFS()
            dfs.write_bytes("/in", np.random.bytes(64))
        """
    )
    assert findings == []


# -- the task-body walker shared with the purity checker -----------------------------


def test_one_walk_per_task_site_serves_both_families(monkeypatch):
    """PU and PS read one walk of each task body: the mutation on
    ``bad_mutation.py:21`` is one ownership decision, reported once per
    family."""
    from repro.analysis import source

    text = (FIXTURES / "bad_mutation.py").read_text(encoding="utf-8")
    module = source.ModuleSource(text, "bad_mutation.py")
    sites = source.discover_task_sites(module)
    walks = []
    original = source.TaskWalker.run

    def counted(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(source.TaskWalker, "run", counted)
    findings = source.walk_task_sites(module, sites)
    assert len(walks) == sum(1 for s in sites if not s.kinds & {"init", "hook-object"})
    at_21 = {f.rule for f in findings if f.location == "bad_mutation.py:21"}
    assert at_21 == {"PU003", "PS003"}


def test_ownership_is_decided_once_for_both_families():
    from repro.analysis import analyze_source

    text = textwrap.dedent(
        """
        from repro.mapreduce import Mapper

        SEEN = []

        class Owners(Mapper):
            def map(self, ctx, split, **extra):
                extra.update(seen=True)
                SEEN.reverse()
                split = ctx.read_matrix("/p")
                split[0] = 1.0
                self.view: object = ctx.read_matrix("/q")
        """
    )
    pu = {(f.rule, int(f.location.rpartition(":")[2])) for f in analyze_source(text)}
    ps = {(f.rule, int(f.location.rpartition(":")[2])) for f in analyze_snippet(text)}
    # ``**extra`` is an input parameter; a module global is shared state
    # for both families; a parameter rebound to a read view is the view.
    assert pu == {("PU004", 8), ("PU003", 9), ("PU005", 12)}
    assert ps == {("PS003", 9), ("PS004", 11), ("PS005", 12)}


def _hint_keywords(hint: str) -> set[str]:
    return set(re.findall(r"(\w+)=", hint))


def test_ps004_hint_offers_only_keywords_the_producer_takes():
    """``TaskContext.read_matrix`` takes no ``writable``: the remedy for its
    views is a copy.  ``decode_matrix`` and ``formats.read_rows`` do take it."""
    from repro.dfs import formats
    from repro.mapreduce.job import TaskContext

    findings = analyze_snippet(
        """
        from repro.dfs import formats
        from repro.mapreduce import Mapper

        def _scale(m):
            m *= 2.0

        class Borrowing(Mapper):
            def map(self, ctx, split):
                m = ctx.read_matrix("/m")
                m[0, 0] = 0.0
                _scale(m)
                d = formats.decode_matrix(ctx.read_bytes("/d"))
                d.fill(0.0)
                r = formats.read_rows(ctx.dfs, "/r", 0, 2)
                r += 1.0
        """
    )
    hints = {int(f.location.rpartition(":")[2]): f.hint for f in findings if f.rule == "PS004"}
    producers = {
        11: TaskContext.read_matrix,  # m[0, 0] = 0.0
        12: TaskContext.read_matrix,  # _scale(m)
        14: formats.decode_matrix,  # d.fill(0.0)
        16: formats.read_rows,  # r += 1.0
    }
    assert hints.keys() == producers.keys(), findings
    for line, producer in producers.items():
        assert "copy()" in hints[line]
        assert _hint_keywords(hints[line]) <= set(inspect.signature(producer).parameters)
    assert "writable=True" in hints[14] and "writable=True" in hints[16]


# -- suppression --------------------------------------------------------------------


def test_inline_suppression_silences_ps_rule():
    findings = analyze_snippet(
        """
        from repro.mapreduce import Mapper

        class Documented(Mapper):
            def map(self, ctx, split):
                m = ctx.read_matrix("/m")
                return m  # lint: ignore[PS005]
        """
    )
    assert findings == []


# -- whole-package regression --------------------------------------------------------


def test_engine_package_is_procsafety_clean():
    """The ProcessPoolBackend gate: every module of the repro package passes
    the analyzer (with its documented inline exceptions)."""
    paths = default_procsafety_files()
    assert len(paths) >= 100
    findings = analyze_procsafety_files(paths)
    assert findings == [], findings


def test_default_sweep_skips_pycache_artifacts():
    """Stale ``__pycache__`` debris (e.g. a ``.py`` dropped there by a
    build tool) must never enter the engine sweep."""
    paths = default_procsafety_files()
    assert paths
    assert all("__pycache__" not in p.parts for p in paths)


def test_examples_and_experiments_are_procsafety_clean():
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = sorted((root / "examples").glob("*.py"))
    paths += sorted((root / "src" / "repro" / "experiments").glob("*.py"))
    assert len(paths) >= 10
    assert analyze_procsafety_files(paths) == []


# -- CLI ----------------------------------------------------------------------------


def test_cli_procsafety_exit_codes(capsys):
    bad = FIXTURES / "bad_captures.py"
    good = FIXTURES / "good_tasks.py"

    assert lint_main(["--procsafety", str(good)]) == 0
    capsys.readouterr()
    assert lint_main(["--procsafety", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PS001" in out and "PS002" in out and "PS007" in out
    # --ignore downgrades the run to clean.
    assert (
        lint_main(
            ["--procsafety", str(bad), "--ignore", "PS001,PS002,PS007"]
        )
        == 0
    )
    capsys.readouterr()
    # Warnings alone (PS005) do not fail the run.
    snippet = FIXTURES / "bad_mutation.py"
    assert (
        lint_main(["--procsafety", str(snippet), "--ignore", "PS003,PS004"])
        == 0
    )


def test_cli_procsafety_default_paths(capsys):
    """With no paths, ``--procsafety`` sweeps the whole package and exits
    clean."""
    assert lint_main(["--procsafety"]) == 0
    out = capsys.readouterr().out
    assert "analyzed" in out
