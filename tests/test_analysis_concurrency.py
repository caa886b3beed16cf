"""Lockset / lock-order analyzer: each CN rule fires on its seeded fixture,
clean code stays silent, and the engine's own threaded modules pass.

Fixture modules live in ``tests/fixtures/concurrency/`` and are analyzed as
source text — they are never imported, so the deliberate deadlocks and races
in them never execute.
"""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis import (
    Severity,
    analyze_concurrency_files,
    analyze_concurrency_sources,
    default_threaded_files,
    has_errors,
)
from repro.analysis.cli import main as lint_main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "concurrency"


def rule_ids(findings):
    return {f.rule for f in findings}


def analyze_fixture(name: str):
    return analyze_concurrency_files([FIXTURES / name])


def analyze_snippet(text: str, filename: str = "snippet.py"):
    return analyze_concurrency_sources([(textwrap.dedent(text), filename)])


# -- fixtures: one rule each --------------------------------------------------------


def test_guarded_fixture_is_clean():
    assert analyze_fixture("good_guarded.py") == []


def test_unguarded_read_and_write_fixture():
    findings = analyze_fixture("bad_unguarded.py")
    assert rule_ids(findings) == {"CN001", "CN002"}
    assert all(f.severity == Severity.ERROR for f in findings)
    by_rule = {f.rule: f for f in findings}
    assert "_items" in by_rule["CN001"].message
    assert "peek" in by_rule["CN001"].message


def test_helper_escape_fixture():
    findings = analyze_fixture("helper_escape.py")
    assert rule_ids(findings) == {"CN003", "CN004"}
    by_rule = {f.rule: f for f in findings}
    assert by_rule["CN003"].severity == Severity.ERROR
    assert "_compact_locked" in by_rule["CN003"].message
    assert by_rule["CN004"].severity == Severity.WARNING
    assert "_entries" in by_rule["CN004"].message


def test_lock_order_cycle_fixture():
    findings = analyze_fixture("lock_cycle.py")
    assert rule_ids(findings) == {"CN005"}
    assert findings[0].severity == Severity.ERROR
    assert "Auditor._lock" in findings[0].message
    assert "Ledger._lock" in findings[0].message


def test_hold_across_join_fixture():
    findings = analyze_fixture("hold_across_join.py")
    assert rule_ids(findings) == {"CN006"}
    assert findings[0].severity == Severity.WARNING
    assert "join" in findings[0].message


# -- rules without a file fixture ---------------------------------------------------


def test_unknown_lock_name_is_cn007():
    findings = analyze_snippet(
        """
        import threading

        class Mislabeled:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self.items = []  # guarded-by: _mutex
        """
    )
    assert rule_ids(findings) == {"CN007"}
    assert "_mutex" in findings[0].message


def test_escaping_callback_mutation_is_cn008():
    findings = analyze_snippet(
        """
        import threading

        class Pool:
            def __init__(self) -> None:
                self._lock = threading.Lock()

            def submit_all(self, executor, jobs):
                results = []

                def task(job):
                    results.append(job())

                for job in jobs:
                    executor.submit(task, job)
                return results
        """
    )
    assert rule_ids(findings) == {"CN008"}
    assert "results" in findings[0].message


def test_self_deadlock_on_plain_lock_is_cn005():
    findings = analyze_snippet(
        """
        import threading

        class Reentrant:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock

            def outer(self) -> None:
                with self._lock:
                    self.inner()

            def inner(self) -> None:
                with self._lock:
                    self.count += 1
        """
    )
    assert "CN005" in rule_ids(findings)


def test_rlock_reacquisition_is_allowed():
    findings = analyze_snippet(
        """
        import threading

        class Reentrant:
            def __init__(self) -> None:
                self._lock = threading.RLock()
                self.count = 0  # guarded-by: _lock

            def outer(self) -> None:
                with self._lock:
                    self.inner()

            def inner(self) -> None:
                with self._lock:
                    self.count += 1
        """
    )
    assert findings == []


# -- suppression and annotations ----------------------------------------------------


def test_inline_suppression_silences_cn_rule():
    findings = analyze_snippet(
        """
        import threading

        class Cache:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self.items = {}  # guarded-by: _lock

            def peek(self):
                return self.items.get("x")  # lint: ignore[CN001]
        """
    )
    assert findings == []


def test_requires_lock_comment_matches_suffix_convention():
    """A ``# requires-lock:`` comment and a ``_locked`` suffix both mark a
    helper as lock-required; calling either under the lock is clean."""
    findings = analyze_snippet(
        """
        import threading

        class Store:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self.items = {}  # guarded-by: _lock

            def _purge(self) -> None:  # requires-lock: _lock
                self.items.clear()

            def _refresh_locked(self) -> None:
                self.items["fresh"] = True

            def reset(self) -> None:
                with self._lock:
                    self._purge()
                    self._refresh_locked()
        """
    )
    assert findings == []


# -- whole-package analysis ---------------------------------------------------------


def test_all_fixtures_together_report_every_rule_once():
    """The fixtures form one package: cross-module analysis must not merge
    or drop findings."""
    paths = sorted(FIXTURES.glob("*.py"))
    assert len(paths) == 5, "fixture set changed; update the tests"
    findings = analyze_concurrency_files(paths)
    assert rule_ids(findings) == {
        "CN001",
        "CN002",
        "CN003",
        "CN004",
        "CN005",
        "CN006",
    }


def test_engine_threaded_modules_are_clean():
    """Regression gate: the annotated engine modules (mapreduce scheduler,
    DFS, telemetry) carry no lockset or lock-order findings."""
    paths = default_threaded_files()
    assert len(paths) >= 10
    findings = analyze_concurrency_files(paths)
    assert findings == [], findings


def test_threaded_modules_list_matches_disk():
    """Every THREADED_MODULES entry must exist — a rename that misses the
    list would silently shrink the CN sweep (make lint reports the same
    condition as an error in scripts/lint_summary.py's CN row)."""
    from repro.analysis import missing_threaded_modules

    assert missing_threaded_modules() == []


# -- CLI ----------------------------------------------------------------------------


def test_cli_concurrency_exit_codes(capsys):
    bad = FIXTURES / "bad_unguarded.py"
    good = FIXTURES / "good_guarded.py"

    assert lint_main(["--concurrency", str(good)]) == 0
    capsys.readouterr()
    assert lint_main(["--concurrency", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "CN001" in out and "CN002" in out
    # --ignore downgrades the run to clean.
    assert lint_main(["--concurrency", str(bad), "--ignore", "CN001,CN002"]) == 0
    capsys.readouterr()
    # Warnings alone (CN006) do not fail the run.
    assert lint_main(["--concurrency", str(FIXTURES / "hold_across_join.py")]) == 0


def test_cli_concurrency_default_paths(capsys):
    """With no paths, ``--concurrency`` sweeps the engine's threaded
    modules and exits clean."""
    assert lint_main(["--concurrency"]) == 0
    out = capsys.readouterr().out
    assert "analyzed" in out
    assert has_errors([]) is False
