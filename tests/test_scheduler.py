"""The dataflow scheduler: block-keyed readiness, plan-order commits, resume.

Covers the scheduler in isolation (hand-built units on a bare DFS) and end
to end through the inversion driver: dataflow mode must produce the exact
inverse, record, and manifest set of barrier mode; a downstream unit must
never observe a pending block; a discarded speculative loser must never
trigger readiness; a crash between sibling-subtree completions must resume;
and the achieved schedule must respect the analyzer's predicted structure.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import InversionConfig
from repro.analysis import build_model
from repro.analysis.dataflow import barrier_slack_data, build_block_dag
from repro.chaos import DriverCrashError
from repro.dfs import DFS, CommitScope, formats
from repro.inversion import MatrixInverter
from repro.mapreduce import (
    DataflowScheduler,
    JobResult,
    SchedulerStallError,
    UnitSpec,
    run_in_order,
)

from conftest import random_invertible


def small_cluster() -> DFS:
    return DFS(num_datanodes=3, replication=2, block_size=1 << 16, seed=0)


def publish_unit(dfs, name, needs, writes, log=None, body=None):
    """A minimal unit: publish ``writes`` via a commit scope when run."""

    def run(wait):
        if body is not None:
            body()
        scope = CommitScope(dfs, f"unit-{name}")
        for path in writes:
            scope.stage_bytes(path, name.encode())
        scope.publish()
        if log is not None:
            log.append(name)
        return name

    return UnitSpec(
        name=name,
        kind="phase",
        needs=frozenset(needs),
        run=run,
        commit=lambda payload: None,
    )


class TestSchedulerCore:
    def test_chain_runs_in_dependency_order(self, dfs):
        ran = []
        units = [
            publish_unit(dfs, "a", [], ["/Root/a"], log=ran),
            publish_unit(dfs, "b", ["/Root/a"], ["/Root/b"], log=ran),
            publish_unit(dfs, "c", ["/Root/b"], ["/Root/c"], log=ran),
        ]
        report = DataflowScheduler(dfs=dfs, units=units).run()
        assert ran == ["a", "b", "c"]
        assert report.launch_order == ["a", "b", "c"]
        # b and c were released by publishes, not by the initial scan.
        assert report.triggers["b"] == "/Root/a"
        assert report.triggers["c"] == "/Root/b"

    def test_independent_units_all_complete(self, dfs):
        ran = []
        units = [
            publish_unit(dfs, f"u{i}", [], [f"/Root/u{i}"], log=ran)
            for i in range(6)
        ]
        DataflowScheduler(dfs=dfs, units=units).run()
        assert sorted(ran) == [f"u{i}" for i in range(6)]

    def test_commits_happen_in_plan_order(self, dfs):
        committed = []
        # u1 finishes long after u2 (u2 has no deps), yet u1 commits first.
        slow_release = threading.Event()
        units = [
            publish_unit(
                dfs, "u1", [], ["/Root/u1"], body=lambda: slow_release.wait(5)
            ),
            publish_unit(
                dfs, "u2", [], ["/Root/u2"], body=slow_release.set
            ),
        ]
        for unit in units:
            unit.commit = lambda payload, name=unit.name: committed.append(name)
        DataflowScheduler(dfs=dfs, units=units).run()
        assert committed == ["u1", "u2"]

    def test_missing_input_stalls_with_diagnosis(self, dfs):
        units = [publish_unit(dfs, "u", ["/Root/never-produced"], ["/Root/u"])]
        with pytest.raises(SchedulerStallError, match="never-produced"):
            DataflowScheduler(dfs=dfs, units=units).run()

    def test_unit_failure_reraised_after_drain(self, dfs):
        def explode():
            raise RuntimeError("unit boom")

        units = [
            publish_unit(dfs, "ok", [], ["/Root/ok"]),
            publish_unit(dfs, "bad", [], ["/Root/bad"], body=explode),
        ]
        with pytest.raises(RuntimeError, match="unit boom"):
            DataflowScheduler(dfs=dfs, units=units).run()

    def test_staged_unpublished_block_never_triggers_readiness(self, dfs):
        """A pending (staged, unsealed) block is invisible to the scheduler.

        Models a speculative loser: its attempt stages output for the path a
        downstream unit needs, but the staging is discarded, never
        published — so the downstream unit must stay blocked (stall), not
        launch against torn data.
        """
        loser = CommitScope(dfs, "speculative-loser")
        loser.stage_bytes("/Root/block", b"half-written")
        units = [publish_unit(dfs, "down", ["/Root/block"], ["/Root/out"])]
        scheduler = DataflowScheduler(dfs=dfs, units=units)
        with pytest.raises(SchedulerStallError, match="/Root/block"):
            scheduler.run()
        loser.abort()  # discarded: still nothing published
        assert not dfs.exists("/Root/block")

    def test_done_units_are_skipped_and_satisfy_dependents(self, dfs):
        # Simulates resume: "a" committed in a previous life, its output on
        # the DFS; only "b" should run.
        dfs.write_bytes("/Root/a", b"previous run")
        ran = []
        done = publish_unit(dfs, "a", [], ["/Root/a"], log=ran)
        done.done = True
        units = [done, publish_unit(dfs, "b", ["/Root/a"], ["/Root/b"], log=ran)]
        report = DataflowScheduler(dfs=dfs, units=units).run()
        assert ran == ["b"]
        assert report.skipped == ["a"]
        assert report.launch_order == ["b"]


def run_both(executor, separate_files, op):
    """``op(inverter)`` under each schedule on a fresh cluster; returns
    ``{schedule: (op's result, sorted manifest paths)}``."""
    out = {}
    for schedule in ("barrier", "dataflow"):
        dfs = small_cluster()
        cfg = InversionConfig(
            nb=4,
            m0=2,
            schedule=schedule,
            separate_files=separate_files,
            executor=executor,
        )
        with MatrixInverter(cfg, dfs=dfs) as inverter:
            result = op(inverter)
        out[schedule] = (result, sorted(dfs.list_files("/Root/_commit")))
    return out


def record_bytes(record):
    """The schedule-independent content of a pipeline record, in order:
    everything but wall times and launch-order-dependent attempt IDs."""
    rows = []
    for step in record.steps:
        if isinstance(step, JobResult):
            tasks = sorted(
                (t.kind.value, t.flops, t.bytes_read, t.bytes_written,
                 t.bytes_shuffled)
                for t in step.traces
            )
            rows.append((step.name, sorted(step.published_paths), tasks))
        else:
            rows.append(
                (step.name, step.flops, step.bytes_read, step.bytes_written)
            )
    return rows


class TestInOrderRunner:
    def test_runs_and_commits_each_unit_in_plan_order(self, dfs):
        events = []
        units = [
            publish_unit(dfs, name, [], [f"/Root/{name}"], log=events)
            for name in ("a", "b", "c")
        ]
        for unit in units:
            unit.commit = lambda payload: events.append(f"commit:{payload}")
        units[1].done = True  # resumed: neither run nor committed
        before = threading.active_count()
        run_in_order(units)
        assert events == ["a", "commit:a", "c", "commit:c"]
        assert threading.active_count() == before
        assert not dfs.publish_listeners


class TestDataflowInversion:
    @pytest.mark.parametrize("separate_files", [True, False])
    def test_matches_barrier_exactly(self, rng, separate_files):
        """One unit list, two runners: the inverse and the record (step
        order and every step's byte/flop accounting) are identical — with
        ``separate_files=False`` adding combine units."""
        a = random_invertible(rng, 16)
        runs = run_both("serial", separate_files, lambda inv: inv.invert(a))
        barrier, dataflow = runs["barrier"][0], runs["dataflow"][0]
        assert barrier.inverse.tobytes() == dataflow.inverse.tobytes()
        # record.steps appends in deterministic plan order under both modes.
        assert record_bytes(barrier.record) == record_bytes(dataflow.record)
        names = [row[0] for row in record_bytes(barrier.record)]
        assert any(n.startswith("combine:") for n in names) != separate_files
        assert dataflow.scheduler_report is not None
        assert barrier.scheduler_report is None

    @pytest.mark.parametrize("separate_files", [True, False])
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_manifests_identical_to_barrier(self, rng, executor, separate_files):
        a = random_invertible(rng, 16)
        runs = run_both(executor, separate_files, lambda inv: inv.invert(a))
        assert runs["barrier"][1] == runs["dataflow"][1]
        assert any("combine" in path for path in runs["barrier"][1]) != separate_files

    def test_invert_path_honours_schedule(self, rng):
        a = random_invertible(rng, 16)

        def op(inverter):
            inverter.runtime.dfs.write_bytes("/in/A.bin", formats.encode_matrix(a))
            return inverter.invert_path("/in/A.bin")

        runs = run_both("serial", True, op)
        (barrier, b_manifests), (dataflow, d_manifests) = (
            runs["barrier"], runs["dataflow"],
        )
        assert barrier.scheduler_report is None
        assert dataflow.scheduler_report is not None
        assert dataflow.scheduler_report.launch_order
        assert barrier.inverse.tobytes() == dataflow.inverse.tobytes()
        assert record_bytes(barrier.record) == record_bytes(dataflow.record)
        assert b_manifests == d_manifests

    def test_lu_honours_schedule(self, rng, monkeypatch):
        a = random_invertible(rng, 16)
        scheduled = []
        real_run = DataflowScheduler.run
        monkeypatch.setattr(
            DataflowScheduler,
            "run",
            lambda self: scheduled.append(1) or real_run(self),
        )
        runs = run_both("serial", True, lambda inv: inv.lu(a))
        assert len(scheduled) == 1  # the dataflow run, not the barrier one
        (barrier, b_manifests), (dataflow, d_manifests) = (
            runs["barrier"], runs["dataflow"],
        )
        assert barrier.lower.tobytes() == dataflow.lower.tobytes()
        assert barrier.upper.tobytes() == dataflow.upper.tobytes()
        assert barrier.perm.tobytes() == dataflow.perm.tobytes()
        assert record_bytes(barrier.record) == record_bytes(dataflow.record)
        assert b_manifests == d_manifests

    def test_resume_requires_output_commit(self, rng):
        a = random_invertible(rng, 8)
        cfg = InversionConfig(nb=2, m0=2, output_commit=False)
        with MatrixInverter(cfg, dfs=small_cluster()) as inverter:
            with pytest.raises(ValueError, match="output_commit"):
                inverter.invert(a, resume=True)

    def test_model_built_once_per_invert(self, rng, monkeypatch):
        """The dataflow runner takes unit ``needs`` from the model the
        pre-flight already built, and the pre-flight builds it once per
        ``(n, config)``: a second invert of the pair reuses it, though it
        still runs one pre-flight."""
        from collections import OrderedDict

        import repro.analysis as analysis
        import repro.analysis.cli as analysis_cli
        import repro.analysis.model as model_module
        import repro.analysis.planlint as planlint

        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        # Every binding a caller could reach the builder through
        # (preflight_check goes through lint_pipeline's, in cli).
        counted_build = counting(model_module.build_model)
        for module in (analysis, analysis_cli, model_module, planlint):
            monkeypatch.setattr(module, "build_model", counted_build)
        monkeypatch.setattr(
            analysis, "preflight_check", counting(analysis.preflight_check)
        )
        # An empty table: an earlier test may have run this pair already.
        monkeypatch.setattr(analysis, "_plans", OrderedDict())
        a = random_invertible(rng, 16)
        cfg = InversionConfig(nb=4, m0=2, schedule="dataflow")
        with MatrixInverter(cfg, dfs=small_cluster()) as inverter:
            result = inverter.invert(a)
        assert result.residual(a) < 1e-9
        assert calls.count("build_model") == 1
        assert calls.count("preflight_check") == 1
        with MatrixInverter(cfg, dfs=small_cluster()) as inverter:
            again = inverter.invert(a)
        np.testing.assert_array_equal(again.inverse, result.inverse)
        assert calls.count("build_model") == 1
        assert calls.count("preflight_check") == 2

    def test_dataflow_requires_output_commit(self):
        with pytest.raises(ValueError, match="output_commit"):
            InversionConfig(nb=4, m0=2, schedule="dataflow", output_commit=False)

    def test_achieved_schedule_matches_predicted_critical_path(self, rng):
        """Every dynamic edge the scheduler observed is a static DAG edge,
        and the launch order is a topological order of the analyzer's DAG —
        the runtime schedule realizes exactly the structure the barrier-slack
        report predicted, with dataflow's sync-point count."""
        a = random_invertible(rng, 16)
        cfg = InversionConfig(nb=4, m0=2, schedule="dataflow")
        with MatrixInverter(cfg, dfs=small_cluster()) as inverter:
            result = inverter.invert(a)
        model = build_model(16, InversionConfig(nb=4, m0=2))
        dag = build_block_dag(model)
        report = result.scheduler_report

        step_unit = {
            s.name: s.job if s.job is not None else s.name
            for s in model.steps
        }
        launched_at = {name: i for i, name in enumerate(report.launch_order)}

        # Every dynamic (observed) release edge crosses between units in a
        # direction the static DAG predicts: the releasing producer's unit
        # launched before the released unit.
        dynamic = report.dynamic_edges(dag)
        assert dynamic, "a chain pipeline must have publish-released units"
        for producer_step, released_unit in dynamic:
            pu = step_unit[producer_step]
            assert launched_at[pu] < launched_at[released_unit], (
                pu, released_unit,
            )

        # Strong check: the launch order is a topological order of the
        # static block DAG — no unit launches before a unit it depends on.
        for edge in dag.edges():
            su, du = step_unit[edge.src], step_unit[edge.dst]
            if su == du or su not in launched_at or du not in launched_at:
                continue
            assert launched_at[su] < launched_at[du], (su, du)

        # The analyzer's sync-point claim holds for the achieved schedule:
        # the scheduler ran all stages with zero global barriers.
        slack = barrier_slack_data(model, dag)
        units_run = len(report.launch_order) + len(report.skipped)
        # write-input and collect-output run outside the scheduler; jobs
        # collapse their map+reduce stages into one unit.
        expected_units = len(
            {
                step_unit[s.name]
                for s in model.steps
                if s.name not in ("write-input", "collect-output")
            }
        )
        assert units_run == expected_units
        assert slack["sync_points"]["dataflow"] == slack["stages"]

    def test_crash_between_sibling_subtrees_resumes(self, rng):
        a = random_invertible(rng, 8)
        dfs = small_cluster()
        cfg = InversionConfig(nb=2, m0=2, schedule="dataflow", executor="threads")

        def hook(op, path):
            if op == "create" and "/Root/OUT/A1" in path:
                dfs.fault_hooks.remove(hook)
                raise DriverCrashError(f"injected crash at {op} {path}")

        dfs.fault_hooks.append(hook)
        with MatrixInverter(cfg, dfs=dfs) as first:
            with pytest.raises(DriverCrashError):
                first.invert(a)
        # A new driver on the same cluster resumes.
        with MatrixInverter(cfg, dfs=dfs) as second:
            result = second.invert(a, resume=True)
        assert result.residual(a) < 1e-9
        # The first subtree's committed work was skipped, not re-run.
        assert "lu:/Root/A1" in result.scheduler_report.skipped
        assert "master-lu:/Root/OUT/A1" in result.scheduler_report.launch_order

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_backends_run_dataflow(self, rng, executor):
        a = random_invertible(rng, 16)
        cfg = InversionConfig(nb=4, m0=2, schedule="dataflow", executor=executor)
        with MatrixInverter(cfg, dfs=small_cluster()) as inverter:
            result = inverter.invert(a)
        assert result.residual(a) < 1e-9
        assert result.scheduler_report.launch_order
