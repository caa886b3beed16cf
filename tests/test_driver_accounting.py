"""Driver-side accounting: MasterIO, master phases, pipeline records, and
the InversionResult surface."""

import copy

import numpy as np
import pytest

from repro import InversionConfig
from repro.dfs import formats
from repro.dfs.commit import CommitLog
from repro.inversion import MatrixInverter
from repro.inversion.driver import MasterIO
from repro.inversion.invert_job import invert_job
from repro.inversion.layout import Layout
from repro.inversion.lu_jobs import lu_job, partition_job
from repro.inversion.plan import InversionPlan
from repro.inversion.verify_job import verify_job
from repro.mapreduce import (
    FnMapper,
    JobConf,
    MapReduceRuntime,
    RetryPolicy,
    splits_for_workers,
)
from repro.mapreduce.pipeline import MasterPhase, Pipeline

from conftest import random_invertible


class TestMasterIO:
    def test_counts_reads_and_writes(self, dfs, rng):
        io = MasterIO(dfs)
        m = rng.standard_normal((4, 4))
        io.write_bytes("/m", formats.encode_matrix(m))
        assert io.bytes_written == len(formats.encode_matrix(m))
        out = io.read_matrix("/m")
        assert np.array_equal(out, m)
        assert io.bytes_read == io.bytes_written

    def test_take_io_resets(self, dfs):
        io = MasterIO(dfs)
        io.write_bytes("/x", b"abc")
        r, w = io.take_io()
        assert (r, w) == (0, 3)
        assert io.take_io() == (0, 0)

    def test_read_rows_accounts_range_only(self, dfs, rng):
        io = MasterIO(dfs)
        m = rng.standard_normal((100, 10))
        formats.write_matrix(dfs, "/m", m)
        io.read_rows("/m", 0, 10)
        assert io.bytes_read == 10 * 10 * 8

    def test_exists_passthrough(self, dfs):
        io = MasterIO(dfs)
        assert not io.exists("/nope")
        io.write_bytes("/yes", b"1")
        assert io.exists("/yes")


class TestCompleteConfs:
    """A job's run policy is attached once, where the conf is built; nothing
    downstream re-stamps it."""

    def test_every_builder_carries_the_runs_policy(self):
        cfg = InversionConfig(
            nb=8,
            m0=4,
            retry=RetryPolicy(max_attempts=7, attempt_deadline=3.0),
            output_commit=False,
        )
        plan = InversionPlan(n=32, nb=8, m0=4, root=cfg.root)
        layout = Layout(plan, cfg, 32)
        confs = [
            partition_job(layout),
            lu_job(layout, plan.tree),
            invert_job(layout),
            verify_job(layout),
        ]
        for conf in confs:
            assert conf.retry is cfg.retry, conf.name
            assert conf.output_commit is False, conf.name

    def test_pipeline_leaves_the_conf_it_was_given_untouched(self, dfs):
        conf = JobConf(
            name="probe",
            mapper_factory=lambda: FnMapper(
                lambda ctx, split: ctx.write_text(f"/out/{split.index}", "x")
            ),
            splits=splits_for_workers(2),
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            output_commit=False,
        )
        before = copy.deepcopy(conf)
        with MapReduceRuntime(dfs=dfs) as rt:
            pipeline = Pipeline(rt, commit_log=CommitLog(dfs, "/Root"))
            pipeline.run_job(conf)
        assert conf == before
        assert pipeline.commit_log.committed("job:probe")


class TestPipelineRecord:
    def test_master_phase_durations_recorded(self, dfs):
        rt = MapReduceRuntime(dfs=dfs)
        pipeline = Pipeline(rt)
        out = pipeline.master_phase("phase-a", lambda: 42, flops=100.0)
        assert out == 42
        phase = pipeline.record.master_phases[0]
        assert phase.name == "phase-a"
        assert phase.flops == 100.0
        assert phase.wall_seconds >= 0
        rt.shutdown()

    def test_total_wall_seconds_sums_steps(self, rng):
        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            result = inv.invert(a)
        total = result.record.total_wall_seconds()
        parts = sum(j.wall_seconds for j in result.record.job_results) + sum(
            p.wall_seconds for p in result.record.master_phases
        )
        assert total == pytest.approx(parts)

    def test_all_traces_cover_every_task(self, rng):
        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            result = inv.invert(a)
        expected = sum(
            len(j.map_traces) + len(j.reduce_traces)
            for j in result.record.job_results
        )
        assert len(result.record.all_traces()) == expected

    def test_master_phases_have_io_attributed(self, rng):
        """write-input, master-lu, and collect-output phases carry the byte
        counts the cluster simulator bills to the master node."""
        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            result = inv.invert(a)
        by_name = {p.name.split(":")[0]: p for p in result.record.master_phases}
        assert by_name["write-input"].bytes_written >= a.nbytes
        assert by_name["collect-output"].bytes_read >= a.nbytes
        lu_phases = [
            p for p in result.record.master_phases if p.name.startswith("master-lu")
        ]
        assert lu_phases and all(p.flops > 0 for p in lu_phases)
        assert all(p.bytes_read > 0 and p.bytes_written > 0 for p in lu_phases)


class TestInversionResultSurface:
    @pytest.fixture(scope="class")
    def result_and_matrix(self):
        rng = np.random.default_rng(99)
        a = rng.random((64, 64)) + 0.1 * np.eye(64)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            return inv.invert(a), a

    def test_io_snapshot_consistency(self, result_and_matrix):
        result, a = result_and_matrix
        # Written bytes include 3x replication of everything materialized.
        assert result.io.bytes_written >= 3 * a.nbytes
        assert result.io.files_created > result.num_jobs

    def test_total_flops_positive_and_dominated_by_tasks(self, result_and_matrix):
        result, _ = result_and_matrix
        task_flops = sum(t.flops for t in result.record.all_traces())
        assert 0 < task_flops < result.total_flops()

    def test_plan_and_layout_consistent(self, result_and_matrix):
        result, a = result_and_matrix
        assert result.plan.n == a.shape[0]
        assert result.layout.plan is result.plan
        assert result.config.nb == 16

    def test_residual_helper_matches_manual(self, result_and_matrix):
        result, a = result_and_matrix
        manual = float(np.max(np.abs(np.eye(64) - a @ result.inverse)))
        assert result.residual(a) == pytest.approx(manual)


class TestRunIsReleased:
    @pytest.mark.parametrize("schedule", ["barrier", "dataflow"])
    def test_finished_run_holds_no_reference_cycle(self, rng, schedule):
        """A finished run must die by refcount: a cycle through the unit
        closures would keep its runtime — every DFS block of it — alive
        until the cyclic collector ran, which repeated ``invert`` calls pay
        as peak RSS (+46% on the benchmark's kernel_n1536 when it happened)."""
        import gc
        import weakref

        a = random_invertible(rng, 32)
        gc.collect()
        gc.disable()
        try:
            inverter = MatrixInverter(InversionConfig(nb=8, m0=2, schedule=schedule))
            result = inverter.invert(a)
            dfs_ref = weakref.ref(inverter.runtime.dfs)
            inverter.close()
            assert result.residual(a) < 1e-9
            del inverter, result
            assert dfs_ref() is None
        finally:
            gc.enable()

    def test_invert_leaves_no_cyclic_garbage(self, rng):
        """Plan building, plan lint and the dataflow cycle check walk the
        recursion tree without self-referencing closures: a nested function
        that calls itself is a cycle through its cell, and every plan or
        layout object it captured would wait for the cyclic collector."""
        import gc

        from repro import invert

        a = random_invertible(rng, 32)
        config = InversionConfig(nb=8, m0=2)
        invert(a, config)  # warm-up: module-level caches are not garbage
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = invert(a, config)
            assert result.residual(a) < 1e-9
            del result
            gc.collect()
            kept = sorted({type(obj).__name__ for obj in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        plan_types = {"Layout", "InversionPlan", "PlanNode", "NodeLayout", "BlockRef", "Region"}
        assert plan_types.isdisjoint(kept), kept
