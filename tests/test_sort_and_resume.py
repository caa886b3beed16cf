"""Distributed sort (custom partitioner), pipeline resume, distributed solve,
and the Gantt renderer."""

import numpy as np
import pytest

from repro import InversionConfig
from repro.inversion import MatrixInverter
from repro.mapreduce import FailNever, JobFailedError, MapReduceRuntime, TaskKind
from repro.mapreduce.faults import FailAlways
from repro.mapreduce.sort import (
    RangePartitioner,
    distributed_sort,
    sample_split_points,
)

from conftest import random_invertible


class TestRangePartitioner:
    def test_split_points_ordered(self):
        pts = sample_split_points(list(range(100)), 4)
        assert pts == sorted(pts)
        assert len(pts) == 3

    def test_single_partition_no_points(self):
        assert sample_split_points([3, 1, 2], 1) == []

    def test_routing_respects_ranges(self):
        p = RangePartitioner([10, 20])
        assert p(5, 3) == 0
        assert p(10, 3) == 1
        assert p(15, 3) == 1
        assert p(25, 3) == 2

    def test_too_many_points_rejected(self):
        with pytest.raises(ValueError):
            RangePartitioner([1, 2, 3])(0, 2)


class TestDistributedSort:
    def test_sorts_integers(self, runtime, rng):
        data = rng.integers(0, 10_000, 500).tolist()
        assert distributed_sort(runtime, data) == sorted(data)

    def test_sorts_strings(self, runtime):
        data = ["pear", "apple", "fig", "banana", "date", "cherry"]
        assert distributed_sort(runtime, data, num_partitions=2) == sorted(data)

    def test_skewed_input(self, runtime):
        data = [1] * 100 + [2] * 5 + list(range(100, 120))
        assert distributed_sort(runtime, data, num_partitions=3) == sorted(data)

    def test_empty(self, runtime):
        assert distributed_sort(runtime, []) == []

    def test_more_partitions_than_keys(self, runtime):
        assert distributed_sort(runtime, [2, 1], num_partitions=8) == [1, 2]


class TestResume:
    def _crash_then_resume(self, rng, crash_job_prefix):
        a = random_invertible(rng, 96)
        cfg = InversionConfig(nb=24, m0=4)

        class FailJob(FailAlways):
            def should_fail(self, attempt):
                return (self.job_name or "").startswith(
                    crash_job_prefix
                ) and super().should_fail(attempt)

        rt = MapReduceRuntime(
            fault_policy=FailJob(kind=TaskKind.REDUCE, task_index=0)
        )
        inv = MatrixInverter(cfg, runtime=rt)
        with pytest.raises(JobFailedError):
            inv.invert(a)
        jobs_at_crash = len(rt.history)
        # "New driver" on the same cluster: disable the fault, resume.
        rt._tracker.fault_policy = FailNever()
        result = MatrixInverter(cfg, runtime=rt).invert(a, resume=True)
        jobs_resumed = len(rt.history) - jobs_at_crash
        rt.shutdown()
        return a, result, jobs_resumed

    def test_resume_after_late_crash_skips_completed_work(self, rng):
        a, result, jobs_resumed = self._crash_then_resume(rng, "lu:/Root/OUT")
        assert result.residual(a) < 1e-9
        assert jobs_resumed < result.plan.num_jobs

    def test_resume_after_early_crash_redoes_most(self, rng):
        a, result, jobs_resumed = self._crash_then_resume(rng, "lu:/Root/A1")
        assert result.residual(a) < 1e-9

    def test_resume_of_untouched_root_runs_everything(self, rng):
        rt = MapReduceRuntime()
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        result = MatrixInverter(cfg, runtime=rt).invert(a, resume=True)
        assert result.residual(a) < 1e-9
        assert result.num_jobs == result.plan.num_jobs
        rt.shutdown()

    def test_resume_rejects_different_matrix_order(self, rng):
        rt = MapReduceRuntime()
        cfg = InversionConfig(nb=16, m0=4)
        MatrixInverter(cfg, runtime=rt).invert(random_invertible(rng, 48))
        with pytest.raises(ValueError, match="resume"):
            MatrixInverter(cfg, runtime=rt).invert(
                random_invertible(rng, 64), resume=True
            )
        rt.shutdown()


class TestDistributedSolve:
    def test_vector_rhs(self, rng):
        a = random_invertible(rng, 48)
        x_true = rng.standard_normal(48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            x = inv.solve(a, a @ x_true)
        assert np.allclose(x, x_true, atol=1e-8)

    def test_matrix_rhs(self, rng):
        a = random_invertible(rng, 32)
        b = rng.standard_normal((32, 5))
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inv:
            x = inv.solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_shape_mismatch(self, rng):
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inv:
            with pytest.raises(ValueError, match="rhs"):
                inv.solve(random_invertible(rng, 16), np.zeros(17))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected_before_any_write(self, rng, bad):
        a = random_invertible(rng, 16)
        b = np.ones((16, 3))
        b[5, 2] = bad
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inv:
            before = inv.runtime.dfs.stats.snapshot()
            with pytest.raises(ValueError, match=r"rhs .*\(row 5, col 2\)"):
                inv.solve(a, b)
            assert inv.runtime.dfs.stats.snapshot() == before
            assert inv.runtime.history == []

    def test_rhs_of_wrong_rank_rejected(self, rng):
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inv:
            with pytest.raises(ValueError, match="rhs"):
                inv.solve(random_invertible(rng, 16), np.zeros((16, 2, 2)))
            assert inv.runtime.history == []

    def test_product_runs_on_the_driver(self, rng):
        """The driver already holds the assembled inverse: ``A^-1 b`` is one
        product there, not a write-back to the DFS and more jobs."""
        rt = MapReduceRuntime()
        a = random_invertible(rng, 32)
        inv = MatrixInverter(InversionConfig(nb=8, m0=4), runtime=rt)
        x = inv.solve(a, np.ones(32))
        assert np.allclose(a @ x, np.ones(32), atol=1e-8)
        assert not any(j.name.startswith("multiply:") for j in rt.history)
        assert not rt.dfs.exists("/solve")
        rt.shutdown()


class TestGantt:
    def test_gantt_renders_all_jobs(self, rng):
        from repro.cluster import ClusterSpec, ScaleFactors, simulate_record

        rt = MapReduceRuntime()
        a = random_invertible(rng, 48)
        result = MatrixInverter(InversionConfig(nb=16, m0=4), runtime=rt).invert(a)
        report = simulate_record(
            result.record, ClusterSpec(4), ScaleFactors(flops=1e5, bytes=10)
        )
        text = report.gantt()
        assert text.count("|") >= 2 * result.num_jobs
        assert "invert-final" in text
        assert "=" in text and "#" in text
        rt.shutdown()

    def test_gantt_empty(self):
        from repro.cluster.simulator import SimulationReport

        assert SimulationReport(makespan=0.0).gantt() == "(no jobs)"
