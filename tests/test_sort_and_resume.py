"""Pipeline resume, distributed solve, and the Gantt renderer."""

import numpy as np
import pytest

from repro import InversionConfig
from repro.inversion import MatrixInverter
from repro.mapreduce import JobFailedError, TaskKind
from repro.mapreduce.faults import FailAlways

from conftest import random_invertible


class TestResume:
    def _crash_then_resume(self, rng, crash_job_prefix):
        a = random_invertible(rng, 96)
        cfg = InversionConfig(nb=24, m0=4)

        class FailJob(FailAlways):
            def should_fail(self, attempt):
                return self.job_name_for(attempt).startswith(
                    crash_job_prefix
                ) and super().should_fail(attempt)

        policy = FailJob(kind=TaskKind.REDUCE, task_index=0)
        with MatrixInverter(cfg, fault_policy=policy) as first:
            with pytest.raises(JobFailedError):
                first.invert(a)
        # A new driver on the same cluster, without the fault, resumes.
        with MatrixInverter(cfg, dfs=first.runtime.dfs) as second:
            result = second.invert(a, resume=True)
        return a, result, len(second.runtime.history)

    def test_resume_after_late_crash_skips_completed_work(self, rng):
        a, result, jobs_resumed = self._crash_then_resume(rng, "lu:/Root/OUT")
        assert result.residual(a) < 1e-9
        assert jobs_resumed < result.plan.num_jobs

    def test_resume_after_early_crash_redoes_most(self, rng):
        a, result, jobs_resumed = self._crash_then_resume(rng, "lu:/Root/A1")
        assert result.residual(a) < 1e-9

    def test_resume_of_untouched_root_runs_everything(self, rng):
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg) as inv:
            result = inv.invert(a, resume=True)
        assert result.residual(a) < 1e-9
        assert result.num_jobs == result.plan.num_jobs

    def test_resume_rejects_different_matrix_order(self, rng):
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg) as first:
            first.invert(random_invertible(rng, 48))
        with MatrixInverter(cfg, dfs=first.runtime.dfs) as second:
            with pytest.raises(ValueError, match="resume"):
                second.invert(random_invertible(rng, 64), resume=True)

    def test_resume_shape_check_names_both_shapes(self, rng):
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg) as first:
            first.invert(random_invertible(rng, 32))
        with MatrixInverter(cfg, dfs=first.runtime.dfs) as second:
            with pytest.raises(
                ValueError,
                match=r"^cannot resume: stored input is \(32, 32\), "
                r"new input is \(48, 48\)$",
            ):
                second.invert(random_invertible(rng, 48), resume=True)


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
        a = random_invertible(rng, 32)
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inv:
            x = inv.solve(a, np.ones(32))
        rt = inv.runtime
        assert np.allclose(a @ x, np.ones(32), atol=1e-8)
        assert not any(j.name.startswith("multiply:") for j in rt.history)
        assert not rt.dfs.exists("/solve")


class TestGantt:
    def test_gantt_renders_all_jobs(self, rng):
        from repro.cluster import ClusterSpec, ScaleFactors, simulate_record

        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            result = inv.invert(a)
        report = simulate_record(
            result.record, ClusterSpec(4), ScaleFactors(flops=1e5, bytes=10)
        )
        text = report.gantt()
        assert text.count("|") >= 2 * result.num_jobs
        assert "invert-final" in text
        assert "=" in text and "#" in text

    def test_gantt_empty(self):
        from repro.cluster.simulator import SimulationReport

        assert SimulationReport(makespan=0.0).gantt() == "(no jobs)"
