"""Job-history reporting and heterogeneous-cluster replay."""

import numpy as np
import pytest

from repro import InversionConfig, MatrixInverter
from repro.cluster import ClusterSpec, ScaleFactors, simulate_record
from repro.cluster.simulator import node_speed_factors
from repro.mapreduce import FailOnce, TaskKind
from repro.telemetry import HistoryReport

from conftest import random_invertible


@pytest.fixture(scope="module")
def executed():
    rng = np.random.default_rng(3)
    a = rng.random((96, 96)) + 0.1 * np.eye(96)
    with MatrixInverter(InversionConfig(nb=24, m0=4)) as inv:
        result = inv.invert(a)
    return inv.runtime, result


class TestHistory:
    def test_one_summary_per_job(self, executed):
        rt, result = executed
        report = HistoryReport.of(rt.history)
        assert len(report.jobs) == result.num_jobs

    def test_totals_match_traces(self, executed):
        rt, result = executed
        report = HistoryReport.of(rt.history)
        expected = sum(t.bytes_read for t in result.record.all_traces())
        assert report.total_bytes_read == expected

    def test_format_contains_job_names(self, executed):
        rt, _ = executed
        text = HistoryReport.of(rt.history).format()
        assert "partition" in text and "invert-final" in text
        assert "totals:" in text

    def test_failures_reported(self):
        policy = FailOnce(
            job_substring="invert-final", kind=TaskKind.MAP, task_index=0
        )
        rng = np.random.default_rng(4)
        a = rng.random((48, 48)) + 0.1 * np.eye(48)
        with MatrixInverter(InversionConfig(nb=16, m0=4), fault_policy=policy) as inv:
            inv.invert(a)
        report = HistoryReport.of(inv.runtime.history)
        assert report.total_failed_attempts == 1


class TestHeterogeneity:
    def test_factors_mean_one(self):
        f = node_speed_factors(32, 0.3, seed=5)
        assert np.mean(f) == pytest.approx(1.0)
        assert np.std(f) > 0

    def test_zero_variance_homogeneous(self):
        assert node_speed_factors(8, 0.0) == [1.0] * 8

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            node_speed_factors(4, -0.1)

    def test_deterministic_by_seed(self):
        assert node_speed_factors(16, 0.2, seed=1) == node_speed_factors(16, 0.2, seed=1)
        assert node_speed_factors(16, 0.2, seed=1) != node_speed_factors(16, 0.2, seed=2)

    def test_speculation_reduces_straggler_penalty(self):
        """Duplicating the wave's straggler on a faster node cuts the
        heterogeneous makespan (Hadoop's speculative execution, which the
        paper's Section 7.4 run benefited from)."""
        from repro.cluster.simulator import SimulatedJob
        from repro.mapreduce.pipeline import PipelineRecord
        from repro.mapreduce.types import JobId, JobResult, TaskKind, TaskTrace

        job = JobResult(
            job_id=JobId(1),
            name="j",
            succeeded=True,
            map_traces=[
                TaskTrace(attempt="t", kind=TaskKind.MAP, flops=5e8)
                for _ in range(4)
            ],
        )
        cluster = ClusterSpec(num_nodes=4, job_launch_overhead=0.0)
        record = PipelineRecord(steps=[job])
        plain = simulate_record(
            record, cluster, speed_variance=0.8, speed_seed=3
        ).makespan
        spec = simulate_record(
            record, cluster, speed_variance=0.8, speed_seed=3, speculative=True
        ).makespan
        assert spec < plain

    def test_speculation_noop_on_homogeneous(self):
        from repro.mapreduce.pipeline import PipelineRecord
        from repro.mapreduce.types import JobId, JobResult, TaskKind, TaskTrace

        job = JobResult(
            job_id=JobId(1),
            name="j",
            succeeded=True,
            map_traces=[
                TaskTrace(attempt="t", kind=TaskKind.MAP, flops=5e8)
                for _ in range(4)
            ],
        )
        cluster = ClusterSpec(num_nodes=4, job_launch_overhead=0.0)
        record = PipelineRecord(steps=[job])
        plain = simulate_record(record, cluster).makespan
        spec = simulate_record(record, cluster, speculative=True).makespan
        assert spec == pytest.approx(plain)

    def test_variance_slows_makespan(self, executed):
        """Section 7.4's observation: high instance variance stretches runs —
        but wave scheduling absorbs part of it (fast nodes take more tasks),
        so the penalty is far below the slowest node's slowdown."""
        _, result = executed
        cluster = ClusterSpec(num_nodes=4, job_launch_overhead=0.0)
        scale = ScaleFactors(flops=1e6, bytes=1e2)
        t_hom = simulate_record(result.record, cluster, scale).makespan
        t_het = simulate_record(
            result.record, cluster, scale, speed_variance=0.4, speed_seed=7
        ).makespan
        assert t_het > t_hom
        slowest = min(node_speed_factors(4, 0.4, seed=7))
        assert t_het < t_hom / slowest  # scheduling absorbs part of the skew
