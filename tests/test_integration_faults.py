"""Cross-layer fault integration: DFS failures during pipeline runs."""

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.dfs import DFS
from repro.mapreduce import MapReduceRuntime

from conftest import random_invertible


def fresh_runtime(num_datanodes=6, replication=3):
    dfs = DFS(num_datanodes=num_datanodes, replication=replication, seed=13)
    return MapReduceRuntime(dfs=dfs)


class TestDatanodeFailures:
    def test_inversion_survives_datanode_death_between_jobs(self, rng):
        """Kill a datanode after the LU stage wrote its factors; replication
        keeps every factor file readable and the final job completes."""
        rt = fresh_runtime()
        a = random_invertible(rng, 64)
        cfg = InversionConfig(nb=16, m0=4)

        from repro.inversion import MatrixInverter

        inv = MatrixInverter(cfg, runtime=rt)
        factors = inv.lu(a)  # LU stage on DFS
        rt.dfs.blocks.kill_datanode(0)
        result = inv.invert(a)  # full run (re-ingests input, reuses cluster)
        assert result.residual(a) < 1e-9
        rt.shutdown()

    def test_inversion_survives_death_plus_rereplication_cycle(self, rng):
        rt = fresh_runtime()
        a = random_invertible(rng, 48)
        result = invert(a, InversionConfig(nb=16, m0=4), runtime=rt)
        rt.dfs.blocks.kill_datanode(1)
        rt.dfs.rereplicate_all()
        rt.dfs.blocks.kill_datanode(2)
        # All pipeline outputs still readable: re-verify from DFS state.
        from repro.inversion import MatrixInverter

        inv = MatrixInverter(InversionConfig(nb=16, m0=4), runtime=rt)
        assert inv.distributed_residual(result) < 1e-9
        rt.shutdown()

    def test_corrupted_replica_transparently_skipped(self, rng):
        """Corrupt one replica of the input matrix mid-run; checksums route
        reads to a healthy copy and the result is unaffected."""
        rt = fresh_runtime()
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        first = invert(a, cfg, runtime=rt)
        entry = rt.dfs.namenode.get_file(first.layout.input_path)
        info = entry.blocks[0]
        assert rt.dfs.blocks.corrupt_replica(info, info.replicas[0])
        from repro.inversion import MatrixInverter

        inv = MatrixInverter(cfg, runtime=rt)
        assert inv.distributed_residual(first) < 1e-9
        rt.shutdown()

    def test_total_replica_loss_fails_job_cleanly(self, rng):
        """Losing every replica of a factor file makes dependent tasks fail
        permanently — surfaced as JobFailedError, not silent corruption."""
        from repro.mapreduce import JobFailedError
        from repro.inversion import MatrixInverter

        rt = fresh_runtime(num_datanodes=3, replication=2)
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        inv = MatrixInverter(cfg, runtime=rt)
        result = inv.invert(a)
        # Destroy all replicas of one final-output block.
        entry = rt.dfs.namenode.get_file(result.layout.final_path(0))
        for info in entry.blocks:
            for node in info.replicas:
                rt.dfs.blocks.datanodes[node].drop(info.block_id)
        # Drop the decoded-block cache: it would (correctly) still serve the
        # file from memory; this test pins the *DFS* failure surface.
        rt.dfs.detach_cache()
        with pytest.raises(JobFailedError):
            inv.distributed_residual(result)
        rt.shutdown()


class TestThreadedFaults:
    def test_threaded_runtime_with_task_failures(self, rng):
        from repro.mapreduce import FailOnce, RuntimeConfig, TaskKind

        policy = FailOnce(job_substring="lu:", kind=TaskKind.MAP, task_index=2)
        rt = MapReduceRuntime(
            config=RuntimeConfig(num_workers=4, executor="threads"),
            fault_policy=policy,
        )
        a = random_invertible(rng, 64)
        result = invert(a, InversionConfig(nb=16, m0=4), runtime=rt)
        assert result.residual(a) < 1e-9
        # FailOnce matches by job-name substring, so every LU job loses its
        # map task #2 once and recovers.
        lu_jobs = [j for j in result.record.job_results if j.name.startswith("lu:")]
        failed = sum(j.attempts_failed for j in result.record.job_results)
        assert failed == len(lu_jobs) >= 1
        rt.shutdown()

    def test_speculative_threaded_pipeline(self, rng):
        from repro.mapreduce import DelayAttempt, RetryPolicy, RuntimeConfig

        # Every task's first attempt hangs past the deadline, so every retry
        # wave hedges each task with two copies.
        rt = MapReduceRuntime(
            config=RuntimeConfig(num_workers=4, executor="threads"),
            fault_policy=DelayAttempt(seconds=0.3),
        )
        a = random_invertible(rng, 48)
        cfg = InversionConfig(
            nb=16, m0=4, retry=RetryPolicy(attempt_deadline=0.1)
        )
        result = invert(a, cfg, runtime=rt)
        assert result.residual(a) < 1e-9
        total_tasks = sum(
            len(j.map_traces) + len(j.reduce_traces)
            for j in result.record.job_results
        )
        timed_out = sum(j.attempts_timed_out for j in result.record.job_results)
        launched = sum(j.attempts_launched for j in result.record.job_results)
        assert timed_out == total_tasks
        assert launched == 3 * total_tasks
        rt.shutdown()
