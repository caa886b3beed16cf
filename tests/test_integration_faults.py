"""Cross-layer fault integration: DFS failures during pipeline runs."""

import numpy as np
import pytest

from repro import InversionConfig
from repro.dfs import DFS
from repro.inversion import MatrixInverter

from conftest import random_invertible


def fresh_cluster(num_datanodes=6, replication=3):
    return DFS(num_datanodes=num_datanodes, replication=replication, seed=13)


class TestDatanodeFailures:
    def test_inversion_survives_datanode_death_between_jobs(self, rng):
        """Kill a datanode after the LU stage wrote its factors; replication
        keeps every factor file readable and the final job completes."""
        dfs = fresh_cluster()
        a = random_invertible(rng, 64)
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg, dfs=dfs) as inv:
            inv.lu(a)  # LU stage on DFS
            dfs.blocks.kill_datanode(0)
            result = inv.invert(a)  # full run (re-ingests input, reuses cluster)
        assert result.residual(a) < 1e-9

    def test_inversion_survives_death_plus_rereplication_cycle(self, rng):
        dfs = fresh_cluster()
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg, dfs=dfs) as first:
            result = first.invert(a)
        dfs.blocks.kill_datanode(1)
        dfs.health_monitor().repair()
        dfs.blocks.kill_datanode(2)
        # All pipeline outputs still readable: a new driver re-verifies from
        # DFS state.
        with MatrixInverter(cfg, dfs=dfs) as inv:
            assert inv.distributed_residual(result) < 1e-9

    def test_corrupted_replica_transparently_skipped(self, rng):
        """Corrupt one replica of the input matrix mid-run; checksums route
        reads to a healthy copy and the result is unaffected."""
        dfs = fresh_cluster()
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg, dfs=dfs) as driver:
            first = driver.invert(a)
        entry = dfs.namenode.get_file(first.layout.input_path)
        info = entry.blocks[0]
        assert dfs.blocks.corrupt_replica(info, info.replicas[0])
        with MatrixInverter(cfg, dfs=dfs) as inv:
            assert inv.distributed_residual(first) < 1e-9

    def test_total_replica_loss_fails_job_cleanly(self, rng):
        """Losing every replica of a factor file makes dependent tasks fail
        permanently — surfaced as JobFailedError, not silent corruption."""
        from repro.mapreduce import JobFailedError

        dfs = fresh_cluster(num_datanodes=3, replication=2)
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4)
        with MatrixInverter(cfg, dfs=dfs) as inv:
            result = inv.invert(a)
            # Destroy all replicas of one final-output block.
            entry = dfs.namenode.get_file(result.layout.final_path(0))
            for info in entry.blocks:
                for node in info.replicas:
                    dfs.blocks.datanodes[node].drop(info.block_id)
            # Drop the decoded-block cache: it would (correctly) still serve
            # the file from memory; this test pins the *DFS* failure surface.
            dfs.detach_cache()
            with pytest.raises(JobFailedError):
                inv.distributed_residual(result)


class TestThreadedFaults:
    def test_threaded_runtime_with_task_failures(self, rng):
        from repro.mapreduce import FailOnce, TaskKind

        policy = FailOnce(job_substring="lu:", kind=TaskKind.MAP, task_index=2)
        cfg = InversionConfig(nb=16, m0=4, executor="threads")
        a = random_invertible(rng, 64)
        with MatrixInverter(cfg, fault_policy=policy) as inv:
            result = inv.invert(a)
        assert result.residual(a) < 1e-9
        # FailOnce matches by job-name substring, so every LU job loses its
        # map task #2 once and recovers.
        lu_jobs = [j for j in result.record.job_results if j.name.startswith("lu:")]
        failed = sum(j.attempts_failed for j in result.record.job_results)
        assert failed == len(lu_jobs) >= 1

    def test_speculative_threaded_pipeline(self, rng):
        from repro.mapreduce import DelayAttempt, RetryPolicy

        # Every task's first attempt hangs past the deadline, so every retry
        # wave hedges each task with two copies.
        a = random_invertible(rng, 48)
        cfg = InversionConfig(
            nb=16,
            m0=4,
            retry=RetryPolicy(attempt_deadline=0.1),
            executor="threads",
        )
        with MatrixInverter(cfg, fault_policy=DelayAttempt(seconds=0.3)) as inv:
            result = inv.invert(a)
        assert result.residual(a) < 1e-9
        total_tasks = sum(
            len(j.map_traces) + len(j.reduce_traces)
            for j in result.record.job_results
        )
        timed_out = sum(j.attempts_timed_out for j in result.record.job_results)
        launched = sum(j.attempts_launched for j in result.record.job_results)
        assert timed_out == total_tasks
        assert launched == 3 * total_tasks
