"""Fault tolerance: retries, permanent failures, the hedged retry of a
timed-out task."""

import dataclasses

import pytest

from repro import observe
from repro.mapreduce import (
    ComposedFaults,
    DelayAttempt,
    FailAlways,
    FailNever,
    FailOnce,
    FailRandomly,
    FnMapper,
    InputSplit,
    JobConf,
    JobFailedError,
    MapReduceRuntime,
    Mapper,
    Reducer,
    RetryPolicy,
    TaskKind,
    splits_for_workers,
)
from repro.mapreduce.counters import FAILED_MAPS, LAUNCHED_MAPS, TASK_GROUP
from repro.telemetry.spans import SpanKind


class EchoMapper(Mapper):
    def map(self, ctx, split):
        ctx.emit(split.payload, split.payload)


class PassReducer(Reducer):
    def reduce(self, ctx, key, values):
        ctx.emit(key, list(values))


def simple_conf(num_workers=3, max_attempts=4):
    return JobConf(
        name="echo-job",
        mapper_factory=EchoMapper,
        reducer_factory=PassReducer,
        splits=splits_for_workers(num_workers),
        num_reduce_tasks=num_workers,
        retry=RetryPolicy(max_attempts=max_attempts),
    )


def runtime_with(dfs, policy, **cfg):
    return MapReduceRuntime(dfs=dfs, **cfg, fault_policy=policy)


class TestRetry:
    def test_fail_once_map_recovers(self, dfs):
        policy = FailOnce(job_substring="echo", kind=TaskKind.MAP, task_index=1)
        rt = runtime_with(dfs, policy)
        result = rt.run_job(simple_conf())
        assert result.succeeded
        assert result.attempts_failed == 1
        assert result.counters.value(TASK_GROUP, FAILED_MAPS) == 1
        # Retried task's output appears exactly once.
        assert result.reduce_outputs[1] == [(1, [1])]

    def test_fail_once_reduce_recovers(self, dfs):
        policy = FailOnce(job_substring="echo", kind=TaskKind.REDUCE, task_index=0)
        rt = runtime_with(dfs, policy)
        result = rt.run_job(simple_conf())
        assert result.succeeded
        assert result.attempts_failed == 1

    def test_fail_twice_still_recovers_within_attempts(self, dfs):
        p0 = FailOnce(job_substring="echo", kind=TaskKind.MAP, task_index=0, failing_attempt=0)
        # FailOnce only fires once; chain two by failing attempts 0 then 1.
        class FailTwice(FailOnce):
            def should_fail(self, attempt):
                return (
                    attempt.task.kind is TaskKind.MAP
                    and attempt.task.index == 0
                    and attempt.attempt < 2
                )

        rt = runtime_with(dfs, FailTwice(job_substring="echo", kind=TaskKind.MAP, task_index=0))
        result = rt.run_job(simple_conf())
        assert result.succeeded
        assert result.attempts_failed == 2

    def test_policy_scoped_by_job_name(self, dfs):
        policy = FailOnce(job_substring="otherjob", kind=TaskKind.MAP, task_index=0)
        rt = runtime_with(dfs, policy)
        result = rt.run_job(simple_conf())
        assert result.attempts_failed == 0


class TestPermanentFailure:
    def test_fail_always_kills_job(self, dfs):
        policy = FailAlways(kind=TaskKind.MAP, task_index=2)
        rt = runtime_with(dfs, policy)
        with pytest.raises(JobFailedError) as exc:
            rt.run_job(simple_conf())
        assert "m_000002" in str(exc.value)

    def test_max_attempts_respected(self, dfs):
        policy = FailAlways(kind=TaskKind.MAP, task_index=0)
        rt = runtime_with(dfs, policy)
        with pytest.raises(JobFailedError):
            rt.run_job(simple_conf(max_attempts=2))
        # Job failed, so nothing was appended to history.
        assert rt.history == []

    def test_reduce_permanent_failure(self, dfs):
        policy = FailAlways(kind=TaskKind.REDUCE, task_index=1)
        rt = runtime_with(dfs, policy)
        with pytest.raises(JobFailedError) as exc:
            rt.run_job(simple_conf())
        assert "r_000001" in str(exc.value)


class TestUserExceptions:
    def test_mapper_exception_retries_then_fails(self, dfs):
        def explode(ctx, split):
            raise RuntimeError("boom")

        conf = JobConf(
            name="explode",
            mapper_factory=lambda: FnMapper(explode),
            splits=splits_for_workers(1),
            retry=RetryPolicy(max_attempts=3),
        )
        rt = MapReduceRuntime(dfs=dfs)
        with pytest.raises(JobFailedError) as exc:
            rt.run_job(conf)
        assert "boom" in str(exc.value)

    def test_flaky_mapper_succeeds_via_retry(self, dfs):
        attempts = {"count": 0}

        def flaky(ctx, split):
            attempts["count"] += 1
            if attempts["count"] < 3:
                raise RuntimeError("transient")
            ctx.write_text("/done", "ok")

        conf = JobConf(
            name="flaky",
            mapper_factory=lambda: FnMapper(flaky),
            splits=splits_for_workers(1),
            retry=RetryPolicy(max_attempts=4),
        )
        rt = MapReduceRuntime(dfs=dfs)
        result = rt.run_job(conf)
        assert result.succeeded
        assert dfs.read_text("/done") == "ok"


class TestSpeculativeExecution:
    """A task whose attempt timed out is retried as two hedged copies."""

    @staticmethod
    def hedged_conf():
        return dataclasses.replace(
            simple_conf(), retry=RetryPolicy(attempt_deadline=0.05)
        )

    def test_duplicate_attempts_mask_single_failure(self, dfs):
        """Task 0's first attempt hangs past the deadline; of its two copies
        in the retry wave one fails and the other completes the task — no
        third wave needed."""
        policy = ComposedFaults(
            DelayAttempt(
                seconds=0.5, job_substring="echo", kind=TaskKind.MAP, task_index=0
            ),
            FailOnce(
                job_substring="echo", kind=TaskKind.MAP, task_index=0,
                failing_attempt=1,
            ),
        )
        rt = runtime_with(dfs, policy)
        with observe() as obs:
            result = rt.run_job(self.hedged_conf())
        assert result.succeeded
        # 3 first attempts + 2 hedged copies of task 0, in two waves.
        assert result.counters.value(TASK_GROUP, LAUNCHED_MAPS) == 5
        assert result.attempts_failed == 2  # the timeout and one copy
        map_waves = [
            s for s in obs.spans
            if s.kind is SpanKind.WAVE and s.attrs["phase"] == "map"
        ]
        assert len(map_waves) == 2

    def test_duplicate_results_committed_once(self, dfs):
        policy = DelayAttempt(seconds=0.5, job_substring="echo", kind=TaskKind.MAP)
        rt = runtime_with(dfs, policy)
        result = rt.run_job(self.hedged_conf())
        # Every map task ran twice after its timeout; each output once.
        assert result.counters.value(TASK_GROUP, LAUNCHED_MAPS) == 3 + 3 * 2
        for j in range(3):
            assert result.reduce_outputs[j] == [(j, [j])]


class TestFaultPolicies:
    def test_fail_randomly_is_seeded(self):
        from repro.mapreduce.types import JobId, TaskAttemptId, TaskId

        def sequence(seed):
            p = FailRandomly(rate=0.5, seed=seed)
            aid = TaskAttemptId(TaskId(JobId(1), TaskKind.MAP, 0), 0)
            return [p.should_fail(aid) for _ in range(20)]

        assert sequence(1) == sequence(1)
        assert sequence(1) != sequence(2)

    def test_fail_randomly_rate_validated(self):
        with pytest.raises(ValueError):
            FailRandomly(rate=1.5)

    def test_fail_never(self):
        from repro.mapreduce.types import JobId, TaskAttemptId, TaskId

        aid = TaskAttemptId(TaskId(JobId(1), TaskKind.MAP, 0), 0)
        FailNever().maybe_fail(aid)  # no raise

    def test_random_failures_high_rate_eventually_fatal(self, dfs):
        policy = FailRandomly(rate=1.0)
        rt = runtime_with(dfs, policy)
        with pytest.raises(JobFailedError):
            rt.run_job(simple_conf())
