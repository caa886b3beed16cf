"""Engine hardening: retry backoff, attempt deadlines, node blacklisting,
and failure-history reporting."""

import time
from collections import Counter

import pytest

from repro import observe
from repro.mapreduce import (
    ComposedFaults,
    DelayAttempt,
    FailAlways,
    FailOnce,
    FailOnNode,
    FnMapper,
    JobConf,
    JobFailedError,
    MapReduceRuntime,
    Mapper,
    NodeHealth,
    Reducer,
    RetryPolicy,
    TaskKind,
    TaskTimeoutError,
    splits_for_workers,
)
from repro.mapreduce.counters import TASK_GROUP
from repro.mapreduce.counters import TIMED_OUT_MAPS
from repro.mapreduce.backends import SerialExecutor, ThreadPoolBackend
from repro.mapreduce.master import BLACKLIST_WINDOW, MAX_NODE_FAILURES
from repro.telemetry.spans import SpanKind


class EchoMapper(Mapper):
    def map(self, ctx, split):
        ctx.emit(split.payload, split.payload)


class PassReducer(Reducer):
    def reduce(self, ctx, key, values):
        ctx.emit(key, list(values))


def simple_conf(num_workers=3, retry=RetryPolicy()):
    return JobConf(
        name="echo-job",
        mapper_factory=EchoMapper,
        reducer_factory=PassReducer,
        splits=splits_for_workers(num_workers),
        num_reduce_tasks=num_workers,
        retry=retry,
    )


def blacklist(health, node):
    for _ in range(MAX_NODE_FAILURES):
        health.record_failure(node)


def runtime_with(dfs, policy, **cfg):
    return MapReduceRuntime(dfs=dfs, **cfg, fault_policy=policy)


class TestRetryPolicy:
    def test_no_base_delay_means_no_waiting(self):
        policy = RetryPolicy()
        assert policy.delay_for(0) == 0.0
        assert policy.delay_for(5) == 0.0

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=5.0)
        assert policy.delay_for(1) == 1.0
        assert policy.delay_for(2) == 2.0
        assert policy.delay_for(3) == 4.0
        assert policy.delay_for(4) == 5.0  # capped
        assert policy.delay_for(10) == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        first = policy.delay_for(1, key="job:map:0")
        assert first == policy.delay_for(1, key="job:map:0")  # same inputs
        assert 0.5 <= first <= 1.0  # jitter only shrinks, by at most 50%
        other = policy.delay_for(1, key="job:map:1")
        assert other != first  # different key, different draw

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_delay": -1.0},
            {"max_attempts": 0},
            {"max_delay": -1.0},
            {"jitter": 1.5},
            {"attempt_deadline": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestNodeHealth:
    def test_blacklist_after_consecutive_failures(self):
        health = NodeHealth(num_nodes=3)
        for _ in range(MAX_NODE_FAILURES - 1):
            health.record_failure(1)
        assert not health.is_blacklisted(1)
        health.record_failure(1)
        assert health.is_blacklisted(1)
        assert health.blacklisted_nodes() == [1]

    def test_success_resets_consecutive_count(self):
        health = NodeHealth(num_nodes=2)
        for _ in range(MAX_NODE_FAILURES - 1):
            health.record_failure(0)
        health.record_success(0)
        health.record_failure(0)
        assert not health.is_blacklisted(0)

    def test_blacklist_decays_after_window(self):
        health = NodeHealth(num_nodes=2)
        blacklist(health, 0)
        for _ in range(BLACKLIST_WINDOW - 1):
            health.tick()
            assert health.is_blacklisted(0)
        health.tick()
        assert not health.is_blacklisted(0)
        # Decay also forgave the consecutive count: one more failure needed.
        assert health.consecutive_failures[0] == 0

    def test_pick_node_skips_blacklisted_and_avoided(self):
        health = NodeHealth(num_nodes=3)
        blacklist(health, 0)
        for _ in range(10):
            node = health.pick_node(avoid=1)
            assert node == 2

    def test_all_blacklisted_degrades_instead_of_deadlocking(self):
        health = NodeHealth(num_nodes=2)
        blacklist(health, 0)
        blacklist(health, 1)
        assert health.pick_node() in (0, 1)


class TestDeadlines:
    def test_serial_executor_times_out_hung_thunk(self):
        ex = SerialExecutor()
        out = ex.run_all([lambda: time.sleep(0.3) or "late", lambda: "fast"],
                         deadline=0.05)
        assert isinstance(out[0], TaskTimeoutError)
        assert out[1] == "fast"

    def test_threadpool_times_out_hung_thunk(self):
        ex = ThreadPoolBackend(max_workers=2)
        try:
            out = ex.run_all([lambda: time.sleep(0.3) or "late", lambda: "fast"],
                             deadline=0.05)
            assert isinstance(out[0], TaskTimeoutError)
            assert out[1] == "fast"
        finally:
            time.sleep(0.3)  # let the abandoned thunk drain before shutdown
            ex.shutdown()

    def test_no_deadline_waits_out_slow_thunk(self):
        out = SerialExecutor().run_all([lambda: time.sleep(0.02) or "done"])
        assert out == ["done"]

    def test_hung_task_fails_over_and_job_completes(self, dfs):
        # The acceptance scenario: first attempts hang; without a deadline
        # this wave would stall for the full delay — with one, the attempt is
        # abandoned, counted, and the retry (fault no longer matches) wins.
        policy = DelayAttempt(seconds=0.5, job_substring="echo", attempts_below=1)
        rt = runtime_with(dfs, policy)
        retry = RetryPolicy(max_attempts=3, attempt_deadline=0.05)
        start = time.monotonic()
        result = rt.run_job(simple_conf(retry=retry))
        elapsed = time.monotonic() - start
        assert result.succeeded
        assert result.attempts_timed_out >= 3  # one per hung first attempt
        assert result.counters.value(TASK_GROUP, TIMED_OUT_MAPS) >= 3
        # Far faster than serially waiting out 3 x 0.5s hangs.
        assert elapsed < 1.5
        assert sorted(result.reduce_outputs) == [0, 1, 2]

    def test_timed_out_task_gets_speculative_retry(self, dfs):
        # Map task 0's first attempt hangs past the deadline, task 1's fails
        # outright and task 2's succeeds.  After a timeout the task is
        # marked slow: the retry wave hedges it with two copies, and runs
        # the merely failed task once.
        policy = ComposedFaults(
            DelayAttempt(
                seconds=0.5, job_substring="echo", kind=TaskKind.MAP, task_index=0
            ),
            FailOnce(job_substring="echo", kind=TaskKind.MAP, task_index=1),
        )
        rt = runtime_with(dfs, policy)
        with observe() as obs:
            result = rt.run_job(
                simple_conf(retry=RetryPolicy(attempt_deadline=0.05))
            )
        assert result.succeeded
        assert result.attempts_timed_out == 1
        (retry_wave,) = [
            s for s in obs.spans
            if s.kind is SpanKind.WAVE and s.attrs["phase"] == "map"
            and s.attrs["wave"] == 1
        ]
        copies = Counter(
            s.attrs["task"] for s in obs.spans
            if s.kind is SpanKind.TASK and s.parent_id == retry_wave.span_id
        )
        assert copies == {0: 2, 1: 1}


class TestBackoff:
    def test_backoff_sleeps_are_recorded(self, dfs):
        policy = FailOnce(job_substring="echo", kind=TaskKind.MAP, task_index=0)
        retry = RetryPolicy(base_delay=0.01, max_delay=0.05)
        rt = runtime_with(dfs, policy)
        result = rt.run_job(simple_conf(retry=retry))
        assert result.succeeded
        assert result.backoff_seconds >= 0.01
        assert result.attempts_failed == 1

    def test_no_policy_means_no_backoff(self, dfs):
        policy = FailOnce(job_substring="echo", kind=TaskKind.MAP, task_index=0)
        rt = runtime_with(dfs, policy)
        result = rt.run_job(simple_conf())
        assert result.succeeded
        assert result.backoff_seconds == 0.0


class TestBlacklisting:
    def test_sick_node_is_blacklisted_and_job_completes(self, dfs):
        policy = FailOnNode(node_id=1)
        rt = runtime_with(dfs, policy, num_workers=3)
        # Six tasks on three nodes: two of each wave land on the sick node.
        result = rt.run_job(
            simple_conf(num_workers=6, retry=RetryPolicy(max_attempts=6))
        )
        assert result.succeeded
        health = rt.node_health
        assert health.total_failures[1] >= MAX_NODE_FAILURES
        assert health.blacklist_events >= 1
        # Healthy nodes never failed anything.
        assert health.total_failures[0] == 0
        assert health.total_failures[2] == 0

    def test_retry_avoids_the_node_that_just_failed(self, dfs):
        # Even before blacklisting kicks in, a retry is routed away from the
        # node the task last failed on, so FailOnNode costs one failure per
        # task, not MAX_NODE_FAILURES of them.
        policy = FailOnNode(node_id=0)
        rt = runtime_with(dfs, policy, num_workers=3)
        result = rt.run_job(simple_conf(retry=RetryPolicy(max_attempts=3)))
        assert result.succeeded
        health = rt.node_health
        assert health.total_failures[1] == 0
        assert health.total_failures[2] == 0
        assert result.attempts_failed == health.total_failures[0] >= 1
        # No task failed twice: its retry landed off the sick node.
        assert all(v == 1 for v in result.map_retries.values())
        assert all(v == 1 for v in result.reduce_retries.values())


class TestJobFailedError:
    def test_error_carries_full_attempt_history(self, dfs):
        rt = runtime_with(dfs, FailAlways(kind=TaskKind.MAP, task_index=0))
        with pytest.raises(JobFailedError) as err:
            rt.run_job(simple_conf(retry=RetryPolicy(max_attempts=3)))
        exc = err.value
        assert len(exc.attempts) == 3
        assert [a.attempt.attempt for a in exc.attempts] == [0, 1, 2]
        assert all(a.node is not None for a in exc.attempts)
        assert exc.failed_nodes  # the nodes involved, deduplicated
        # The message itself tells the whole story.
        msg = str(exc)
        assert "attempt 0" in msg and "attempt 2" in msg
        assert "node" in msg

    def test_timeouts_are_marked_in_history(self, dfs):
        # Every attempt hangs (attempts_below above the budget), so the task
        # exhausts its attempts purely through timeouts.
        policy = DelayAttempt(seconds=0.5, job_substring="echo", attempts_below=99)
        rt = runtime_with(dfs, policy)
        with pytest.raises(JobFailedError) as err:
            rt.run_job(
                simple_conf(
                    retry=RetryPolicy(max_attempts=2, attempt_deadline=0.05)
                )
            )
        assert all(a.timed_out for a in err.value.attempts)
        assert "timeout" in str(err.value)
