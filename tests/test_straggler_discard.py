"""A post-deadline straggler attempt must not corrupt the job's accounting.

Python threads cannot be killed, so an attempt abandoned by the
``RetryPolicy.attempt_deadline`` watchdog keeps running in the background and
eventually finishes on its own.  These tests pin the two properties that make
that safe:

* ``_run_with_deadline`` never reads a result boxed after the deadline, and
* the master merges counters / commits output only from the winning attempt,
  so a straggler that wakes up and completes late changes nothing.
"""

from __future__ import annotations

import threading
import time

from repro.mapreduce import (
    JobConf,
    Mapper,
    MapReduceRuntime,
    Reducer,
    RetryPolicy,
    splits_for_workers,
)
from repro.mapreduce.counters import TASK_GROUP, TIMED_OUT_MAPS
from repro.mapreduce.backends import TaskTimeoutError, _run_with_deadline

STRAGGLER_GROUP = "test.straggler"


class TestRunWithDeadline:
    def test_late_result_is_never_read(self):
        """The straggler's boxed result exists but the caller already
        returned a TaskTimeoutError — the late write is dead."""
        box_written = threading.Event()
        release = threading.Event()

        def slow():
            release.wait(5.0)
            box_written.set()
            return "late-value"

        out = _run_with_deadline(slow, deadline=0.05)
        assert isinstance(out, TaskTimeoutError)
        assert not box_written.is_set()  # still parked at the deadline
        release.set()
        assert box_written.wait(5.0)  # straggler finishes on its own...
        assert isinstance(out, TaskTimeoutError)  # ...and `out` is unchanged

    def test_late_exception_is_never_raised(self):
        release = threading.Event()

        def slow_boom():
            release.wait(5.0)
            raise RuntimeError("straggler exploding after abandonment")

        out = _run_with_deadline(slow_boom, deadline=0.05)
        assert isinstance(out, TaskTimeoutError)
        release.set()


class StragglerMapper(Mapper):
    """Attempt 0 hangs past the deadline, then wakes and *still* runs its
    side effects: it increments counters, writes a DFS file, and emits.
    Attempt 1 returns promptly.  Only attempt 1's effects may be visible
    in the job result."""

    # Class-level so every per-attempt factory instance shares them.
    straggler_done = threading.Event()
    release = threading.Event()

    def map(self, ctx, split):
        attempt = ctx.attempt_id.attempt
        if attempt == 0:
            # Park until the test releases us, well past the 50ms deadline.
            StragglerMapper.release.wait(5.0)
        ctx.increment(STRAGGLER_GROUP, "map_calls")
        ctx.write_bytes(
            f"/straggler/out.{split.index}", f"attempt-{attempt}".encode()
        )
        ctx.emit(split.index, attempt)
        if attempt == 0:
            StragglerMapper.straggler_done.set()


class KeepAllReducer(Reducer):
    def reduce(self, ctx, key, values):
        ctx.emit(key, sorted(values))


class TestStragglerAccounting:
    def test_late_attempt_cannot_corrupt_counters_or_dfs(self, dfs):
        StragglerMapper.straggler_done.clear()
        StragglerMapper.release.clear()
        rt = MapReduceRuntime(
            dfs=dfs, num_workers=1, executor="serial"
        )
        conf = JobConf(
            name="straggler-probe",
            mapper_factory=StragglerMapper,
            reducer_factory=KeepAllReducer,
            splits=splits_for_workers(1),
            num_reduce_tasks=1,
            retry=RetryPolicy(max_attempts=3, attempt_deadline=0.05),
        )
        try:
            result = rt.run_job(conf)
            assert result.succeeded
            assert result.attempts_timed_out == 1
            assert result.counters.value(TASK_GROUP, TIMED_OUT_MAPS) == 1

            # Let the abandoned attempt wake up and run all its side effects.
            StragglerMapper.release.set()
            assert StragglerMapper.straggler_done.wait(5.0)

            # Counters were merged from the winning attempt only: the
            # straggler (and the speculative duplicate the master hedges a
            # timed-out task with) incremented their own per-attempt
            # Counters objects, which the master never saw.
            assert result.counters.value(STRAGGLER_GROUP, "map_calls") == 1

            # The reduce output carries only the winning attempt's record:
            # attempt 1, the first success in the retry wave.
            assert result.reduce_outputs == {0: [(0, [1])]}
        finally:
            StragglerMapper.release.set()
            rt.shutdown()

    def test_dfs_output_is_the_winning_attempts(self, dfs):
        """Attempts write deterministic per-task paths, so even the
        straggler's late write is idempotent: last writer wins but both
        wrote task output, and the committed content matches a completed
        attempt, not a torn mix."""
        StragglerMapper.straggler_done.clear()
        StragglerMapper.release.clear()
        rt = MapReduceRuntime(
            dfs=dfs, num_workers=1, executor="serial"
        )
        conf = JobConf(
            name="straggler-dfs",
            mapper_factory=StragglerMapper,
            reducer_factory=KeepAllReducer,
            splits=splits_for_workers(1),
            num_reduce_tasks=1,
            retry=RetryPolicy(max_attempts=3, attempt_deadline=0.05),
        )
        try:
            result = rt.run_job(conf)
            assert result.succeeded
            # Attempt 1 won, but the speculative duplicate the master hedges
            # a timed-out task with (attempt 2) may have rewritten the same
            # deterministic path afterwards.  Either way the content is one
            # complete attempt's write, never a torn mix.
            assert dfs.read_bytes("/straggler/out.0") in (
                b"attempt-1",
                b"attempt-2",
            )

            StragglerMapper.release.set()
            assert StragglerMapper.straggler_done.wait(5.0)
            # The straggler overwrote the same deterministic path — an
            # idempotent, complete rewrite, never a partial one.
            assert dfs.read_bytes("/straggler/out.0") in (
                b"attempt-0",
                b"attempt-1",
                b"attempt-2",
            )
            # Job-level accounting is frozen at completion time.
            assert result.counters.value(STRAGGLER_GROUP, "map_calls") == 1
            assert result.attempts_timed_out == 1
        finally:
            StragglerMapper.release.set()
            rt.shutdown()
