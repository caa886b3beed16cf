"""Backend-conformance suite: every ExecutionBackend honours the same
contract.

The JobTracker is backend-agnostic — it relies on ``run_all`` returning
results *positionally*, exceptions being returned (never raised) on a
task's behalf, deadlines measured from attempt start, and ``shutdown``
being idempotent.  These tests pin that contract over every backend
``make_executor`` builds.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from repro.mapreduce.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialExecutor,
    TaskTimeoutError,
    EXECUTORS,
    ThreadPoolBackend,
    make_executor,
)

BUILTIN_BACKENDS = ("serial", "threads", "processes")


# Top-level callables so every task pickles for the processes backend.

def square(x: int) -> int:
    return x * x


def boom(message: str) -> None:
    raise ValueError(message)


def nap_then(seconds: float, value: int) -> int:
    time.sleep(seconds)
    return value


@pytest.fixture(params=BUILTIN_BACKENDS)
def backend(request):
    ex = make_executor(request.param, 2)
    yield ex
    ex.shutdown()


class TestConformance:
    def test_registry_has_builtins(self):
        assert EXECUTORS == BUILTIN_BACKENDS

    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert backend.max_workers >= 1
        assert isinstance(backend.in_process, bool)

    def test_results_positional(self, backend):
        thunks = [partial(square, i) for i in range(7)]
        assert backend.run_all(thunks) == [i * i for i in range(7)]

    def test_exceptions_returned_not_raised(self, backend):
        thunks = [partial(square, 2), partial(boom, "t1"), partial(square, 3)]
        out = backend.run_all(thunks)
        assert out[0] == 4
        assert isinstance(out[1], ValueError)
        assert str(out[1]) == "t1"
        assert out[2] == 9

    def test_timeout_is_task_timeout_error(self, backend):
        out = backend.run_all(
            [partial(nap_then, 5.0, 1), partial(square, 6)], deadline=0.3
        )
        assert isinstance(out[0], TaskTimeoutError)
        assert out[1] == 36

    def test_shutdown_does_not_wait_out_a_timed_out_attempt(self, backend):
        out = backend.run_all([partial(nap_then, 5.0, 1)], deadline=0.1)
        assert isinstance(out[0], TaskTimeoutError)
        start = time.perf_counter()
        backend.shutdown()
        assert time.perf_counter() - start < 0.5

    def test_fast_tasks_pass_under_deadline(self, backend):
        out = backend.run_all(
            [partial(nap_then, 0.01, i) for i in range(3)], deadline=5.0
        )
        assert out == [0, 1, 2]

    def test_shutdown_idempotent(self):
        for kind in BUILTIN_BACKENDS:
            ex = make_executor(kind, 2)
            ex.shutdown()
            ex.shutdown()  # second call must be a no-op, not an error


class TestCapabilityFlags:
    def test_serial(self):
        ex = SerialExecutor()
        assert ex.in_process

    def test_threads(self):
        ex = ThreadPoolBackend(2)
        try:
            assert ex.in_process
        finally:
            ex.shutdown()

    def test_processes(self):
        ex = ProcessPoolBackend(1)
        try:
            assert not ex.in_process
        finally:
            ex.shutdown()


class TestThreadDeadlineFromStart:
    """Regression: deadlines charge attempt runtime, never queue wait."""

    def test_queued_task_not_charged_for_waiting(self):
        # One slot, two 0.25s tasks, 0.6s deadline: the second task spends
        # ~0.25s queued behind the first.  Charged from wave submission it
        # would blow the deadline; charged from its own start it passes.
        ex = ThreadPoolBackend(max_workers=1)
        try:
            out = ex.run_all(
                [partial(nap_then, 0.25, 1), partial(nap_then, 0.25, 2)],
                deadline=0.6,
            )
            assert out == [1, 2]
        finally:
            ex.shutdown()

    def test_starved_task_reports_timeout_not_hang(self):
        # The only slot is wedged by an abandoned hung attempt; the queued
        # task can never start and must come back as a timeout, not block
        # run_all forever.
        ex = ThreadPoolBackend(max_workers=1)
        out = ex.run_all(
            [partial(nap_then, 1.5, 1), partial(square, 2)], deadline=0.2
        )
        assert isinstance(out[0], TaskTimeoutError)
        assert isinstance(out[1], TaskTimeoutError)
        assert "starved" in str(out[1])
        ex.shutdown()  # waits out the 1.5s straggler; bounded


class TestProcessDeadline:
    def test_deadline_runs_from_dispatch_not_wave(self):
        # Same shape as the thread regression: one worker, two tasks, each
        # individually under the deadline.
        ex = ProcessPoolBackend(1)
        try:
            out = ex.run_all(
                [partial(nap_then, 0.25, 1), partial(nap_then, 0.25, 2)],
                deadline=0.6,
            )
            assert out == [1, 2]
        finally:
            ex.shutdown()

    def test_killed_attempt_frees_the_slot(self):
        # The hung attempt is killed for real, so a task behind it still
        # completes — unlike threads, where the slot stays wedged.
        ex = ProcessPoolBackend(1)
        try:
            out = ex.run_all(
                [partial(nap_then, 5.0, 1), partial(square, 4)], deadline=0.3
            )
            assert isinstance(out[0], TaskTimeoutError)
            assert out[1] == 16
        finally:
            ex.shutdown()


class TestRegistry:
    def test_make_executor_unknown_kind(self):
        with pytest.raises(
            ValueError,
            match="unknown executor kind 'quantum' "
            r"\(use one of 'serial', 'threads', 'processes'\)",
        ):
            make_executor("quantum")

    def test_make_executor_passes_the_pool_width(self):
        ex = make_executor("threads", 3)
        try:
            assert isinstance(ex, ThreadPoolBackend)
            assert ex.max_workers == 3
        finally:
            ex.shutdown()


    def test_inversion_config_checks_the_executor_name(self):
        from repro import InversionConfig

        for name in EXECUTORS:
            assert InversionConfig(executor=name).executor == name
        with pytest.raises(ValueError, match="unknown executor 'procesess'"):
            InversionConfig(executor="procesess")


class TestPackageExports:
    def test_package_exports(self):
        import repro.mapreduce as mr

        for name in (
            "ExecutionBackend",
            "ProcessPoolBackend",
            "TaskSerializationError",
            "WorkerCrashError",
            "make_executor",
        ):
            assert hasattr(mr, name)
        assert "register_backend" not in mr.__all__
        assert "available_backends" not in mr.__all__
