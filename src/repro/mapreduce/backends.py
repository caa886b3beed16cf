"""Execution backends: the pluggable worker pools that run task attempts.

The :class:`ExecutionBackend` protocol is the contract between the
JobTracker and whatever executes its attempts:

* :meth:`~ExecutionBackend.run_all` runs a wave of thunks and returns
  results *or raised exceptions* positionally — backends never raise on a
  task's behalf, the master decides what a failure means;
* ``in_process`` tells the master whether thunks may capture live driver
  objects (closures over the DFS) or must be picklable descriptors, which
  read DFS payloads from shared segments (:mod:`repro.dfs.shm`).

:func:`make_executor` builds one of three backends by name:

* :class:`SerialExecutor` — inline, deterministic; the default for tests
  and reproducible experiment runs.
* :class:`ThreadPoolBackend` — a real concurrent pool.  NumPy's BLAS
  kernels release the GIL, so dense-block work runs in true parallel; the
  pure-Python shuffle and bookkeeping stay GIL-bound.
* :class:`ProcessPoolBackend` — a ``multiprocessing`` pool for when the
  GIL is the bottleneck.  Tasks must be picklable (the process-safety
  lint, ``repro lint --procsafety``, is the static gate and runs as a
  pre-flight here); DFS payloads travel via shared memory, not pickles.

Every backend accepts an optional per-attempt ``deadline``, measured from
*attempt start* (dispatch), never from wave submission — queue-wait behind
other tasks is the scheduler's fault and is not charged (Hadoop's
``mapred.task.timeout`` semantics).  A thread attempt that exceeds it is
abandoned (Python threads cannot be killed) and keeps running harmlessly
in the background; a process attempt is genuinely killed and its worker
respawned.  Either way the master sees a :class:`TaskTimeoutError` and
counts it as an ordinary failure.
"""

from __future__ import annotations

import concurrent.futures
import gc
import multiprocessing
import multiprocessing.connection
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Protocol, Sequence, runtime_checkable


class TaskTimeoutError(RuntimeError):
    """A task attempt exceeded its per-attempt deadline and was abandoned."""

    def __init__(self, deadline: float, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"task attempt exceeded {deadline:.3g}s deadline{suffix}")
        self.deadline = deadline


class WorkerCrashError(RuntimeError):
    """A pool worker process died mid-attempt (killed, OOM, hard crash)."""


class TaskSerializationError(RuntimeError):
    """A task (or its result) could not cross the process boundary.

    The static gate for this is ``repro lint --procsafety`` (PS001–PS008);
    hitting this at runtime usually means a closure, lock, or other live
    driver object leaked into a task shipped to the processes backend.
    """


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the JobTracker requires of a worker pool."""

    #: Parallel width; also the default node count for health tracking.
    max_workers: int
    #: Thunks may capture live driver objects (False ⇒ picklable descriptors).
    in_process: bool

    def run_all(
        self,
        thunks: Sequence[Callable[[], Any]],
        deadline: float | None = None,
        on_outcome: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Run every thunk; return results or raised exceptions, positionally.

        ``on_outcome(index, outcome)``, when given, is invoked in the
        *calling* thread, exactly once per thunk, as soon as that thunk's
        outcome is known — before ``run_all`` returns.  This is how the
        master streams per-task completions (publish staged outputs while
        sibling tasks still run) without the backend creating any new
        concurrency.  An exception raised by ``on_outcome`` propagates out
        of ``run_all``; the backend must first put its pool back in a
        reusable state (kill or abandon this call's inflight attempts and
        free their slots).
        """
        ...

    def shutdown(self) -> None:
        """Release pool resources; idempotent."""
        ...


def _run_with_deadline(thunk: Callable[[], Any], deadline: float) -> Any:
    """Run ``thunk`` on a watchdog thread; give up after ``deadline`` seconds.

    Returns the thunk's result, the exception it raised, or a
    :class:`TaskTimeoutError` if it is still running at the deadline.  The
    watchdog thread is a daemon so a permanently hung attempt cannot block
    interpreter shutdown.
    """
    box: list[Any] = []

    def target() -> None:
        # The join below establishes happens-before for the single append,
        # and a post-timeout straggler write is never read.
        try:
            box.append(thunk())  # lint: ignore[CN008]
        except Exception as exc:  # collected, not raised: master decides
            box.append(exc)  # lint: ignore[CN008]

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(deadline)
    if runner.is_alive():
        return TaskTimeoutError(deadline)
    return box[0]


class SerialExecutor:
    """Run callables inline, in submission order."""

    max_workers = 1
    in_process = True

    def run_all(
        self,
        thunks: Sequence[Callable[[], Any]],
        deadline: float | None = None,
        on_outcome: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Run every thunk; returns results or raised exceptions, positionally.

        With a ``deadline``, each thunk runs on a watchdog thread so a hung
        attempt times out instead of stalling the wave forever.  Outcomes
        stream to ``on_outcome`` in submission order — serial execution is
        deterministic end to end.
        """
        results: list[Any] = []
        for i, thunk in enumerate(thunks):
            if deadline is not None:
                outcome = _run_with_deadline(thunk, deadline)
            else:
                try:
                    outcome = thunk()
                except Exception as exc:  # collected, not raised: master decides
                    outcome = exc
            results.append(outcome)
            if on_outcome is not None:
                on_outcome(i, outcome)
        return results

    def shutdown(self) -> None:  # noqa: B027 - interface symmetry
        pass


class ThreadPoolBackend:
    """Run callables on a shared thread pool.

    Deadlines are measured from each attempt's *start* on a pool thread.
    The collector first waits — uncharged — for the attempt to actually
    begin, then gives it ``deadline`` seconds of its own; an attempt that
    never starts because every slot is held by an abandoned hung attempt is
    cancelled and reported as starved rather than waiting forever.  Threads
    cannot be killed, so once any attempt was abandoned :meth:`shutdown`
    detaches the pool instead of joining a thread that may never return.
    """

    in_process = True

    #: Collector poll interval while waiting for an attempt to start.
    _START_POLL_SECONDS = 0.005

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=max_workers)
        self._lock = threading.Lock()
        # Timed-out attempts left running on pool threads.
        self._abandoned = 0  # guarded-by: _lock

    def run_all(
        self,
        thunks: Sequence[Callable[[], Any]],
        deadline: float | None = None,
        on_outcome: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        if deadline is None:
            futures = {
                self._pool.submit(t): i for i, t in enumerate(thunks)
            }
            out: list[Any] = [None] * len(thunks)
            # Completion order, not submission order: a fast thunk's outcome
            # reaches on_outcome while slow siblings still run.  If
            # on_outcome raises, the remaining futures are abandoned (same
            # contract as a timed-out thread attempt: side effects are
            # idempotent per-attempt staging files nobody publishes).
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    out[i] = fut.result()
                except Exception as exc:
                    out[i] = exc
                if on_outcome is not None:
                    on_outcome(i, out[i])
            return out
        return self._run_all_with_deadline(thunks, deadline, on_outcome)

    def _run_all_with_deadline(
        self,
        thunks: Sequence[Callable[[], Any]],
        deadline: float,
        on_outcome: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        n = len(thunks)
        started = [0.0] * n
        start_events = [threading.Event() for _ in range(n)]

        def wrap(i: int, thunk: Callable[[], Any]) -> Callable[[], Any]:
            def attempt() -> Any:
                # Single writer per slot; the event's set() publishes the
                # timestamp to the collector (happens-before via Event).
                started[i] = time.perf_counter()  # lint: ignore[CN008]
                start_events[i].set()
                return thunk()

            return attempt

        futures = [
            self._pool.submit(wrap(i, t)) for i, t in enumerate(thunks)
        ]
        results: list[Any] = []
        abandoned = 0
        for i, fut in enumerate(futures):
            # Queue wait is uncharged: poll until the attempt starts.  If
            # every pool slot is held by an attempt we already abandoned,
            # the queue can be wedged forever — cancel and report starvation
            # instead of hanging the wave.
            while not start_events[i].wait(timeout=self._START_POLL_SECONDS):
                if abandoned >= self.max_workers and fut.cancel():
                    break
            if fut.cancelled():
                outcome: Any = TaskTimeoutError(
                    deadline, detail="starved: pool wedged by hung attempts"
                )
            else:
                remaining = deadline - (time.perf_counter() - started[i])
                try:
                    outcome = fut.result(timeout=max(remaining, 0.0))
                except concurrent.futures.TimeoutError:
                    # The attempt itself blew its deadline.  Threads cannot
                    # be killed: abandon it (it keeps running; its result is
                    # discarded, which is safe because attempt side effects
                    # are idempotent per-attempt staging files).
                    fut.cancel()
                    abandoned += 1
                    with self._lock:
                        self._abandoned += 1
                    outcome = TaskTimeoutError(deadline)
                except Exception as exc:
                    outcome = exc
            results.append(outcome)
            if on_outcome is not None:
                on_outcome(i, outcome)
        return results

    def shutdown(self) -> None:
        with self._lock:
            detach = self._abandoned > 0
        # A detached pool's idle threads exit on their own; an abandoned
        # attempt's thread exits when its task finally returns.
        self._pool.shutdown(wait=not detach, cancel_futures=detach)


# -- process pool -------------------------------------------------------------


def _worker_main(conn, shared_tracker: bool) -> None:
    """Child-process loop: receive ``(seq, payload)``, execute, send back.

    The payload is either a picklable zero-argument callable or a
    :class:`~repro.mapreduce.remote.RemoteTask` descriptor.  A forked child
    inherits the driver's ambient tracer (and its exporters' file handles!)
    — the first thing the loop does is force the null tracer so child-side
    DFS-view operations never write to driver-owned sinks.
    """
    from ..dfs import shm
    from ..telemetry import spans
    from .remote import RemoteTask, execute_remote_task

    spans.activate(spans.NULL_TRACER)
    shm.set_child_tracker_shared(shared_tracker)
    segments: dict[str, Any] = {}
    blobs: OrderedDict[int, Any] = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        seq, payload = message
        try:
            if isinstance(payload, RemoteTask):
                value = execute_remote_task(payload, segments, blobs)
            else:
                value = payload()
            reply = ("ok", seq, value)
        except Exception as exc:
            reply = ("err", seq, exc)
        try:
            conn.send(reply)
        except Exception as exc:
            try:
                conn.send(
                    (
                        "err",
                        seq,
                        TaskSerializationError(
                            f"task {seq} result could not be pickled back "
                            f"to the driver: {exc!r}"
                        ),
                    )
                )
            except Exception:  # pragma: no cover - driver side went away
                break
    # Drop cyclic garbage that may still pin zero-copy views onto the
    # segments (e.g. a task's decode view caught in an uncollected cycle)
    # before detaching, so close() never sees exported pointers.  (The
    # inherited heap is frozen: this walks only the worker's own objects.)
    gc.collect()
    for seg in segments.values():
        try:
            seg.close()
        except BufferError:  # pragma: no cover - a view escaped anyway
            pass
    conn.close()


class _Worker:
    """One live pool worker: its process and the driver end of its pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class ProcessPoolBackend:
    """Run picklable tasks on a pool of persistent worker processes.

    One pending task per worker, dispatched over a dedicated pipe, so an
    attempt's deadline runs from the moment it is handed to an idle worker.
    A timed-out attempt is *really killed* — ``terminate()`` on the worker,
    which is replaced lazily — unlike thread backends, which can only
    abandon hung attempts.  A worker that dies mid-attempt surfaces as a
    :class:`WorkerCrashError` for that task and the pool self-heals.

    What may cross the process boundary is gated statically by ``repro lint
    --procsafety`` (``make lint``, CI, tier-1) and per job by the master's
    ``ensure_remote_runnable`` pickle probe; tasks that still fail to pickle
    at dispatch surface as :class:`TaskSerializationError` results for
    exactly the affected tasks.
    """

    in_process = False

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        # fork where the platform has it: dramatically cheaper per worker,
        # and it shares the driver's resource tracker; _worker_main
        # neutralizes the two fork hazards (inherited tracer/exporters)
        # explicitly.
        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self._start_method)
        # Start the shared resource tracker *before* the first fork so
        # every forked child inherits it (see repro.dfs.shm docstring).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._workers: list[_Worker | None] = [None] * max_workers
        # Slot leasing: concurrent run_all calls (the dataflow scheduler
        # drives waves of several live jobs at once) partition the worker
        # slots instead of colliding on them.  A slot's worker is touched
        # only by the run_all call holding its lease.
        self._lease_cond = threading.Condition()
        self._leased: set[int] = set()  # guarded-by: _lease_cond
        self._closed = False

    # -- worker lifecycle -----------------------------------------------------

    def _ensure_worker(self, slot: int) -> _Worker:
        worker = self._workers[slot]
        if worker is not None and worker.proc.is_alive():
            return worker
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._start_method == "fork"),
            daemon=True,
            name=f"repro-pool-{slot}",
        )
        # Fork from a frozen heap, so the child's collections never walk (or
        # copy-on-write-touch) what it inherited.  If two unit threads' forks
        # race, one's unfreeze may precede the other's fork: that child just
        # collects more slowly.  Each freeze here has its own unfreeze after
        # it, so the driver never stays frozen; a heap the embedding program
        # froze itself is left as it was.
        ours = gc.get_freeze_count() == 0
        if ours:
            gc.freeze()
        try:
            proc.start()
        finally:
            if ours:
                gc.unfreeze()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers[slot] = worker
        return worker

    def _dispose_worker(self, slot: int, *, kill: bool) -> None:
        worker = self._workers[slot]
        if worker is None:
            return
        self._workers[slot] = None
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        worker.conn.close()

    @staticmethod
    def _scrub_result_segment(thunk: Any) -> None:
        """After killing a worker, unlink the result segment its task may
        have created but never handed over."""
        name = getattr(thunk, "result_segment", None)
        if name:
            from ..dfs.shm import destroy_segment

            destroy_segment(name)

    # -- slot leasing ---------------------------------------------------------

    def _lease_slots(self, want: int, holding: int) -> list[int]:
        """Lease up to ``want`` free worker slots.

        Blocks only when this call holds nothing at all (``holding == 0``)
        and every slot is leased to a concurrent ``run_all`` — otherwise
        progress comes from the caller's own inflight attempts, so an empty
        grab returns immediately.
        """
        with self._lease_cond:
            while True:
                free = [
                    s for s in range(self.max_workers) if s not in self._leased
                ]
                if free or holding:
                    taken = free[:want]
                    self._leased.update(taken)
                    return taken
                self._lease_cond.wait()  # lint: ignore[CN006] - idiomatic condition wait

    def _release_slot(self, slot: int) -> None:
        with self._lease_cond:
            self._leased.discard(slot)
            self._lease_cond.notify_all()

    # -- execution ------------------------------------------------------------

    def run_all(
        self,
        thunks: Sequence[Callable[[], Any]],
        deadline: float | None = None,
        on_outcome: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        if self._closed:
            raise RuntimeError("backend is shut down")
        n = len(thunks)
        results: list[Any] = [None] * n
        pending = deque(range(n))
        inflight: dict[int, tuple[int, float]] = {}  # slot -> (task, start)

        def settle(idx: int, outcome: Any) -> None:
            results[idx] = outcome
            if on_outcome is not None:
                on_outcome(idx, outcome)

        try:
            while pending or inflight:
                slots = (
                    self._lease_slots(len(pending), len(inflight))
                    if pending
                    else []
                )
                for slot in slots:
                    if not pending:
                        self._release_slot(slot)
                        continue
                    idx = pending.popleft()
                    try:
                        worker = self._ensure_worker(slot)
                        worker.conn.send((idx, thunks[idx]))
                    except Exception as exc:
                        # Connection.send pickles before writing any bytes,
                        # so a pickling failure leaves the worker clean and
                        # fails only this task.
                        self._release_slot(slot)
                        settle(
                            idx,
                            TaskSerializationError(
                                f"task could not be shipped to a worker "
                                f"process: {exc!r}; run `python -m repro "
                                f"lint --procsafety` to find the "
                                f"unpicklable capture"
                            ),
                        )
                        continue
                    inflight[slot] = (idx, time.perf_counter())
                if not inflight:
                    continue
                timeout = None
                if deadline is not None:
                    now = time.perf_counter()
                    timeout = max(
                        0.0,
                        min(start for _, start in inflight.values())
                        + deadline
                        - now,
                    )
                conn_to_slot = {
                    self._workers[slot].conn: slot for slot in inflight
                }
                ready = multiprocessing.connection.wait(
                    list(conn_to_slot), timeout=timeout
                )
                for conn in ready:
                    slot = conn_to_slot[conn]
                    idx, _start = inflight.pop(slot)
                    try:
                        _tag, _seq, value = conn.recv()
                    except (EOFError, OSError):
                        exitcode = self._workers[slot].proc.exitcode
                        self._dispose_worker(slot, kill=False)
                        self._scrub_result_segment(thunks[idx])
                        self._release_slot(slot)
                        settle(
                            idx,
                            WorkerCrashError(
                                f"worker process died mid-attempt "
                                f"(exit code {exitcode})"
                            ),
                        )
                        continue
                    self._release_slot(slot)
                    settle(idx, value)
                if deadline is not None:
                    now = time.perf_counter()
                    for slot, (idx, start) in list(inflight.items()):
                        if now - start >= deadline:
                            del inflight[slot]
                            # A real kill, not an abandoned thread:
                            # terminate the worker and replace it at next
                            # dispatch.
                            self._dispose_worker(slot, kill=True)
                            self._scrub_result_segment(thunks[idx])
                            self._release_slot(slot)
                            settle(
                                idx,
                                TaskTimeoutError(
                                    deadline, detail="attempt killed"
                                ),
                            )
        except BaseException:
            # A fatal error propagating out of on_outcome (an injected
            # driver crash, a poisoned wave) — or a KeyboardInterrupt.
            # Leave the pool reusable: kill this call's inflight workers so
            # their half-finished attempts can never surface later, scrub
            # the result segments they may have created, free the leases.
            for slot, (idx, _start) in list(inflight.items()):
                self._dispose_worker(slot, kill=True)
                self._scrub_result_segment(thunks[idx])
                self._release_slot(slot)
            raise
        return results

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(None)
            except Exception:
                pass
        # Graceful first (workers detach their shared segments on the
        # sentinel), escalate to kill only for wedged workers.
        for worker in self._workers:
            if worker is not None:
                worker.proc.join(timeout=5.0)
        for slot in range(self.max_workers):
            self._dispose_worker(slot, kill=True)


# -- factory -------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[int], ExecutionBackend]] = {
    "serial": lambda max_workers: SerialExecutor(),
    "threads": ThreadPoolBackend,
    "processes": ProcessPoolBackend,
}

#: The backend names :func:`make_executor` accepts.
EXECUTORS = tuple(_FACTORIES)


def make_executor(kind: str, max_workers: int = 8) -> ExecutionBackend:
    """Build the ``serial``, ``threads`` or ``processes`` backend."""
    if kind not in EXECUTORS:
        known = ", ".join(repr(name) for name in EXECUTORS)
        raise ValueError(f"unknown executor kind {kind!r} (use one of {known})")
    return _FACTORIES[kind](max_workers)


__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialExecutor",
    "TaskSerializationError",
    "TaskTimeoutError",
    "ThreadPoolBackend",
    "WorkerCrashError",
    "make_executor",
]
