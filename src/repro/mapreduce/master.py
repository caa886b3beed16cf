"""The JobTracker: schedules task attempts, retries failures, merges results.

Scheduling is wave-based: all runnable attempts of a phase are submitted to
the worker pool together; failed tasks are resubmitted in the next wave with
an incremented attempt number, up to the job's ``retry.max_attempts``
(Hadoop's ``mapred.map.max.attempts`` semantics).  A task that exhausts its
attempts fails the whole job.

On top of the basic retry loop the tracker provides the failure-detection
machinery Section 7.4's end-to-end fault story depends on:

* **Backoff + deadlines** — the :class:`~repro.mapreduce.retry.RetryPolicy` on
  the job conf spaces retry waves with capped exponential backoff
  (deterministically jittered) and bounds each attempt's wall-clock time, so
  a *hung* task times out (:class:`~repro.mapreduce.backends.TaskTimeoutError`)
  instead of stalling its wave forever.
* **Node health / blacklisting** — every attempt is placed on a simulated
  worker node; consecutive failures on one node temporarily blacklist it
  (Hadoop's ``mapred.max.tracker.failures``), and a retried task always
  avoids the node where it last failed when an alternative exists.
* **Hedged retry** — a task whose last attempt *timed out* gets two
  copies in the next wave and the first success commits, masking slow nodes
  the way Section 7.4 credits for the 8-hour (vs 5-hour) fault run
  completing at all.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..dfs.commit import staging_dir
from ..dfs.filesystem import DFS
from ..telemetry.spans import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanKind,
    Tracer,
    _NullSpan,
)
from .counters import (
    Counters,
    FAILED_MAPS,
    FAILED_REDUCES,
    LAUNCHED_MAPS,
    LAUNCHED_REDUCES,
    TASK_GROUP,
    TIMED_OUT_MAPS,
    TIMED_OUT_REDUCES,
)
from .faults import FaultPolicy, FailNever
from .job import JobConf
from .shuffle import merge_map_outputs
from .task import (
    MapAttemptResult,
    ReduceAttemptResult,
    run_map_attempt,
    run_reduce_attempt,
)
from .types import (
    InputSplit,
    JobId,
    JobResult,
    TaskAttemptId,
    TaskId,
    TaskKind,
)
from .backends import ExecutionBackend, TaskTimeoutError


@dataclass(frozen=True)
class AttemptFailure:
    """One failed task attempt: what ran where and how it died."""

    attempt: TaskAttemptId
    node: int | None
    error: Exception
    timed_out: bool = False
    #: Telemetry span of this attempt, when a tracer was active.
    span_id: str | None = None

    def describe(self) -> str:
        kind = "timeout" if self.timed_out else "error"
        where = f"attempt {self.attempt.attempt} on node {self.node}"
        if self.span_id:
            where += f" (span {self.span_id})"
        return f"{where}: {kind} {self.error!r}"


class JobFailedError(RuntimeError):
    """A task exhausted its attempts; the job cannot complete.

    Carries the full attempt history (``attempts``) so callers — chaos
    campaign reports, tests, operators — can see *why* the task died, not
    just the final exception: which nodes it ran on, which attempts timed
    out, and every per-attempt error.
    """

    def __init__(
        self,
        job_name: str,
        task: TaskId,
        last_error: Exception,
        attempts: list[AttemptFailure] | None = None,
        trace_id: str | None = None,
        job_span_id: str | None = None,
    ) -> None:
        attempts = list(attempts or [])
        message = f"job {job_name!r}: task {task} failed permanently: {last_error!r}"
        if attempts:
            history = "; ".join(a.describe() for a in attempts)
            message += f" [history: {history}]"
        if trace_id:
            message += f" [trace {trace_id}]"
        super().__init__(message)
        self.job_name = job_name
        self.task = task
        self.last_error = last_error
        self.attempts = attempts
        #: Telemetry correlation: the trace and job span the failure happened
        #: under, when a tracer was active (``None`` otherwise).
        self.trace_id = trace_id
        self.job_span_id = job_span_id

    @property
    def failed_nodes(self) -> list[int]:
        """Nodes that hosted a failed attempt, in order (with repeats)."""
        return [a.node for a in self.attempts if a.node is not None]


#: Consecutive task failures on one node before it is blacklisted (Hadoop's
#: ``mapred.max.tracker.failures``).
MAX_NODE_FAILURES = 3
#: Scheduling waves a blacklisted node sits out before decaying back in.
BLACKLIST_WINDOW = 3


class NodeHealth:
    """Per-node failure tracking with temporary blacklisting and decay.

    A node accumulating ``MAX_NODE_FAILURES`` consecutive task failures is
    blacklisted for ``BLACKLIST_WINDOW`` scheduling waves; any success resets
    its count, and when a blacklist expires the count is cleared so the node
    gets a fresh chance (decay).  With every node blacklisted the tracker
    schedules on all of them — degraded beats deadlocked.

    All mutable state is guarded by ``_lock``: the tracker mutates health
    from its scheduling loop while timed-out attempt bookkeeping and
    chaos-campaign snapshots may read it from other threads (CN001 —
    blacklist decay reads were previously lock-free).
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self._lock = threading.Lock()
        self.consecutive_failures = [0] * num_nodes  # guarded-by: _lock
        self.total_failures = [0] * num_nodes  # guarded-by: _lock
        self._blacklist_left = [0] * num_nodes  # guarded-by: _lock
        self.blacklist_events = 0  # guarded-by: _lock
        self._rr = 0  # guarded-by: _lock

    def record_failure(self, node: int) -> None:
        with self._lock:
            self.consecutive_failures[node] += 1
            self.total_failures[node] += 1
            if (
                self.consecutive_failures[node] >= MAX_NODE_FAILURES
                and self._blacklist_left[node] == 0
            ):
                self._blacklist_left[node] = BLACKLIST_WINDOW
                self.blacklist_events += 1

    def record_success(self, node: int) -> None:
        with self._lock:
            self.consecutive_failures[node] = 0

    def _is_blacklisted_locked(self, node: int) -> bool:
        return self._blacklist_left[node] > 0

    def is_blacklisted(self, node: int) -> bool:
        with self._lock:
            return self._is_blacklisted_locked(node)

    def _blacklisted_nodes_locked(self) -> list[int]:
        return [
            i for i in range(self.num_nodes) if self._is_blacklisted_locked(i)
        ]

    def blacklisted_nodes(self) -> list[int]:
        with self._lock:
            return self._blacklisted_nodes_locked()

    def tick(self) -> None:
        """Advance one scheduling wave: blacklists decay toward expiry."""
        with self._lock:
            for node in range(self.num_nodes):
                if self._blacklist_left[node] > 0:
                    self._blacklist_left[node] -= 1
                    if self._blacklist_left[node] == 0:
                        self.consecutive_failures[node] = 0

    def pick_node(self, avoid: int | None = None) -> int:
        """Round-robin over healthy nodes, skipping ``avoid`` (the node the
        task last failed on) whenever any alternative exists."""
        with self._lock:
            candidates = [
                n
                for n in range(self.num_nodes)
                if not self._is_blacklisted_locked(n)
            ]
            if not candidates:
                candidates = list(range(self.num_nodes))
            if avoid is not None and len(candidates) > 1:
                candidates = [n for n in candidates if n != avoid] or candidates
            node = candidates[self._rr % len(candidates)]
            self._rr += 1
            return node

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "consecutive_failures": list(self.consecutive_failures),
                "total_failures": list(self.total_failures),
                "blacklisted": self._blacklisted_nodes_locked(),
                "blacklist_events": self.blacklist_events,
            }


@dataclass
class _PhaseStats:
    launched: int = 0
    failed: int = 0
    timeouts: int = 0
    backoff_seconds: float = 0.0
    retries: dict[int, int] | None = None  # filled at phase end
    #: final paths the winning attempts published (output commit on).
    published: list[str] = field(default_factory=list)


class JobTracker:
    """Runs one job at a time against a DFS and a worker pool."""

    def __init__(
        self,
        dfs: DFS,
        executor: ExecutionBackend,
        fault_policy: FaultPolicy | None = None,
        num_nodes: int | None = None,
    ) -> None:
        self.dfs = dfs
        self.executor = executor
        self.fault_policy = fault_policy or FailNever()
        self.node_health = NodeHealth(
            num_nodes if num_nodes is not None else max(executor.max_workers, 1)
        )
        #: Lazily-built shared-memory exporter for out-of-process backends
        #: (:class:`~repro.dfs.shm.ShmExporter`); segments live for the
        #: tracker's lifetime and are retired by :meth:`shutdown`.
        #: Guarded by ``_exporter_lock``: the dataflow scheduler drives
        #: waves of several jobs concurrently and ShmExporter has no
        #: internal locking.
        self._exporter = None
        self._exporter_lock = threading.Lock()

    def shutdown(self) -> None:
        """Retire tracker-owned resources (shared-memory exports)."""
        with self._exporter_lock:
            if self._exporter is not None:
                self._exporter.close()
                self._exporter = None

    def _export_namespace(self):
        """Sync the sealed namespace into shared segments (out-of-process
        dispatch); generation-keyed, so unchanged files are free."""
        with self._exporter_lock:
            if self._exporter is None:
                from ..dfs.shm import ShmExporter

                self._exporter = ShmExporter(self.dfs)
            return self._exporter.sync()

    def _adopt_result_segment(self, seg, files) -> None:
        """Hand a landed result segment to the wave's exporter."""
        with self._exporter_lock:
            self._exporter.adopt(seg, files)

    # -- generic phase runner --------------------------------------------------

    def _sleep(self, seconds: float) -> None:
        """Backoff sleep, isolated for tests to stub."""
        time.sleep(seconds)

    def _run_phase(
        self,
        conf: JobConf,
        kind: TaskKind,
        job_id: JobId,
        work_items: list[Any],
        run_one,
        tracer: Tracer | NullTracer = NULL_TRACER,
        job_span: Span | _NullSpan = NULL_SPAN,
        shipped_conf: Any = None,
    ) -> tuple[list[Any], _PhaseStats]:
        """Drive one phase (map or reduce) to completion.

        ``work_items[i]`` is the input of logical task *i*; ``run_one(item,
        attempt_id, node)`` executes one attempt on a simulated worker node.
        ``shipped_conf`` is ``conf`` pickled for an out-of-process backend,
        ``None`` in process.
        Returns per-task results in task order plus launch/failure statistics.

        Each retry wave gets a WAVE span under ``job_span`` and each attempt
        a TASK span under its wave (all of them the shared no-op span under
        the null tracer).  Task spans are opened *inside* the worker thread
        so DFS operations performed by the attempt nest under them; the
        parent is passed explicitly because worker threads do not inherit
        the driver's context.
        """
        # Register this job's name so name-aware fault policies resolve each
        # attempt against *its own* job, even when the dataflow scheduler
        # interleaves attempts of several live jobs.
        self.fault_policy.note_job(job_id, conf.name)
        in_process = shipped_conf is None

        policy = conf.retry
        stats = _PhaseStats()
        results: list[Any] = [None] * len(work_items)
        next_attempt = [0] * len(work_items)
        pending = list(range(len(work_items)))
        failures: dict[int, list[AttemptFailure]] = {i: [] for i in pending}
        last_failed_node: dict[int, int] = {}
        timed_out_tasks: set[int] = set()
        # Worker threads insert task spans concurrently (CN008: the thunks
        # escape into the executor); every access takes spans_lock.
        spans_lock = threading.Lock()
        attempt_spans: dict[tuple[int, int], Any] = {}
        wave_no = 0

        def fail_permanently(idx: int) -> None:
            history = failures[idx]
            last = history[-1].error if history else RuntimeError("unknown failure")
            raise JobFailedError(
                conf.name,
                TaskId(job=job_id, kind=kind, index=idx),
                last,
                attempts=history,
                trace_id=tracer.trace_id or None,
                job_span_id=job_span.span_id or None,
            )

        def in_task_span(
            idx: int, attempt_id: TaskAttemptId, node: int, wave_span, body
        ) -> Any:
            """Run ``body`` — an in-process attempt, or the driver-side
            landing of a remote one — inside that attempt's TASK span."""
            with tracer.span(
                attempt_id.name,
                SpanKind.TASK,
                parent=wave_span,
                attrs={
                    "task": idx,
                    "attempt": attempt_id.attempt,
                    "node": node,
                    "phase": kind.value,
                },
            ) as tspan:
                # Never crosses a process boundary (the ProcessPoolBackend
                # ships RemoteTask descriptors and lands them driver-side),
                # so the captured lock is shareable.
                with spans_lock:  # lint: ignore[PS007]
                    attempt_spans[(idx, attempt_id.attempt)] = tspan
                out = body()
                trace = getattr(out, "trace", None)
                if trace is not None:
                    tspan.set(
                        bytes_read=trace.bytes_read,
                        bytes_written=trace.bytes_written,
                        bytes_shuffled=trace.bytes_shuffled,
                        flops=trace.flops,
                    )
                return out

        def make_thunk(idx: int, attempt_id: TaskAttemptId, node: int, wave_span):
            item = work_items[idx]

            def attempt() -> Any:  # task-boundary
                return in_task_span(
                    idx, attempt_id, node, wave_span,
                    lambda: run_one(item, attempt_id, node),
                )

            return attempt

        def span_of(idx: int, attempt_id: TaskAttemptId) -> Any:
            # NULL_SPAN for an attempt that never started (starved, killed
            # before dispatch) as much as for an untraced one.
            with spans_lock:
                return attempt_spans.get((idx, attempt_id.attempt), NULL_SPAN)

        def land_remote(
            outcome: Any, idx: int, attempt_id: TaskAttemptId, node: int, wave_span
        ) -> Any:
            """Land one out-of-process outcome: replay its write-back through
            the accounted DFS paths under the attempt's TASK span (the
            replay's write records fold into it via the ambient context).

            Mirrors the in-process thunk contract — the attempt result on
            success, the exception object on failure — so the outcome
            handling below is backend-agnostic.
            """
            from .remote import materialize_remote_outcome

            def land() -> Any:
                if isinstance(outcome, Exception):
                    raise outcome
                materialize_remote_outcome(
                    self.dfs, outcome, self._adopt_result_segment
                )
                return outcome.result

            try:
                result = in_task_span(idx, attempt_id, node, wave_span, land)
            except Exception as exc:  # noqa: BLE001 - becomes attempt failure
                return exc
            # The attempt already ran in a child; stretch the span back so
            # its duration covers the attempt's wall clock, not just the
            # replay.
            tspan = span_of(idx, attempt_id)
            if tspan.end is not None:
                tspan.start = min(
                    tspan.start, tspan.end - result.trace.wall_seconds
                )
            return result

        while pending:
            # Backoff before a retry wave: the wave launches together, so
            # sleep the longest delay any of its tasks has earned (a task's
            # first attempt has earned none).
            delay = max(
                (
                    policy.delay_for(next_attempt[idx], key=f"{job_id}:{kind.value}:{idx}")
                    for idx in pending
                    if next_attempt[idx] > 0
                ),
                default=0.0,
            )
            if delay > 0:
                self._sleep(delay)
                stats.backoff_seconds += delay
            # Build the wave: one attempt per pending task, two when the task
            # just timed out (a hung attempt hints at a slow node; hedge the
            # retry).
            wave: list[tuple[int, TaskAttemptId, int]] = []
            for idx in pending:
                copies = 2 if idx in timed_out_tasks else 1
                for _ in range(copies):
                    attempt_no = next_attempt[idx]
                    if attempt_no >= policy.max_attempts:
                        break
                    next_attempt[idx] += 1
                    attempt_id = TaskAttemptId(
                        task=TaskId(job=job_id, kind=kind, index=idx),
                        attempt=attempt_no,
                    )
                    node = self.node_health.pick_node(avoid=last_failed_node.get(idx))
                    wave.append((idx, attempt_id, node))
            if not wave:
                fail_permanently(pending[0])

            still_pending: set[int] = set(pending)
            wave_timed_out: set[int] = set()
            with tracer.span(
                f"{kind.value}-wave-{wave_no}",
                SpanKind.WAVE,
                parent=job_span,
                attrs={"phase": kind.value, "wave": wave_no, "tasks": len(wave)},
            ) as wave_span:
                if in_process:
                    thunks = [
                        make_thunk(idx, attempt_id, node, wave_span)
                        for idx, attempt_id, node in wave
                    ]
                else:
                    from .remote import Pickled, RemoteTask

                    manifest = Pickled.of(self._export_namespace())
                    thunks = [
                        RemoteTask(
                            kind=kind,
                            conf=shipped_conf,
                            item=work_items[idx],
                            attempt_id=attempt_id,
                            node=node,
                            fault=self.fault_policy.plan(attempt_id, node),
                            manifest=manifest,
                        )
                        for idx, attempt_id, node in wave
                    ]
                stats.launched += len(thunks)

                def process_outcome(pos: int, outcome: Any) -> None:
                    """Land one attempt outcome the moment it is known.

                    Runs in the driver thread (the backend's ``on_outcome``
                    contract), so the bookkeeping needs no locks.  Publishing
                    the winner's staged files *here* — while sibling attempts
                    of the same wave still run — is what lets a dataflow
                    scheduler start downstream tasks before this phase ends.
                    """
                    idx, attempt_id, node = wave[pos]
                    if not in_process:
                        outcome = land_remote(
                            outcome, idx, attempt_id, node, wave_span
                        )
                    if isinstance(outcome, Exception):
                        if getattr(outcome, "fatal", False):
                            # Non-retryable (e.g. an injected driver crash):
                            # propagate immediately — no cleanup, exactly as
                            # if the master process died at this point.  The
                            # backend kills or abandons the wave's other
                            # inflight attempts on the way out.
                            raise outcome
                        stats.failed += 1
                        timed_out = isinstance(outcome, TaskTimeoutError)
                        if timed_out:
                            stats.timeouts += 1
                            # on_outcome runs in the driver thread (backend
                            # contract), so these mutations are single-threaded.
                            wave_timed_out.add(idx)  # lint: ignore[CN008]
                        failures[idx].append(
                            AttemptFailure(
                                attempt=attempt_id,
                                node=node,
                                error=outcome,
                                timed_out=timed_out,
                                span_id=span_of(idx, attempt_id).span_id or None,
                            )
                        )
                        last_failed_node[idx] = node  # lint: ignore[CN008]
                        self.node_health.record_failure(node)
                        # Roll back whatever the failed attempt staged (a
                        # timed-out zombie may re-create debris afterwards;
                        # it stays invisible under /_tmp until fsck).
                        self.dfs.discard_staging(
                            staging_dir(f"attempt-{attempt_id.name}")
                        )
                        return
                    self.node_health.record_success(node)
                    staged = getattr(outcome, "staged", None)
                    if idx in still_pending:
                        # First success wins; later duplicates are discarded.
                        # Task commit: atomically publish the winner's staged
                        # files to their final paths, dropping its staging
                        # directory, before recording success.  An attempt
                        # that staged nothing (output commit off) has nothing
                        # to publish.
                        if staged:
                            self.dfs.publish(
                                list(staged), staging_dir(f"attempt-{attempt_id.name}")
                            )
                            stats.published.extend(dst for _, dst in staged)
                        results[idx] = outcome  # lint: ignore[CN008]
                        still_pending.discard(idx)  # lint: ignore[CN008]
                        # Stamp the winning attempt so reconciliation counts
                        # each task's bytes exactly once even under
                        # speculation.
                        span_of(idx, attempt_id).set(committed=True)
                    elif staged:
                        self.dfs.discard_staging(
                            staging_dir(f"attempt-{attempt_id.name}")
                        )

                self.executor.run_all(
                    thunks,
                    deadline=policy.attempt_deadline,
                    on_outcome=process_outcome,
                )
            wave_no += 1
            self.node_health.tick()

            exhausted = [
                idx
                for idx in still_pending
                if next_attempt[idx] >= policy.max_attempts
            ]
            if exhausted:
                fail_permanently(exhausted[0])
            pending = sorted(still_pending)
            timed_out_tasks = wave_timed_out & still_pending

        stats.retries = {
            idx: attempts - 1
            for idx, attempts in enumerate(next_attempt)
            if attempts > 1
        }
        return results, stats

    # -- job execution ----------------------------------------------------------

    def run_job(
        self,
        conf: JobConf,
        job_id: JobId,
        tracer: Tracer | NullTracer = NULL_TRACER,
        job_span: Span | _NullSpan = NULL_SPAN,
    ) -> JobResult:
        counters = Counters()

        # Out-of-process backends get picklable descriptors instead of
        # closures, with the conf pickled once (or the procsafety pointer).
        shipped_conf = None
        if not getattr(self.executor, "in_process", True):
            from .remote import ensure_remote_runnable

            shipped_conf = ensure_remote_runnable(conf)

        # Map phase.
        def run_map(
            split: InputSplit, attempt_id: TaskAttemptId, node: int
        ) -> MapAttemptResult:
            return run_map_attempt(
                self.dfs, conf, split, attempt_id, self.fault_policy, node=node
            )

        map_results, map_stats = self._run_phase(
            conf, TaskKind.MAP, job_id, list(conf.splits), run_map,
            tracer=tracer, job_span=job_span, shipped_conf=shipped_conf,
        )
        counters.increment(TASK_GROUP, LAUNCHED_MAPS, map_stats.launched)
        counters.increment(TASK_GROUP, FAILED_MAPS, map_stats.failed)
        if map_stats.timeouts:
            counters.increment(TASK_GROUP, TIMED_OUT_MAPS, map_stats.timeouts)
        for res in map_results:
            counters.merge(res.counters)

        result = JobResult(
            job_id=job_id,
            name=conf.name,
            succeeded=True,
            map_traces=[r.trace for r in map_results],
            counters=counters,
            attempts_launched=map_stats.launched,
            attempts_failed=map_stats.failed,
            attempts_timed_out=map_stats.timeouts,
            backoff_seconds=map_stats.backoff_seconds,
            map_retries=map_stats.retries or {},
            published_paths=list(map_stats.published),
        )

        if conf.is_map_only:
            return result

        # Shuffle.
        merged = merge_map_outputs(
            [r.partitions for r in map_results], conf.num_reduce_tasks
        )

        # Reduce phase.
        def run_reduce(
            partition: list[tuple[Any, Any]], attempt_id: TaskAttemptId, node: int
        ) -> ReduceAttemptResult:
            return run_reduce_attempt(
                self.dfs, conf, partition, attempt_id, self.fault_policy, node=node
            )

        reduce_results, reduce_stats = self._run_phase(
            conf,
            TaskKind.REDUCE,
            job_id,
            [merged[p] for p in range(conf.num_reduce_tasks)],
            run_reduce,
            tracer=tracer,
            job_span=job_span,
            shipped_conf=shipped_conf,
        )
        counters.increment(TASK_GROUP, LAUNCHED_REDUCES, reduce_stats.launched)
        counters.increment(TASK_GROUP, FAILED_REDUCES, reduce_stats.failed)
        if reduce_stats.timeouts:
            counters.increment(TASK_GROUP, TIMED_OUT_REDUCES, reduce_stats.timeouts)
        for res in reduce_results:
            counters.merge(res.counters)

        result.reduce_traces = [r.trace for r in reduce_results]
        result.reduce_retries = reduce_stats.retries or {}
        result.reduce_outputs = {
            p: reduce_results[p].output for p in range(conf.num_reduce_tasks)
        }
        result.attempts_launched += reduce_stats.launched
        result.attempts_failed += reduce_stats.failed
        result.attempts_timed_out += reduce_stats.timeouts
        result.backoff_seconds += reduce_stats.backoff_seconds
        result.published_paths.extend(reduce_stats.published)
        return result
