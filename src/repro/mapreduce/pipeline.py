"""Multi-job pipelines with interleaved master-side phases.

The paper's inversion workflow (Figure 2) is a fixed pipeline: a partitioning
job, ``2^d - 1`` LU jobs, and a final inversion job — with small LU
decompositions executed *on the master node* between jobs (Algorithm 2 line 3).
:class:`Pipeline` records both kinds of step so that (a) the total number of
MapReduce jobs can be asserted against the paper's ``2^d + 1`` formula
(Table 3) and (b) the full step sequence can be replayed on the simulated
cluster, master phases serializing on one node exactly as in the paper's
Section 6.1 discussion.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from ..dfs.commit import CommitLog, CommitScope, _quote
from ..telemetry.spans import SpanKind, current_tracer
from .job import JobConf
from .runtime import MapReduceRuntime
from .types import JobResult, TaskTrace


class PhaseIO(Protocol):
    """Byte-accounting adapter a master phase runs against (e.g.
    :class:`~repro.inversion.driver.MasterIO`)."""

    def take_io(self) -> tuple[int, int]: ...


@dataclass
class MasterPhase:
    """A serial computation on the master node between jobs."""

    name: str
    flops: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    wall_seconds: float = 0.0


@dataclass
class PipelineRecord:
    """Ordered log of everything a pipeline executed."""

    steps: list[JobResult | MasterPhase] = field(default_factory=list)

    @property
    def job_results(self) -> list[JobResult]:
        return [s for s in self.steps if isinstance(s, JobResult)]

    @property
    def master_phases(self) -> list[MasterPhase]:
        return [s for s in self.steps if isinstance(s, MasterPhase)]

    @property
    def num_jobs(self) -> int:
        return len(self.job_results)

    def all_traces(self) -> list[TaskTrace]:
        traces: list[TaskTrace] = []
        for job in self.job_results:
            traces.extend(job.traces)
        return traces

    def total_wall_seconds(self) -> float:
        return sum(
            s.wall_seconds for s in self.steps
        )


class Pipeline:
    """Thin driver that runs jobs / master phases and records them in order.

    A job conf arrives complete — its run policy (``retry``,
    ``output_commit``) is attached where the conf is built — and is never
    modified here.  ``commit_log`` is the manifest log for step-done markers
    and phase staging; ``None`` is the one meaning of "commit protocol off".
    """

    def __init__(
        self, runtime: MapReduceRuntime, commit_log: CommitLog | None = None
    ) -> None:
        self.runtime = runtime
        self.commit_log = commit_log
        self.record = PipelineRecord()
        self._phase_seq = 0  # guarded-by: _seq_lock
        # Only contended by the dataflow scheduler, whose unit threads open
        # phase scopes concurrently; barrier mode is single-threaded here.
        self._seq_lock = threading.Lock()

    # -- execute / commit split --------------------------------------------------
    #
    # ``execute_*`` runs a step (publishing its data blocks immediately);
    # ``commit_*`` appends it to the record, writes its manifest and then
    # deletes the files it retires.  The in-order runner calls them back to
    # back (as ``run_job`` and ``master_phase`` do, in one call); the
    # dataflow scheduler defers ``commit_*`` to its plan-order flusher, so
    # ``record.steps`` and the manifests stay in plan order under concurrent
    # completion — and a file is retired only after every step before its
    # retirer in plan order, each of its readers among them, has committed.

    def execute_job(
        self,
        conf: JobConf,
        *,
        parent_span=None,
        span_attrs: dict | None = None,
    ) -> JobResult:
        """Run ``conf`` — without committing."""
        return self.runtime.run_job(
            conf, parent_span=parent_span, span_attrs=span_attrs
        )

    def commit_job(
        self, name: str, result: JobResult, retired: Sequence[str] = ()
    ) -> None:
        """Record ``result``, write the job's durable done-marker and delete
        the ``retired`` files."""
        self.record.steps.append(result)
        # The manifest is the job's durable done-marker.  A crash anywhere
        # before it is written makes resume re-run the job (idempotently —
        # re-publishing overwrites the same final paths).
        self._commit(f"job:{name}", result.published_paths, retired)

    def _commit(
        self, step: str, published: list[str] | None, retired: Sequence[str]
    ) -> None:
        if self.commit_log is not None and published is not None:
            self.commit_log.record(step, published, retired)
        # After the manifest, in one call: a crash in between leaves files
        # a sound manifest retires, which fsck deletes.
        if retired:
            self.runtime.dfs.delete(*retired)

    def run_job(self, conf: JobConf) -> JobResult:
        result = self.execute_job(conf)
        self.commit_job(conf.name, result)
        return result

    def _open_phase_scope(
        self, name: str, io: PhaseIO | None
    ) -> CommitScope | None:
        # ``io=None`` has no ``begin_phase`` either: no scope.
        if self.commit_log is None or not hasattr(io, "begin_phase"):
            return None
        with self._seq_lock:
            self._phase_seq += 1
            seq = self._phase_seq
        scope = CommitScope(self.runtime.dfs, f"phase-{seq}-{_quote(name)}")
        io.begin_phase(scope)
        return scope

    def execute_phase(
        self,
        name: str,
        fn: Callable[[], Any],
        *,
        flops: float = 0.0,
        bytes_read: int = 0,
        bytes_written: int = 0,
        io: PhaseIO | None = None,
        parent_span=None,
        span_attrs: dict | None = None,
    ) -> tuple[Any, MasterPhase, list[str] | None]:
        """Run a master phase and publish its writes — without committing.

        When ``io`` is given, the bytes the phase moved are drained from it
        (``take_io``) and added to the declared counts — so callers don't
        have to reach back into the record, and the phase's telemetry span
        carries the byte attributes before it closes.

        With a ``commit_log`` and an ``io`` adapter that supports phase
        scoping (``begin_phase``/``end_phase``), the phase's writes are
        staged and published atomically the moment ``fn`` returns (so
        dataflow dependents' readiness can fire); the record append and the
        ``phase:<name>`` manifest — the phase's durable done-marker — are
        left to :meth:`commit_phase`, which the dataflow scheduler defers
        to plan order.  Returns ``(fn's result, the MasterPhase record,
        published paths)`` — published is ``None`` when no commit scope
        applied (no commit log, or ``io`` without phase scoping).

        ``parent_span`` pins the MASTER_PHASE span's parent explicitly
        (required from scheduler unit threads, which do not inherit the
        driving thread's ambient span).
        """
        scope = self._open_phase_scope(name, io)
        published: list[str] | None = None
        tracer = current_tracer()
        start = time.perf_counter()
        with tracer.span(
            name, SpanKind.MASTER_PHASE, parent=parent_span, attrs=span_attrs
        ) as span:
            out = fn()
            if scope is not None:
                # Publish now — downstream readiness keys on the seal; the
                # manifest (the durable done-marker) waits for commit_phase.
                published = scope.publish()
                io.end_phase()
            if io is not None:
                r, w = io.take_io()
                bytes_read += r
                bytes_written += w
            span.set(
                bytes_read=bytes_read, bytes_written=bytes_written, flops=flops
            )
        phase = MasterPhase(
            name=name,
            flops=flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            wall_seconds=time.perf_counter() - start,
        )
        return out, phase, published

    def commit_phase(
        self,
        name: str,
        phase: MasterPhase,
        published: list[str] | None,
        retired: Sequence[str] = (),
    ) -> None:
        """Record an executed phase, write its ``phase:`` manifest and
        delete the ``retired`` files."""
        self.record.steps.append(phase)
        self._commit(f"phase:{name}", published, retired)

    def master_phase(self, name: str, fn: Callable[[], Any], **kwargs: Any) -> Any:
        """Run ``fn`` serially on the (conceptual) master node, recording its
        declared resource usage for the cluster replay: :meth:`execute_phase`
        (same keywords) then :meth:`commit_phase`, back to back."""
        out, phase, published = self.execute_phase(name, fn, **kwargs)
        self.commit_phase(name, phase, published)
        return out
