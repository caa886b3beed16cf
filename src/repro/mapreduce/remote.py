"""Out-of-process task execution: descriptors, worker DFS, write-back.

The processes backend cannot ship the master's traced closures — they
capture the live DFS, locks, and tracer.  Instead the master builds a
picklable :class:`RemoteTask` per attempt (conf + work item + a
pre-computed :class:`~repro.mapreduce.faults.ScriptedFault` directive + the
shared-memory :class:`~repro.dfs.shm.ShmManifest`), the worker executes it
against a :class:`WorkerDFS`, and a :class:`RemoteOutcome` flows back.

The data path is asymmetric by design:

* **Reads** never cross the pipe: the worker maps read-only views straight
  onto the exported segments (zero-copy ``frombuffer`` for matrices, PR 5's
  read path across the process boundary).  Worker-side reads are *logical*
  — accounted on the task's trace and counters exactly like any attempt —
  while the one *physical* read per file happened driver-side at export.
* **Writes** are buffered: staged files come back as a ``(path, segment)``
  payload (inline bytes when small), and the *driver* replays them through
  ``dfs.stage_bytes`` before the normal publish/discard commit decision —
  so the PR 7 crash-consistency ledger (staged == published + discarded)
  and the reconciliation report hold without any special cases.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..dfs import formats
from ..dfs.iostats import IOStats
from ..dfs.namenode import normalize
from ..dfs.shm import (
    ShmManifest,
    SharedDFSView,
    attach_segment,
    close_segment,
    create_segment,
    new_segment_name,
)
from .backends import TaskSerializationError
from .faults import ScriptedFault
from .job import JobConf
from .types import TaskAttemptId, TaskKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfs.filesystem import DFS
    from .task import MapAttemptResult, ReduceAttemptResult

#: Staged payloads at or above this many bytes travel via a shared-memory
#: result segment instead of being pickled through the result pipe.
INLINE_PAYLOAD_LIMIT = 128 * 1024


@dataclass
class RemoteTask:
    """One picklable attempt descriptor shipped to a pool worker."""

    kind: TaskKind
    conf: JobConf
    #: The map split or the merged reduce partition.
    item: Any
    attempt_id: TaskAttemptId
    node: int
    #: Driver-computed fault directive (stateful policies never cross).
    fault: ScriptedFault
    manifest: ShmManifest
    #: Pre-assigned segment name for large write-back, so the driver can
    #: scrub it even when the worker is killed mid-attempt.
    result_segment: str = field(default_factory=new_segment_name)


@dataclass
class RemoteOutcome:
    """What a worker sends back for one successful attempt."""

    result: "MapAttemptResult | ReduceAttemptResult"
    #: ``(segment_name, [(staged_path, offset, length), ...])`` when the
    #: staged bytes travelled via shared memory.
    staged_segment: tuple[str, list[tuple[str, int, int]]] | None = None
    #: Small staged payloads, pickled inline: ``staged_path -> bytes``.
    inline_staged: dict[str, bytes] = field(default_factory=dict)
    #: Direct (non-commit) writes, replayed verbatim by the driver.
    direct_writes: list[tuple[str, bytes]] = field(default_factory=list)


class _ZeroCopyMatrixReader:
    """The worker-side stand-in for the decoded-block cache: serves
    ``read_matrix`` as a read-only ``frombuffer`` view onto the shared
    segment — no decode copy, no pickle, no physical read."""

    def read_through(self, dfs: "WorkerDFS", path: str):
        buf = dfs.view.read_buffer(path)
        return formats.decode_matrix(buf), len(buf)


class WorkerDFS:
    """The DFS surface a task context sees inside a pool worker.

    Reads delegate to the :class:`~repro.dfs.shm.SharedDFSView`; writes are
    buffered for driver-side replay (staged writes keyed by their staging
    path, direct writes in order).  A task may read back its own buffered
    writes — matching the read-your-writes behaviour of the shared DFS.
    ``stats`` is a private :class:`~repro.dfs.iostats.IOStats` that absorbs
    incidental bookkeeping calls and is discarded with the worker: physical
    I/O accounting belongs to the driver, which already recorded the export
    reads and will record the write-back.
    """

    def __init__(self, view: SharedDFSView) -> None:
        self.view = view
        self.stats = IOStats()
        self.cache = _ZeroCopyMatrixReader()
        self.staged_data: dict[str, bytes] = {}
        self.direct_writes: list[tuple[str, bytes]] = []

    # -- reads ---------------------------------------------------------------

    def _own_write(self, path: str) -> bytes | None:
        norm = normalize(path)
        if norm in self.staged_data:
            return self.staged_data[norm]
        for written, data in reversed(self.direct_writes):
            if written == norm:
                return data
        return None

    def read_bytes(self, path: str, *, local: bool = False) -> bytes:
        own = self._own_write(path)
        if own is not None:
            return own
        return self.view.read_bytes(path)

    def read_text(self, path: str, *, local: bool = False) -> str:
        return self.read_bytes(path).decode("utf-8")

    def read_range(
        self, path: str, offset: int, length: int, *, local: bool = False
    ) -> bytes:
        own = self._own_write(path)
        if own is not None:
            return bytes(memoryview(own)[offset : offset + length])
        return self.view.read_range(path, offset, length)

    def exists(self, path: str) -> bool:
        if self._own_write(path) is not None:
            return True
        return self.view.exists(path)

    def is_dir(self, path: str) -> bool:
        return self.view.is_dir(path)

    def file_size(self, path: str) -> int:
        own = self._own_write(path)
        if own is not None:
            return len(own)
        return self.view.file_size(path)

    def list_dir(self, path: str) -> list[str]:
        return self.view.list_dir(path)

    # -- writes --------------------------------------------------------------

    def write_bytes(
        self,
        path: str,
        data: bytes,
        *,
        overwrite: bool = True,
        pending: bool = False,
    ) -> None:
        self.direct_writes.append((normalize(path), bytes(data)))

    def write_text(self, path: str, text: str, *, overwrite: bool = True) -> None:
        self.write_bytes(path, text.encode("utf-8"))

    def stage_bytes(self, path: str, data: bytes) -> None:
        self.staged_data[normalize(path)] = bytes(data)

    def mkdirs(self, path: str) -> None:  # noqa: B027 - namespace is virtual
        pass


def ensure_remote_runnable(conf: JobConf) -> None:
    """Fail fast — before any wave launches — when a job conf cannot cross
    the process boundary, with a pointer at the static gate."""
    probe = (
        conf.mapper_factory,
        conf.reducer_factory,
        conf.combiner_factory,
        conf.partitioner,
        conf.grouping_fn,
        conf.params,
        conf.splits,
    )
    try:
        pickle.dumps(probe)
    except Exception as exc:
        raise TaskSerializationError(
            f"job {conf.name!r} cannot run on a process backend: {exc!r}. "
            f"Factories, partitioners, and params must be picklable (no "
            f"lambdas or closures over live objects) — run `python -m repro "
            f"lint --procsafety` for the static diagnosis."
        ) from None


def execute_remote_task(
    task: RemoteTask, segments: dict[str, Any] | None = None
) -> RemoteOutcome:
    """Run one attempt inside a pool worker and package its outcome.

    ``segments`` is the worker's persistent name → ``SharedMemory`` cache;
    attachments outlive the task and are pruned to the current manifest so
    a long-lived worker does not accumulate dead mappings.
    """
    from .task import run_map_attempt, run_reduce_attempt

    view = SharedDFSView(task.manifest, segments=segments)
    wdfs = WorkerDFS(view)
    try:
        if task.kind is TaskKind.MAP:
            result = run_map_attempt(
                wdfs, task.conf, task.item, task.attempt_id, task.fault,
                node=task.node,
            )
        else:
            result = run_reduce_attempt(
                wdfs, task.conf, task.item, task.attempt_id, task.fault,
                node=task.node,
            )
    finally:
        if segments is not None:
            view.prune(task.manifest.segment_names())
        else:
            view.close()

    outcome = RemoteOutcome(result=result, direct_writes=wdfs.direct_writes)
    total = sum(len(data) for data in wdfs.staged_data.values())
    if wdfs.staged_data and total >= INLINE_PAYLOAD_LIMIT:
        seg = create_segment(total, name=task.result_segment)
        entries: list[tuple[str, int, int]] = []
        offset = 0
        for path, data in wdfs.staged_data.items():
            seg.buf[offset : offset + len(data)] = data
            entries.append((path, offset, len(data)))
            offset += len(data)
        # Close our mapping but do not unlink: the driver adopts the
        # segment by name and unlinks it after landing the bytes.
        close_segment(seg)
        outcome.staged_segment = (task.result_segment, entries)
    else:
        outcome.inline_staged = dict(wdfs.staged_data)
    return outcome


def materialize_remote_outcome(dfs: "DFS", outcome: RemoteOutcome) -> None:
    """Driver-side landing: replay the attempt's write-back into the real
    DFS through the ordinary accounted paths.

    Staged files are re-staged in the attempt's original stage order, so
    the commit ledger and the master's publish/discard decision see exactly
    what an in-process attempt would have produced.
    """
    staged_bytes: dict[str, bytes] = dict(outcome.inline_staged)
    if outcome.staged_segment is not None:
        name, entries = outcome.staged_segment
        seg = attach_segment(name)
        try:
            for path, offset, length in entries:
                staged_bytes[path] = bytes(seg.buf[offset : offset + length])
        finally:
            close_segment(seg, unlink=True)
    for src, _final in outcome.result.staged:
        dfs.stage_bytes(src, staged_bytes[src])
    for path, data in outcome.direct_writes:
        dfs.write_bytes(path, data)


__all__ = [
    "INLINE_PAYLOAD_LIMIT",
    "RemoteOutcome",
    "RemoteTask",
    "WorkerDFS",
    "ensure_remote_runnable",
    "execute_remote_task",
    "materialize_remote_outcome",
]
