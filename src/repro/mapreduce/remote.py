"""Out-of-process task execution: descriptors, worker DFS, write-back.

The processes backend cannot ship the master's traced closures — they
capture the live DFS, locks, and tracer.  Instead the master builds a
picklable :class:`RemoteTask` per attempt (conf + work item + a
pre-computed :class:`~repro.mapreduce.faults.ScriptedFault` directive + the
shared-memory :class:`~repro.dfs.shm.ShmManifest`), the worker executes it
against a :class:`WorkerDFS`, and a :class:`RemoteOutcome` flows back.
Conf and manifest travel :class:`Pickled` once per job and per wave, and a
worker unpickles each at most once (:func:`load_blob`).

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
  and the reconciliation report hold without any special cases.  The
  result segment is then adopted by the exporter, not unlinked
  (:meth:`~repro.dfs.shm.ShmExporter.adopt`): the next export maps each
  published file where the child wrote it.
"""

from __future__ import annotations

import itertools
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..dfs import formats
from ..dfs.iostats import IOStats
from ..dfs.namenode import normalize
from ..dfs.shm import (
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

#: Unpickled blobs a worker keeps: a few live jobs' confs and their waves'
#: manifests under the dataflow scheduler, one of each under barrier.
BLOB_CACHE_ENTRIES = 8

#: Driver-side serials (``next()`` on a ``count`` is atomic under the GIL).
_serials = itertools.count(1)


class Pickled(NamedTuple):
    """An object pickled once, named by a driver-side serial (not ``id()``,
    which a collected object hands on)."""

    key: int
    data: bytes

    @classmethod
    def of(cls, obj: Any) -> "Pickled":
        return cls(next(_serials), pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def load_blob(blob: Pickled, cache: "OrderedDict[int, Any]") -> Any:
    """``blob`` unpickled through a worker's bounded cache (least recently
    used evicted first)."""
    if blob.key in cache:
        cache.move_to_end(blob.key)
        return cache[blob.key]
    value = cache[blob.key] = pickle.loads(blob.data)
    if len(cache) > BLOB_CACHE_ENTRIES:
        cache.popitem(last=False)
    return value


@dataclass
class RemoteTask:
    """One picklable attempt descriptor shipped to a pool worker."""

    kind: TaskKind
    #: The job's :class:`~repro.mapreduce.job.JobConf`, pickled once per job.
    conf: Pickled
    #: The map split or the merged reduce partition.
    item: Any
    attempt_id: TaskAttemptId
    node: int
    #: Driver-computed fault directive (stateful policies never cross).
    fault: ScriptedFault
    #: The wave's :class:`~repro.dfs.shm.ShmManifest`, pickled once per wave.
    manifest: Pickled
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


def ensure_remote_runnable(conf: JobConf) -> Pickled:
    """The conf pickled once, as it ships; fails fast — before any wave
    launches — when it cannot cross the process boundary, with a pointer at
    the static gate."""
    try:
        return Pickled.of(conf)
    except Exception as exc:
        raise TaskSerializationError(
            f"job {conf.name!r} cannot run on a process backend: {exc!r}. "
            f"Factories and params must be picklable (no "
            f"lambdas or closures over live objects) — run `python -m repro "
            f"lint --procsafety` for the static diagnosis."
        ) from None


def execute_remote_task(
    task: RemoteTask, segments: dict[str, Any], blobs: "OrderedDict[int, Any]"
) -> RemoteOutcome:
    """Run one attempt inside a pool worker and package its outcome.

    ``segments`` is the worker's persistent name → ``SharedMemory`` cache;
    attachments outlive the task and are pruned to the current manifest so
    a long-lived worker does not accumulate dead mappings.  ``blobs`` is
    its :func:`load_blob` cache.
    """
    from .task import run_map_attempt, run_reduce_attempt

    conf = load_blob(task.conf, blobs)
    manifest = load_blob(task.manifest, blobs)
    view = SharedDFSView(manifest, segments=segments)
    wdfs = WorkerDFS(view)
    try:
        if task.kind is TaskKind.MAP:
            result = run_map_attempt(
                wdfs, conf, task.item, task.attempt_id, task.fault,
                node=task.node,
            )
        else:
            result = run_reduce_attempt(
                wdfs, conf, task.item, task.attempt_id, task.fault,
                node=task.node,
            )
    finally:
        view.prune(manifest.segment_names())

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
        # Close our mapping but do not unlink: the driver attaches the
        # segment by name, lands the bytes and hands it to its exporter.
        close_segment(seg)
        outcome.staged_segment = (task.result_segment, entries)
    else:
        outcome.inline_staged = dict(wdfs.staged_data)
    return outcome


def materialize_remote_outcome(
    dfs: "DFS", outcome: RemoteOutcome, adopt: Callable[..., None]
) -> None:
    """Driver-side landing: replay the attempt's write-back into the real
    DFS through the ordinary accounted paths.

    Staged files are re-staged in the attempt's original stage order, so
    the commit ledger and the master's publish/discard decision see exactly
    what an in-process attempt would have produced.  A result segment is
    then passed to ``adopt`` with ``(staged_path, generation, offset,
    length)`` per file; if landing fails first, it is unlinked here.
    """
    if outcome.staged_segment is None:
        for src, _final in outcome.result.staged:
            dfs.stage_bytes(src, outcome.inline_staged[src])
    else:
        name, entries = outcome.staged_segment
        where = {path: (offset, length) for path, offset, length in entries}
        seg = attach_segment(name)
        files = []
        try:
            for src, _final in outcome.result.staged:
                offset, length = where[src]
                dfs.stage_bytes(src, bytes(seg.buf[offset : offset + length]))
                generation = dfs.namenode.get_file(src, include_pending=True).generation
                files.append((src, generation, offset, length))
        except BaseException:
            close_segment(seg, unlink=True)
            raise
        adopt(seg, files)
    for path, data in outcome.direct_writes:
        dfs.write_bytes(path, data)


__all__ = [
    "INLINE_PAYLOAD_LIMIT",
    "Pickled",
    "RemoteOutcome",
    "RemoteTask",
    "WorkerDFS",
    "ensure_remote_runnable",
    "execute_remote_task",
    "load_blob",
    "materialize_remote_outcome",
]
