"""Shared-memory export of DFS file contents for process-parallel workers.

The in-memory DFS lives in the driver process; a worker running in a child
process cannot follow object references into it.  Instead of pickling block
payloads into every task (serialization on the hot path — the anti-pattern
mrtsqr's C++ pipeline exists to avoid), the driver *exports* the sealed
namespace into ``multiprocessing.shared_memory`` segments once per wave and
ships only a :class:`ShmManifest` — a picklable map of
``path -> (segment, offset, length, generation)``.  Workers attach the
segments and map read-only ``numpy.frombuffer`` views directly onto them,
so PR 5's zero-copy read path survives the process boundary.

Lifetime discipline
-------------------

* Export segments are **driver-owned**: created by :class:`ShmExporter`,
  re-used across waves while file generations are unchanged, unlinked by
  :meth:`ShmExporter.close` (or compaction).  Unlinking with children still
  attached is safe on POSIX — their mappings stay valid until they close.
* Result segments (large task write-back) are created by the *child*; the
  driver lands the bytes, then the exporter adopts the segment
  (:meth:`ShmExporter.adopt`) and maps the published files in place.  It
  is unlinked once no live or still-staged file maps into it, or at
  compaction or close; a landing that fails first unlinks it at once.
* Every open handle in this process is tracked in :data:`REGISTRY` so tests
  can assert nothing leaks after a job ends.
* PS008 close discipline: views are created and consumed in different
  functions from the ones that call ``close()``; no function takes a view
  and then closes its segment.

``resource_tracker`` interplay (CPython 3.11): *every* ``SharedMemory``
construction — attach as well as create — registers the name with the
process's resource tracker, which unlinks still-registered names when it
shuts down.  A forked child shares the driver's tracker process, so its
registrations are harmless no-ops and must **not** be unregistered (that
would strip the driver's crash protection).  A spawned child has its own
tracker, which would destroy shared segments when the child exits — those
registrations must be dropped.  :func:`set_child_tracker_shared` tells this
module which world the current worker process lives in.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .filesystem import DFS

from .namenode import FileNotFound, IsADirectory, NotADirectory, normalize

#: Every segment this package creates carries this name prefix, so leak
#: checks can scan ``/dev/shm`` without false positives from other software.
SEGMENT_PREFIX = "repro-shm-"

#: ``None`` in the driver process; set in worker processes by the pool
#: backend: ``True`` when the worker shares the driver's resource tracker
#: (fork), ``False`` when it has its own (spawn/forkserver).
_CHILD_TRACKER_SHARED: bool | None = None


def set_child_tracker_shared(shared: bool) -> None:
    """Declare this process a pool worker (see module docstring)."""
    global _CHILD_TRACKER_SHARED
    _CHILD_TRACKER_SHARED = shared


def new_segment_name() -> str:
    return SEGMENT_PREFIX + uuid.uuid4().hex[:16]


class SegmentRegistry:
    """Process-local ledger of open shared-memory handles.

    Purely observational: the lifetime tests assert :meth:`live` is empty
    after a job ends, catching leaked exports or un-adopted result segments.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open: dict[str, str] = {}  # guarded-by: _lock

    def add(self, name: str, role: str) -> None:
        with self._lock:
            self._open[name] = role

    def drop(self, name: str) -> None:
        with self._lock:
            self._open.pop(name, None)

    def live(self) -> dict[str, str]:
        with self._lock:
            return dict(self._open)


#: The process-wide registry (one per process; children get their own).
REGISTRY = SegmentRegistry()


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Drop this process's resource-tracker registration for ``seg``."""
    try:
        resource_tracker.unregister(
            getattr(seg, "_name", seg.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker already gone
        pass


def create_segment(
    size: int, name: str | None = None
) -> shared_memory.SharedMemory:
    """Create a segment; ownership per the module's tracker rules."""
    seg = shared_memory.SharedMemory(
        name=name or new_segment_name(), create=True, size=max(size, 1)
    )
    if _CHILD_TRACKER_SHARED is False:
        # Spawned worker: its private tracker would unlink this segment at
        # child exit, destroying it before the driver adopts the bytes.
        _untrack(seg)
    REGISTRY.add(seg.name, "created")
    return seg


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment by name."""
    seg = shared_memory.SharedMemory(name=name)
    if _CHILD_TRACKER_SHARED is False:
        _untrack(seg)
    REGISTRY.add(seg.name, "attached")
    return seg


def close_segment(
    seg: shared_memory.SharedMemory, *, unlink: bool = False
) -> None:
    """Close (and optionally unlink) a segment, updating the registry."""
    name = seg.name
    seg.close()
    if unlink:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
    REGISTRY.drop(name)


def destroy_segment(name: str) -> bool:
    """Best-effort unlink of a segment by name (e.g. after killing the
    child that created it).  Returns whether a segment was found."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race
        return False
    REGISTRY.drop(name)
    return True


@dataclass(frozen=True)
class ShmFile:
    """Where one DFS file's bytes live inside the shared export."""

    segment: str
    offset: int
    length: int
    generation: int


@dataclass(frozen=True)
class ShmManifest:
    """Picklable snapshot of the sealed namespace mapped onto segments.

    ``errors`` carries per-path read failures discovered at export time
    (e.g. every replica lost under a chaos schedule): the *file* is listed
    but unreadable, and a worker touching it gets the recorded error —
    failing just that attempt, exactly as an in-process read would.
    """

    files: dict[str, ShmFile] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: All directory paths at export time (for ``list_dir`` on dirs that
    #: contain only sub-directories and for ``is_dir``).
    dirs: frozenset[str] = frozenset()

    def segment_names(self) -> set[str]:
        return {f.segment for f in self.files.values()}


class SharedDFSView:
    """Read-only DFS facade over a :class:`ShmManifest` (worker side).

    ``segments`` may be shared across views so a long-lived worker keeps
    its attachments between tasks; :meth:`prune` drops attachments the
    current manifest no longer references.  Views handed out by
    :meth:`read_buffer` alias segment memory — callers must not hold them
    across :meth:`close`.
    """

    def __init__(
        self,
        manifest: ShmManifest,
        segments: dict[str, shared_memory.SharedMemory] | None = None,
    ) -> None:
        self.manifest = manifest
        self._segments = segments if segments is not None else {}

    # -- plumbing ------------------------------------------------------------

    def _entry(self, path: str) -> ShmFile:
        norm = normalize(path)
        entry = self.manifest.files.get(norm)
        if entry is None:
            message = self.manifest.errors.get(norm)
            if message is not None:
                raise IOError(
                    f"{norm}: unreadable at export time: {message}"
                )
            if norm in self.manifest.dirs:
                raise IsADirectory(norm)
            raise FileNotFound(norm)
        return entry

    def read_buffer(self, path: str) -> memoryview:
        """The file's bytes as a zero-copy view onto its shared segment."""
        entry = self._entry(path)
        seg = self._segments.get(entry.segment)
        if seg is None:
            seg = attach_segment(entry.segment)
            self._segments[entry.segment] = seg
        return seg.buf[entry.offset : entry.offset + entry.length]

    # -- DFS read surface ----------------------------------------------------

    def read_bytes(self, path: str, *, local: bool = False) -> bytes:
        return bytes(self.read_buffer(path))

    def read_text(self, path: str, *, local: bool = False) -> str:
        return self.read_bytes(path).decode("utf-8")

    def read_range(
        self, path: str, offset: int, length: int, *, local: bool = False
    ) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        buf = self.read_buffer(path)
        return bytes(buf[offset : offset + length])

    def exists(self, path: str) -> bool:
        norm = normalize(path)
        return (
            norm in self.manifest.files
            or norm in self.manifest.errors
            or norm in self.manifest.dirs
        )

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self.manifest.dirs

    def file_size(self, path: str) -> int:
        return self._entry(path).length

    def list_dir(self, path: str) -> list[str]:
        norm = normalize(path)
        if norm in self.manifest.files:
            raise NotADirectory(norm)
        if norm not in self.manifest.dirs:
            raise FileNotFound(norm)
        prefix = norm.rstrip("/") + "/"
        if norm == "/":
            prefix = "/"
        names = set()
        for known in (
            *self.manifest.files,
            *self.manifest.errors,
            *self.manifest.dirs,
        ):
            if known != norm and known.startswith(prefix):
                names.add(known[len(prefix) :].split("/", 1)[0])
        return sorted(names)

    # -- lifetime ------------------------------------------------------------

    def prune(self, keep: set[str]) -> None:
        """Close attachments the current manifest no longer references."""
        for name in list(self._segments):
            if name not in keep:
                try:
                    close_segment(self._segments.pop(name))
                except BufferError:  # pragma: no cover - a view escaped
                    pass

    def close(self) -> None:
        self.prune(set())


class ShmExporter:
    """Incremental, generation-keyed export of the namespace into segments.

    Each :meth:`sync` diffs the sealed namespace against what is already
    exported: unchanged ``(path, generation)`` pairs are re-used verbatim
    (no copy, no read accounting), while new or rewritten files are read
    through the normal accounted DFS read path — so the export shows up in
    iostats and as an ``export`` record on the wave span as the one physical read it
    is, and worker reads against the segments cost nothing — and appended
    into one fresh segment per wave-delta, unless their generation was
    adopted.

    Overwritten or deleted files leave garbage bytes behind in old
    segments.  A segment none of whose files is live (or pending adoption)
    any more is unlinked outright; when the garbage left in segments that
    are still referenced exceeds ``compact_garbage_bytes`` the exporter
    drops every segment and re-exports the live set.
    """

    def __init__(
        self, dfs: "DFS", *, compact_garbage_bytes: int = 64 << 20
    ) -> None:
        self.dfs = dfs
        self.compact_garbage_bytes = compact_garbage_bytes
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: Payload bytes written into each segment of ``_segments``.
        self._segment_bytes: dict[str, int] = {}
        self._files: dict[str, ShmFile] = {}
        #: (generation, message) per path that failed to read, so a broken
        #: file is re-read only when its content actually changes.
        self._errors: dict[str, tuple[int, str]] = {}
        #: generation -> (staged path, place): adopted, not yet published.
        self._adopted: dict[int, tuple[str, ShmFile]] = {}

    def adopt(
        self,
        seg: shared_memory.SharedMemory,
        files: list[tuple[str, int, int, int]],
    ) -> None:
        """Own a landed result segment holding ``files``, each as
        ``(staged_path, generation, offset, length)``.  Publishing is a
        rename and keeps the generation, so :meth:`sync` finds the published
        file here — after the same accounted, checksummed read as any."""
        self._segments[seg.name] = seg
        self._segment_bytes[seg.name] = sum(f[3] for f in files)
        for path, generation, offset, length in files:
            place = ShmFile(seg.name, offset, length, generation)
            self._adopted[generation] = (path, place)

    def sync(self) -> ShmManifest:
        namenode = self.dfs.namenode
        paths = namenode.walk_files("/")
        dirs = self._collect_dirs(paths)
        live: dict[str, ShmFile] = {}
        errors: dict[str, str] = {}
        fresh: list[tuple[str, int]] = []
        for path in paths:
            try:
                generation = namenode.get_file(path).generation
            except FileNotFound:  # pragma: no cover - raced a delete
                continue
            known = self._files.get(path)
            if known is not None and known.generation == generation:
                live[path] = known
                continue
            failed = self._errors.get(path)
            if failed is not None and failed[0] == generation:
                errors[path] = failed[1]
                continue
            fresh.append((path, generation))

        if fresh:
            payloads: list[tuple[str, int, bytes]] = []
            for path, generation in fresh:
                try:
                    data = self.dfs.read_bytes(path, op="export")
                except Exception as exc:
                    self._errors[path] = (generation, str(exc))
                    errors[path] = str(exc)
                    continue
                adopted = self._adopted.pop(generation, None)
                if adopted is not None:
                    live[path] = adopted[1]
                else:
                    payloads.append((path, generation, data))
            if payloads:
                seg = create_segment(sum(len(d) for _, _, d in payloads))
                offset = 0
                for path, generation, data in payloads:
                    seg.buf[offset : offset + len(data)] = data
                    live[path] = ShmFile(
                        segment=seg.name,
                        offset=offset,
                        length=len(data),
                        generation=generation,
                    )
                    offset += len(data)
                self._segments[seg.name] = seg
                self._segment_bytes[seg.name] = offset

        self._files = live
        for path in list(self._errors):
            if path not in errors:
                del self._errors[path]
        # Keep what is still staged.  One published since the walk (only a
        # concurrent job can) is dropped too, and then copied next time.
        self._adopted = {
            generation: adopted
            for generation, adopted in self._adopted.items()
            if namenode.exists(adopted[0], include_pending=True)
        }
        self._drop_dead_segments()
        if self.garbage_bytes > self.compact_garbage_bytes:
            self._compact()
        return ShmManifest(
            files=dict(self._files), errors=errors, dirs=dirs
        )

    @staticmethod
    def _collect_dirs(paths: list[str]) -> frozenset[str]:
        dirs = {"/"}
        for path in paths:
            parts = path.split("/")[1:-1]
            prefix = ""
            for part in parts:
                prefix += "/" + part
                dirs.add(prefix)
        return frozenset(dirs)

    def _held(self) -> list[ShmFile]:
        """Every file a segment holds for a reader: live or still staged."""
        return [*self._files.values(), *(p for _, p in self._adopted.values())]

    def _drop_dead_segments(self) -> None:
        referenced = {entry.segment for entry in self._held()}
        for name in list(self._segments):
            if name not in referenced:
                close_segment(self._segments.pop(name), unlink=True)
                del self._segment_bytes[name]

    def _compact(self) -> None:
        """Drop everything; the next :meth:`sync` re-exports the live set.

        Children still attached to the old segments keep valid mappings
        until they prune — POSIX keeps unlinked memory alive while mapped.
        """
        for name in list(self._segments):
            close_segment(self._segments.pop(name), unlink=True)
        self._segment_bytes = {}
        self._files = {}
        self._errors = {}
        self._adopted = {}

    @property
    def garbage_bytes(self) -> int:
        """Bytes of dropped files left in segments that are still
        referenced — what a compaction would reclaim."""
        held = sum(entry.length for entry in self._held())
        return sum(self._segment_bytes.values()) - held

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        self._compact()


__all__ = [
    "REGISTRY",
    "SEGMENT_PREFIX",
    "SegmentRegistry",
    "SharedDFSView",
    "ShmExporter",
    "ShmFile",
    "ShmManifest",
    "attach_segment",
    "close_segment",
    "create_segment",
    "destroy_segment",
    "new_segment_name",
    "set_child_tracker_shared",
]
