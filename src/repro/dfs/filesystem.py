"""The DFS facade: HDFS-like file operations over the namenode + block store.

This is the interface the MapReduce engine and the inversion pipeline program
against.  Semantics mirror the HDFS client:

* files are written whole and once: split into blocks, replicated, and
  only then named, so a failed write leaves no name and no block;
* reads fetch whole files or byte ranges, reassembled from blocks;
* every byte moved is reported to :class:`~repro.dfs.iostats.IOStats`.

The implementation is in-memory, which keeps experiments deterministic and
fast while preserving all the quantities the paper measures (file counts,
bytes read/written/transferred, synchronization-free file naming).
"""

from __future__ import annotations

import fnmatch
from time import perf_counter
from typing import TYPE_CHECKING

from ..telemetry.spans import fold_io
from .blocks import DEFAULT_BLOCK_SIZE, BlockInfo, BlockStore
from .commit import mirrored_path
from .iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import BlockCache
    from .health import HealthMonitor
from .namenode import (
    FileEntry,
    FileNotFound,
    IsADirectory,
    NameNode,
    NotADirectory,
    normalize,
)


class DFS:
    """One distributed filesystem instance shared by a simulated cluster."""

    def __init__(
        self,
        num_datanodes: int = 4,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: int | None = 0,
    ) -> None:
        self.namenode = NameNode()
        self.blocks = BlockStore(
            num_datanodes=num_datanodes,
            replication=replication,
            block_size=block_size,
            seed=seed,
        )
        self.stats = IOStats()
        #: Optional decoded-block cache (:class:`~repro.dfs.cache.BlockCache`)
        #: consulted by matrix readers (``TaskContext.read_matrix`` and the
        #: master's reader).  ``None`` keeps the paper-faithful read path.
        self.cache: "BlockCache | None" = None
        #: Fault-injection hooks fired as ``hook(op, path)`` before every
        #: file creation (``op="create"``) and atomic publish
        #: (``op="publish"``).  A staged create's ``path`` is its mirrored
        #: spelling ``/_tmp/<tag><final>`` (:func:`~repro.dfs.commit.mirrored_path`),
        #: a publish's the first final path.  Used by the chaos harness to
        #: crash the driver at exact write/publish points; empty in production.
        self.fault_hooks: list = []
        #: Publish listeners fired as ``listener(paths)`` *after* every
        #: successful atomic publish, with the list of now-sealed final
        #: paths.  The dataflow scheduler
        #: (:mod:`repro.mapreduce.scheduler`) keys step readiness on these
        #: events; empty otherwise.  Listeners run in the publishing
        #: thread and must not raise.
        self.publish_listeners: list = []

    # -- decoded-block cache ---------------------------------------------------

    def attach_cache(self, capacity_bytes: int) -> "BlockCache":
        """Attach (or re-attach at a new capacity) a decoded-block cache."""
        from .cache import BlockCache

        if self.cache is None or self.cache.capacity_bytes != capacity_bytes:
            self.cache = BlockCache(capacity_bytes)
        return self.cache

    def detach_cache(self) -> None:
        """Drop the cache; subsequent matrix reads go straight to the DFS."""
        self.cache = None

    # -- writes --------------------------------------------------------------

    def create(
        self,
        path: str,
        blocks: list[BlockInfo],
        *,
        overwrite: bool = True,
        pending: bool = False,
    ) -> None:
        """Name a file made of already stored ``blocks`` — one namenode call
        and one ledger update; the file it replaces is collected.

        ``pending=True`` creates the file unsealed: invisible to readers
        until :meth:`publish` (or ``namenode.seal``) makes it visible —
        the first phase of the two-phase output commit.
        """
        displaced = self.namenode.create_file(
            path, blocks, overwrite=overwrite, pending=pending
        )
        nbytes = replicated = 0
        for info in blocks:
            nbytes += info.length
            replicated += info.length * len(info.replicas)
        self.stats.record_file(nbytes, replicated, len(blocks), pending=pending)
        if displaced:
            self._gc_entries(displaced)

    def write_bytes(
        self,
        path: str,
        data: bytes,
        *,
        overwrite: bool = True,
        pending: bool = False,
    ) -> None:
        """Write a whole file: its blocks first, then its name.  A write
        that fails leaves the old file (if any) in place and no block
        stored; a file under one block keeps ``data`` as its payload."""
        start = perf_counter()
        if self.fault_hooks:
            hook_path = mirrored_path(normalize(path))
            for hook in list(self.fault_hooks):
                hook("create", hook_path)
        size = self.blocks.block_size
        data = data if isinstance(data, bytes) else bytes(data)
        if 0 < len(data) <= size:
            chunks = [data]  # the caller's bytes are the payload: no copy
        else:
            chunks = [data[i : i + size] for i in range(0, len(data), size)]
        blocks: list[BlockInfo] = []
        try:
            for chunk in chunks:
                blocks.append(self.blocks.write_block(chunk))
            self.create(path, blocks, overwrite=overwrite, pending=pending)
        except BaseException:
            for info in blocks:
                self.blocks.delete_block(info)
            raise
        fold_io("stage" if pending else "write", path, len(data), start)

    def stage_bytes(self, path: str, data: bytes) -> None:
        """Write ``path`` as a pending (invisible) staging file."""
        self.write_bytes(path, data, pending=True)

    def write_text(self, path: str, text: str, *, overwrite: bool = True) -> None:
        self.write_bytes(path, text.encode("utf-8"), overwrite=overwrite)

    # -- reads ---------------------------------------------------------------

    def read_bytes(self, path: str, *, local: bool = False, op: str = "read") -> bytes:
        """Read the whole file.  ``op`` is the telemetry record's op: the
        process pool's namespace export reads as ``"export"``."""
        start = perf_counter()
        entry = self.namenode.get_file(path)
        try:
            if len(entry.blocks) == 1:
                # Single-block file: the stored payload *is* the file content —
                # return it directly instead of copying it through b"".join.
                data = self.blocks.read_block(entry.blocks[0])
            else:
                data = b"".join(self.blocks.read_block(info) for info in entry.blocks)
        except BaseException:
            self.stats.record_open()  # opened, but no byte came back
            raise
        nbytes = len(data)
        self.stats.record_read(nbytes, local=local)  # counts the open too
        fold_io(op, path, nbytes, start)
        return data

    def read_text(self, path: str, *, local: bool = False) -> str:
        return self.read_bytes(path, local=local).decode("utf-8")

    def read_range(
        self, path: str, offset: int, length: int, *, local: bool = False
    ) -> bytes | memoryview:
        """Read ``length`` bytes starting at ``offset``, touching only the
        blocks that overlap the range (HDFS range-read semantics).

        A range inside one block is not copied: it comes back as a read-only
        ``memoryview`` into the stored payload (the payload itself when it
        is the whole block)."""
        start = perf_counter()
        entry = self.namenode.get_file(path)
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        end = offset + length
        blocks = entry.blocks
        try:
            if len(blocks) == 1 and length and offset < blocks[0].length:
                # Single-block file (every matrix file under the default block
                # size): the range is a view of the one payload.
                data = self.blocks.read_block(blocks[0])
                if offset or end < len(data):
                    data = memoryview(data)[offset:end]
            else:
                # Collect whole payloads or memoryview slices — no
                # intermediate bytearray, so the bytes are copied at most once
                # (b"".join) and not at all when the range is one whole block.
                parts: list[bytes | memoryview] = []
                pos = 0
                for info in blocks:
                    block_start, block_end = pos, pos + info.length
                    pos = block_end
                    if block_end <= offset:
                        continue
                    if block_start >= end:
                        break
                    payload = self.blocks.read_block(info)
                    lo = max(offset - block_start, 0)
                    hi = min(end - block_start, info.length)
                    if lo == 0 and hi == info.length:
                        parts.append(payload)
                    else:
                        parts.append(memoryview(payload)[lo:hi])
                whole = len(parts) == 1 and isinstance(parts[0], bytes)
                data = parts[0] if whole else b"".join(parts)
        except BaseException:
            self.stats.record_open()  # opened, but no byte came back
            raise
        nbytes = len(data)
        self.stats.record_read(nbytes, local=local)  # counts the open too
        fold_io("read", path, nbytes, start)
        return data

    # -- namespace -----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def is_dir(self, path: str) -> bool:
        return self.namenode.is_dir(path)

    def mkdirs(self, path: str) -> None:
        self.namenode.mkdirs(path)

    def list_dir(self, path: str) -> list[str]:
        return self.namenode.list_dir(path)

    def glob(self, pattern: str) -> list[str]:
        """Match files anywhere in the tree against a ``fnmatch`` pattern."""
        pattern = normalize(pattern)
        return [p for p in self.namenode.walk_files("/") if fnmatch.fnmatch(p, pattern)]

    def list_files(self, path: str = "/") -> list[str]:
        return self.namenode.walk_files(path)

    def file_size(self, path: str) -> int:
        return self.namenode.get_file(path).length

    def delete(self, *paths: str, recursive: bool = False) -> None:
        """Delete every path in one namenode call, or none if one is not
        there (a commit's retirements go in one call)."""
        self._gc_entries(self.namenode.delete(*paths, recursive=recursive))

    def rename(self, src: str, dst: str, *, overwrite: bool = False) -> None:
        # The moved entries keep their generations, hence their cached views.
        self._gc_entries(self.namenode.rename(src, dst, overwrite=overwrite))

    # -- two-phase commit -----------------------------------------------------

    def publish(self, pairs: list[tuple[str, str]], staging: str) -> None:
        """Atomically move-and-seal staged files onto their final paths and
        drop the writer's ``staging`` directory.

        One namenode operation covers every ``(staged, final)`` pair:
        readers observe none or all of the published files, never a torn
        prefix.  Existing destinations (debris from a crashed earlier
        publish) are replaced and their blocks collected, as is anything
        left in ``staging``.
        """
        if not pairs:
            self.discard_staging(staging)
            return
        if self.fault_hooks:
            for hook in list(self.fault_hooks):
                hook("publish", normalize(pairs[0][1]))
        start = perf_counter()
        nbytes, displaced = self.namenode.publish(pairs, staging)
        fold_io("publish", pairs[0][1], nbytes, start)
        self.stats.record_publish(nbytes, files=len(pairs))
        self._gc_entries(displaced)
        if self.publish_listeners:
            # After the namenode publish: the destinations are sealed and
            # visible, so a listener-triggered reader can never observe a
            # pending file.
            sealed = [normalize(dst) for _, dst in pairs]
            for listener in list(self.publish_listeners):
                listener(sealed)

    def discard_staging(self, path: str) -> None:
        """Delete an uncommitted staging subtree (aborted or losing attempt);
        a missing path is fine — discard is idempotent."""
        try:
            removed = self.namenode.delete(path, recursive=True)
        except (FileNotFound, NotADirectory):
            return
        self._gc_entries(removed)

    def _gc_entries(self, entries: list[FileEntry]) -> None:
        """Collect the blocks of removed or displaced file entries.

        Pending entries are debited from the staging ledger: bytes that
        were staged but never published count as discarded, keeping the
        ``staged == published + discarded`` conservation term exact.
        Sealed ones may have a decoded view in the block cache (a pending
        file cannot — ``read_through`` never sees it); their generations can
        never be requested again, so the views are dropped here, exactly,
        instead of waiting for LRU eviction.
        """
        if not entries:
            return
        pending_bytes = 0
        pending_files = 0
        sealed: list[int] = []
        for entry in entries:
            for info in entry.blocks:
                self.blocks.delete_block(info)
            if entry.sealed:
                sealed.append(entry.generation)
            else:
                pending_bytes += entry.length
                pending_files += 1
        self.stats.record_delete(len(entries), pending_bytes, pending_files)
        if sealed and self.cache is not None:
            self.cache.drop(sealed)

    # -- replication maintenance ------------------------------------------------

    def health_monitor(self) -> "HealthMonitor":
        """A :class:`~repro.dfs.health.HealthMonitor` bound to this DFS —
        the replication maintenance HDFS runs after a datanode death: scan
        for under-replicated blocks, scrub corrupt replicas, re-replicate,
        and report unrecoverable blocks instead of raising mid-pass."""
        from .health import HealthMonitor

        return HealthMonitor(self)

    # -- convenience ---------------------------------------------------------

    def total_stored_bytes(self) -> int:
        return self.blocks.total_stored_bytes

    def tree(self, path: str = "/") -> str:
        """ASCII rendering of the namespace (debugging aid for Figure 4)."""
        lines: list[str] = []
        for file_path in self.namenode.walk_files(path):
            size = self.file_size(file_path)
            lines.append(f"{file_path}  ({size} B)")
        return "\n".join(lines)


__all__ = ["DFS", "FileNotFound", "IsADirectory"]
