"""Byte-level I/O accounting for the DFS substrate.

The paper's evaluation reasons heavily about I/O volume: Table 1 and Table 2
give closed-form expressions for bytes written, read, and transferred over the
network, and Section 7.4 reports ">500 GB written / >20 TB read" for the
largest matrix.  Every DFS operation therefore reports into an :class:`IOStats`
instance so experiments can compare measured traffic against the analytic cost
model.

Transfer semantics follow HDFS: a write of ``b`` bytes with replication factor
``r`` moves ``b * (r - 1)`` bytes across the network in addition to the local
write (the first replica is assumed local to the writer, as in HDFS); a read
is remote unless the caller declares locality.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields


@dataclass
class IOSnapshot:
    """Immutable copy of the counters at one point in time."""

    bytes_read: int = 0
    bytes_written: int = 0
    bytes_transferred: int = 0
    files_created: int = 0
    files_opened: int = 0
    files_deleted: int = 0
    read_ops: int = 0
    write_ops: int = 0
    repair_copies: int = 0
    corrupt_replicas_dropped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_requested: int = 0
    cache_bytes_served: int = 0
    cache_bytes_missed: int = 0
    bytes_staged: int = 0
    bytes_published: int = 0
    bytes_discarded: int = 0
    files_published: int = 0
    files_discarded: int = 0

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(*(getattr(self, k) - getattr(other, k) for k in _FIELDS))


#: Every counter, in declaration order: :class:`IOStats` keeps the same names.
_FIELDS = tuple(f.name for f in fields(IOSnapshot))


@dataclass
class IOStats:
    """Thread-safe mutable I/O counters shared by one DFS instance."""

    bytes_read: int = 0  # guarded-by: _lock
    bytes_written: int = 0  # guarded-by: _lock
    bytes_transferred: int = 0  # guarded-by: _lock
    files_created: int = 0  # guarded-by: _lock
    files_opened: int = 0  # guarded-by: _lock
    files_deleted: int = 0  # guarded-by: _lock
    read_ops: int = 0  # guarded-by: _lock
    write_ops: int = 0  # guarded-by: _lock
    repair_copies: int = 0  # guarded-by: _lock
    corrupt_replicas_dropped: int = 0  # guarded-by: _lock
    cache_hits: int = 0  # guarded-by: _lock
    cache_misses: int = 0  # guarded-by: _lock
    cache_bytes_requested: int = 0  # guarded-by: _lock
    cache_bytes_served: int = 0  # guarded-by: _lock
    cache_bytes_missed: int = 0  # guarded-by: _lock
    bytes_staged: int = 0  # guarded-by: _lock
    bytes_published: int = 0  # guarded-by: _lock
    bytes_discarded: int = 0  # guarded-by: _lock
    files_published: int = 0  # guarded-by: _lock
    files_discarded: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_read(self, nbytes: int, *, local: bool = False) -> None:
        """One read op: the file's open and the bytes it returned."""
        with self._lock:
            self.files_opened += 1
            self.bytes_read += nbytes
            self.read_ops += 1
            if not local:
                self.bytes_transferred += nbytes

    def record_file(self, nbytes: int, replicated: int, blocks: int, *, pending: bool) -> None:
        """One whole-file write: ``nbytes`` of content stored as ``blocks``
        blocks, ``replicated`` bytes over all their replicas.  A pending
        file's bytes also enter the staging ledger, which keeps
        ``staged == published + discarded`` once the namespace is quiescent."""
        with self._lock:
            self.files_created += 1
            self.bytes_written += replicated
            self.write_ops += blocks
            # First replica is local to the writer; the rest cross the network.
            self.bytes_transferred += replicated - nbytes
            if pending:
                self.bytes_staged += nbytes

    def record_repair(
        self, *, copies: int = 0, corrupt_dropped: int = 0, nbytes: int = 0
    ) -> None:
        """HealthMonitor repair work: re-replication copies (their bytes
        count as written and transferred) and corrupt replicas invalidated."""
        with self._lock:
            self.repair_copies += copies
            self.corrupt_replicas_dropped += corrupt_dropped
            self.bytes_written += nbytes
            self.bytes_transferred += nbytes

    def record_cache_request(self, nbytes: int) -> None:
        """A logical matrix read arrived at a cache-backed reader (recorded
        whether it is then served from memory or read through)."""
        with self._lock:
            self.cache_bytes_requested += nbytes

    def record_cache_hit(self, nbytes: int) -> None:
        """A logical read served entirely from the decoded-block cache —
        no DFS bytes moved."""
        with self._lock:
            self.cache_hits += 1
            self.cache_bytes_served += nbytes

    def record_cache_miss(self, nbytes: int) -> None:
        """A cache-backed read that fell through to the DFS (its physical
        bytes are accounted by :meth:`record_read` as usual)."""
        with self._lock:
            self.cache_misses += 1
            self.cache_bytes_missed += nbytes

    def record_publish(self, nbytes: int, *, files: int) -> None:
        """Staged bytes atomically renamed to their final paths."""
        with self._lock:
            self.bytes_published += nbytes
            self.files_published += files

    def record_open(self) -> None:
        """An open whose read raised; a read that returns is :meth:`record_read`."""
        with self._lock:
            self.files_opened += 1

    def record_delete(self, count: int, discarded_bytes: int, discarded_files: int) -> None:
        """Files deleted; the pending ones among them were staged and never
        published (losing or aborted attempts, fsck rollback), so their
        bytes are debited from the staging ledger as discarded."""
        with self._lock:
            self.files_deleted += count
            self.bytes_discarded += discarded_bytes
            self.files_discarded += discarded_files

    def snapshot(self) -> IOSnapshot:
        with self._lock:
            return IOSnapshot(*(getattr(self, k) for k in _FIELDS))

    def reset(self) -> None:
        with self._lock:
            for k in _FIELDS:
                setattr(self, k, 0)
