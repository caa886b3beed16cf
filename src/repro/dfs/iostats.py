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
from dataclasses import dataclass, field


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
        return IOSnapshot(
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
            bytes_transferred=self.bytes_transferred - other.bytes_transferred,
            files_created=self.files_created - other.files_created,
            files_opened=self.files_opened - other.files_opened,
            files_deleted=self.files_deleted - other.files_deleted,
            read_ops=self.read_ops - other.read_ops,
            write_ops=self.write_ops - other.write_ops,
            repair_copies=self.repair_copies - other.repair_copies,
            corrupt_replicas_dropped=(
                self.corrupt_replicas_dropped - other.corrupt_replicas_dropped
            ),
            cache_hits=self.cache_hits - other.cache_hits,
            cache_misses=self.cache_misses - other.cache_misses,
            cache_bytes_requested=(
                self.cache_bytes_requested - other.cache_bytes_requested
            ),
            cache_bytes_served=self.cache_bytes_served - other.cache_bytes_served,
            cache_bytes_missed=self.cache_bytes_missed - other.cache_bytes_missed,
            bytes_staged=self.bytes_staged - other.bytes_staged,
            bytes_published=self.bytes_published - other.bytes_published,
            bytes_discarded=self.bytes_discarded - other.bytes_discarded,
            files_published=self.files_published - other.files_published,
            files_discarded=self.files_discarded - other.files_discarded,
        )


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

    def record_write(self, nbytes: int, *, replication: int = 1) -> None:
        with self._lock:
            self.bytes_written += nbytes * replication
            self.write_ops += 1
            # First replica is local to the writer; the rest cross the network.
            self.bytes_transferred += nbytes * max(replication - 1, 0)

    def record_replication(self, nbytes: int) -> None:
        """Maintenance traffic: block copies made to restore replication."""
        with self._lock:
            self.bytes_written += nbytes
            self.bytes_transferred += nbytes

    def record_repair(
        self, *, copies: int = 0, corrupt_dropped: int = 0, nbytes: int = 0
    ) -> None:
        """HealthMonitor repair work: re-replication copies (with their
        byte traffic, accounted like :meth:`record_replication`) and corrupt
        replicas invalidated."""
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

    def record_stage(self, nbytes: int) -> None:
        """Logical bytes written into the staging namespace as pending files
        (their physical write is accounted by :meth:`record_write` as usual;
        this ledger tracks commit-protocol conservation:
        ``staged == published + discarded`` once the namespace is quiescent)."""
        with self._lock:
            self.bytes_staged += nbytes

    def record_publish(self, nbytes: int, *, files: int) -> None:
        """Staged bytes atomically renamed to their final paths."""
        with self._lock:
            self.bytes_published += nbytes
            self.files_published += files

    def record_discard(self, nbytes: int, *, files: int) -> None:
        """Staged bytes deleted without publication (losing or aborted
        attempts, fsck rollback) — debited from the staging ledger so the
        reconciliation term stays exact."""
        with self._lock:
            self.bytes_discarded += nbytes
            self.files_discarded += files

    def record_create(self) -> None:
        with self._lock:
            self.files_created += 1

    def record_open(self) -> None:
        """An open whose read raised; a read that returns is :meth:`record_read`."""
        with self._lock:
            self.files_opened += 1

    def record_delete(self, count: int = 1) -> None:
        with self._lock:
            self.files_deleted += count

    def snapshot(self) -> IOSnapshot:
        with self._lock:
            return IOSnapshot(
                bytes_read=self.bytes_read,
                bytes_written=self.bytes_written,
                bytes_transferred=self.bytes_transferred,
                files_created=self.files_created,
                files_opened=self.files_opened,
                files_deleted=self.files_deleted,
                read_ops=self.read_ops,
                write_ops=self.write_ops,
                repair_copies=self.repair_copies,
                corrupt_replicas_dropped=self.corrupt_replicas_dropped,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_bytes_requested=self.cache_bytes_requested,
                cache_bytes_served=self.cache_bytes_served,
                cache_bytes_missed=self.cache_bytes_missed,
                bytes_staged=self.bytes_staged,
                bytes_published=self.bytes_published,
                bytes_discarded=self.bytes_discarded,
                files_published=self.files_published,
                files_discarded=self.files_discarded,
            )

    def reset(self) -> None:
        with self._lock:
            self.bytes_read = 0
            self.bytes_written = 0
            self.bytes_transferred = 0
            self.files_created = 0
            self.files_opened = 0
            self.files_deleted = 0
            self.read_ops = 0
            self.write_ops = 0
            self.repair_copies = 0
            self.corrupt_replicas_dropped = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.cache_bytes_requested = 0
            self.cache_bytes_served = 0
            self.cache_bytes_missed = 0
            self.bytes_staged = 0
            self.bytes_published = 0
            self.bytes_discarded = 0
            self.files_published = 0
            self.files_discarded = 0
