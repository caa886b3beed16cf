"""Worker-shared decoded-block cache for the DFS read path.

The pipeline's hot files are immutable once written (the plan linter enforces
write-once intermediates) and are re-read by every task in a wave: ``L1^-1``,
``U1^-1``, the ``inv_l``/``inv_u`` column files, and the Schur inputs.  SPIN
(arXiv:1801.04723) attributes much of Spark's advantage over the paper's
Hadoop pipeline to exactly this reuse being served from memory.  The
:class:`BlockCache` gives the simulated cluster the same lever: a byte-capped
LRU of *decoded, read-only* matrices keyed by file ``generation``.

Correctness rests on two properties:

* **generation keys** — the namenode stamps every :class:`~repro.dfs.namenode.FileEntry`
  with a globally monotonic generation at creation; overwriting a path makes
  a new entry with a new generation, so a generation names one immutable
  content and a stale cached matrix can never be served for rewritten
  content.  A rename keeps the entry (and its generation), so the moved file
  is still a hit under its new path.  The DFS drops the generations of the
  entries it collects — deleted, or displaced by a rename or publish
  (``DFS._gc_entries`` → :meth:`BlockCache.drop`) — so dead values do not
  linger until LRU eviction; nothing is ever found by scanning keys.
* **read-only values** — cached arrays are the non-writable views produced by
  :func:`repro.dfs.formats.decode_matrix`, so sharing one object between
  concurrent tasks cannot race: any attempted in-place mutation raises.

The cache sits *above* the block integrity layer: a miss goes through
``DFS.read_bytes``, which serves a replica only if its stored payload has
matched the block checksum — checked on that read, unless the datanode has
that very payload object marked as already verified (see
:mod:`repro.dfs.blocks`) — so corruption is detected exactly as without the
cache; only content that already passed verification is ever served from
memory.

Accounting: cache hits are *logical* reads (task traces and Hadoop-style
counters still see them) but not *physical* ones (no ``iostats.bytes_read``,
no DFS read record on a span) — the same split real HDFS has between bytes an
application consumed and bytes a datanode served.  The reconcile auditor
checks ``bytes requested == bytes served from cache + bytes read through``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import formats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .filesystem import DFS

#: Default capacity wired into :class:`~repro.inversion.config.InversionConfig`.
DEFAULT_BLOCK_CACHE_BYTES = 64 << 20


class BlockCache:
    """Byte-capped LRU cache of decoded read-only matrices.

    Thread-safe: one small lock guards the LRU map and the counters, and is
    never held across DFS block I/O — concurrent misses on the same key both
    read through and race to :meth:`put`, which is idempotent (the values are
    identical read-only decodes of the same immutable file content).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, np.ndarray] = OrderedDict()  # guarded-by: _lock
        self._used_bytes = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    # -- core map operations ---------------------------------------------------

    def get(self, key: int) -> np.ndarray | None:
        """The matrix cached for file generation ``key``, bumping its
        recency; ``None`` on miss.  The returned array is read-only, so
        handing it out unshielded is safe."""
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return found

    def put(self, key: int, matrix: np.ndarray) -> bool:
        """Insert a decoded matrix, evicting LRU entries to fit.  Returns
        False (and caches nothing) when the matrix alone exceeds capacity
        or the value is writable (a writable array could be mutated by its
        holder after insertion, breaking every future reader)."""
        if matrix.flags.writeable:
            return False
        nbytes = int(matrix.nbytes)
        if nbytes > self.capacity_bytes:
            return False
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            self._entries[key] = matrix
            self._used_bytes += nbytes
            while self._used_bytes > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._used_bytes -= int(evicted.nbytes)
                self._evictions += 1
            return True

    def drop(self, generations: Iterable[int]) -> int:
        """Drop the values cached for ``generations`` (those of collected
        file entries); returns how many were present.  Purely hygiene — a
        collected generation can never be requested again."""
        dropped = 0
        with self._lock:
            for key in generations:
                found = self._entries.pop(key, None)
                if found is not None:
                    self._used_bytes -= int(found.nbytes)
                    dropped += 1
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used_bytes = 0

    # -- read-through ----------------------------------------------------------

    def read_through(self, dfs: "DFS", path: str) -> tuple[np.ndarray, int]:
        """Serve ``path`` decoded, from memory when possible.

        Returns ``(matrix, nbytes)`` where ``nbytes`` is the file's encoded
        size — what the caller should account as its logical read.  On a hit
        no DFS I/O happens at all; on a miss the file goes through the normal
        checksummed ``DFS.read_bytes`` path and the decoded view is inserted.
        """
        entry = dfs.namenode.get_file(path)
        found = self.get(entry.generation)
        if found is not None:
            nbytes = entry.length
            dfs.stats.record_cache_hit(nbytes)
            return found, nbytes
        data = dfs.read_bytes(path)
        matrix = formats.decode_matrix(data)
        dfs.stats.record_cache_miss(len(data))
        self.put(entry.generation, matrix)
        return matrix, len(data)

    # -- introspection ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Point-in-time counters (hits/misses are map-level, counted once
        per :meth:`get`)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "used_bytes": self._used_bytes,
                "capacity_bytes": self.capacity_bytes,
            }


__all__ = ["BlockCache", "DEFAULT_BLOCK_CACHE_BYTES"]
