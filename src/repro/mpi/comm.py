"""A message-passing substrate: MPI-style communicators over threads.

The ScaLAPACK baseline (Section 7.5) needs point-to-point sends/receives and
collectives with *measured traffic*, since the paper's argument against
ScaLAPACK at scale is its network volume (Tables 1-2).  Each rank runs as a
thread executing the same SPMD function; messages travel through per-(src,
dst, tag) queues and every payload's size is accounted to a world-level
:class:`TrafficStats`.

Collectives are built from point-to-point primitives with the standard
algorithms (binomial-tree broadcast/reduce, linear gather/scatter), so their
measured traffic reflects what a real MPI implementation moves.

NumPy's BLAS kernels release the GIL, so the dense per-rank work in the
baseline genuinely runs in parallel.
"""

from __future__ import annotations

import pickle
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


class MPIError(RuntimeError):
    pass


class DeadlockError(MPIError):
    """A receive waited longer than the world's timeout."""


#: Pushed into every mailbox by :meth:`World.abort`; a ``recv`` that draws it
#: raises instead of returning it.
_ABORTED = object()


def payload_bytes(obj: Any) -> int:
    """Accounting size of a message payload."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # opaque small object


@dataclass
class TrafficStats:
    """World-level communication accounting."""

    bytes_sent: int = 0
    messages: int = 0
    per_rank_sent: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, src: int, nbytes: int) -> None:
        with self._lock:
            self.bytes_sent += nbytes
            self.messages += 1
            self.per_rank_sent[src] = self.per_rank_sent.get(src, 0) + nbytes


class World:
    """A set of ranks and their mailboxes."""

    def __init__(self, size: int, timeout: float = 60.0) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.timeout = timeout
        self.traffic = TrafficStats()
        self._mailboxes: dict[tuple[int, int, int], queue.SimpleQueue] = {}
        self._mailbox_lock = threading.Lock()
        self._aborted = False  # guarded-by: _mailbox_lock
        self._barrier = threading.Barrier(size)

    def _box(self, src: int, dst: int, tag: int) -> queue.SimpleQueue:
        key = (src, dst, tag)
        with self._mailbox_lock:
            box = self._mailboxes.get(key)
            if box is None:
                box = queue.SimpleQueue()
                if self._aborted:
                    box.put(_ABORTED)
                self._mailboxes[key] = box
            return box

    def abort(self) -> None:
        """Cancel every wait in the world (a failed rank's peers must not sit
        out the timeout): break the barrier and push a sentinel into every
        mailbox — those that exist now and, via ``_box``, any created later."""
        with self._mailbox_lock:
            self._aborted = True
            for box in self._mailboxes.values():
                box.put(_ABORTED)
        self._barrier.abort()

    def run(self, fn: Callable[["Comm"], Any]) -> list[Any]:
        """Run ``fn(comm)`` on every rank; returns per-rank results.

        Any rank's exception aborts the whole world (re-raised on the caller
        with the failing rank noted).
        """
        results: list[Any] = [None] * self.size
        errors: list[tuple[int, Exception]] = []

        def runner(rank: int) -> None:
            try:
                results[rank] = fn(Comm(self, rank))
            except Exception as exc:  # surfaced below
                errors.append((rank, exc))
                self.abort()

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"mpi-rank-{r}")
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            rank, exc = errors[0]
            raise MPIError(f"rank {rank} failed: {exc!r}") from exc
        return results


class Comm:
    """One rank's view of the world."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size

    # -- point to point ---------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise MPIError(f"bad destination rank {dest}")
        if dest == self.rank:
            raise MPIError("self-send would deadlock a blocking recv")
        self.world.traffic.record(self.rank, payload_bytes(obj))
        self.world._box(self.rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self.size:
            raise MPIError(f"bad source rank {source}")
        box = self.world._box(source, self.rank, tag)
        try:
            obj = box.get(timeout=self.world.timeout)
        except queue.Empty:
            raise DeadlockError(
                f"rank {self.rank} timed out receiving from {source} (tag {tag})"
            ) from None
        if obj is _ABORTED:
            box.put(_ABORTED)  # the mailbox stays poisoned for later receives
            raise MPIError(
                f"rank {self.rank} aborted receiving from {source} (tag {tag}): "
                "a peer rank failed"
            )
        return obj

    # -- collectives -------------------------------------------------------------

    def barrier(self) -> None:
        try:
            self.world._barrier.wait(timeout=self.world.timeout)
        except threading.BrokenBarrierError:
            raise DeadlockError(f"barrier broken at rank {self.rank}") from None

    def bcast(self, obj: Any, root: int = 0, tag: int = 101) -> Any:
        """Binomial-tree broadcast: log2(p) rounds, p-1 messages total."""
        size, rank = self.size, self.rank
        rel = (rank - root) % size
        mask = 1
        while mask < size:
            if rel < mask:
                partner_rel = rel + mask
                if partner_rel < size:
                    self.send(obj, (partner_rel + root) % size, tag + mask)
            elif rel < 2 * mask:
                obj = self.recv((rel - mask + root) % size, tag + mask)
            mask <<= 1
        return obj

    def gather(self, obj: Any, root: int = 0, tag: int = 202) -> list[Any] | None:
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, tag)
            return out
        self.send(obj, root, tag)
        return None

    def scatter(self, objs: list[Any] | None, root: int = 0, tag: int = 303) -> Any:
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise MPIError("root must scatter exactly one item per rank")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag)
            return objs[root]
        return self.recv(root, tag)

    def allgather(self, obj: Any, tag: int = 404) -> list[Any]:
        gathered = self.gather(obj, root=0, tag=tag)
        return self.bcast(gathered, root=0, tag=tag + 50)

    def reduce_sum(self, value: Any, root: int = 0, tag: int = 505) -> Any | None:
        """Binomial-tree sum reduction (works for numbers and ndarrays)."""
        size, rank = self.size, self.rank
        rel = (rank - root) % size
        mask = 1
        acc = value
        while mask < size:
            if rel % (2 * mask) == 0:
                partner_rel = rel + mask
                if partner_rel < size:
                    acc = acc + self.recv((partner_rel + root) % size, tag + mask)
            elif rel % (2 * mask) == mask:
                self.send(acc, (rel - mask + root) % size, tag + mask)
                return None
            mask <<= 1
        return acc if rank == root else None

    def allreduce_sum(self, value: Any, tag: int = 606) -> Any:
        acc = self.reduce_sum(value, root=0, tag=tag)
        return self.bcast(acc, root=0, tag=tag + 50)
