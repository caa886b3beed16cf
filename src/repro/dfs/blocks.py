"""Block-level storage for the DFS substrate.

Files in the DFS are split into fixed-size blocks, each replicated onto
``replication`` distinct datanodes, mirroring HDFS.  Blocks carry a CRC32
checksum, and no payload is served unless it is the object that was written
or has matched that object's checksum.  ``write_block`` computes no CRC: the
block's :class:`BlockInfo` keeps a reference to the immutable ``bytes``
object every replica was given, and takes the checksum from it the first
time a check needs one.  Each datanode marks the replicas it holds that are
that object, or a copy that matched; a read of a marked replica skips the
CRC, so a fault-free run checksums nothing.  Anything that changes a replica
(``DataNode.put`` of unverified data, ``corrupt``, ``drop``) forgets the
mark, so the next read checks that replica against the reference; scrubs
(``replica_status``, the ``HealthMonitor``) never consult the mark and
checksum every replica every time.  Corruption injected by tests is
therefore detected exactly as Hadoop's client would detect it.
"""

from __future__ import annotations

import itertools
import random
import threading
import zlib


#: Block size of a DFS built without an explicit one: the 64 MB
#: ``dfs.block.size`` default of Hadoop 1.1.1, the version the paper ran on.
#: Every matrix file the benchmarks write is then one block, so a write keeps
#: the encoder's bytes as the payload and a read returns that payload itself —
#: no split copy, no join, and decoded views that point into it.
DEFAULT_BLOCK_SIZE = 64 << 20


class BlockCorruptionError(IOError):
    """Raised when a block's stored checksum does not match its payload."""


class BlockMissingError(IOError):
    """Raised when no healthy replica of a block can be located."""


class BlockId(int):
    """Opaque identifier of one stored block: an ``int``, so it hashes and
    compares in C on every datanode and registry lookup."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"blk_{int(self):012d}"


class BlockInfo:
    """Metadata the namenode keeps per block.

    A block written by :meth:`BlockStore.write_block` holds the stored
    payload object itself, shared with every replica it was placed on, and
    ``checksum`` is the CRC-32 of that object, computed on first access and
    cached; ``delete_block`` drops the payload.  One built with an explicit
    ``checksum`` carries no payload.
    """

    __slots__ = ("block_id", "length", "replicas", "_checksum", "_payload", "__weakref__")

    def __init__(
        self,
        block_id: BlockId,
        length: int,
        checksum: int | None,
        replicas: tuple[int, ...],  # datanode indices holding this block
        payload: bytes | None = None,
    ) -> None:
        self.block_id = block_id
        self.length = length
        self.replicas = replicas
        self._checksum = checksum
        self._payload = payload

    @property
    def checksum(self) -> int:
        """CRC-32 of the written payload.  Racing first accesses compute the
        same value from their own local reference, so either store wins."""
        checksum = self._checksum
        if checksum is None:
            payload = self._payload
            if payload is None:
                raise BlockMissingError(f"{self.block_id} was deleted")
            checksum = self._checksum = zlib.crc32(payload)
        return checksum


class DataNode:
    """One storage node: a dict of block payloads plus liveness state."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._lock = threading.Lock()
        self._alive = True  # guarded-by: _lock
        self._blocks: dict[BlockId, bytes] = {}  # guarded-by: _lock
        # Blocks whose *current* payload object has matched the block
        # checksum.  Kept beside the payload, under the same lock, so a
        # replica and its mark can only change together.
        self._verified: set[BlockId] = set()  # guarded-by: _lock

    @property
    def alive(self) -> bool:
        """Liveness flag; locked because fault hooks flip it from chaos /
        maintenance threads while readers scan replicas (CN001 — these
        reads were previously lock-free)."""
        with self._lock:
            return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        with self._lock:
            self._alive = value

    def put(self, block_id: BlockId, payload: bytes, *, verified: bool = False) -> None:
        """Store a replica.  ``verified`` says the caller has just matched
        this very ``payload`` object against the block checksum."""
        with self._lock:
            self._blocks[block_id] = payload
            if verified:
                self._verified.add(block_id)
            else:
                self._verified.discard(block_id)

    def get(self, block_id: BlockId) -> bytes | None:
        with self._lock:
            return self._blocks.get(block_id)

    def fetch(self, block_id: BlockId) -> tuple[bool, bytes | None, bool]:
        """Whether the node is alive, the stored payload and whether it is
        marked verified, read together under one lock so a concurrent
        ``corrupt`` or kill cannot slip between them."""
        with self._lock:
            return self._alive, self._blocks.get(block_id), block_id in self._verified

    def mark_verified(self, block_id: BlockId, payload: bytes) -> None:
        """Remember that ``payload`` matched the checksum — unless the
        replica was replaced since the caller fetched it."""
        with self._lock:
            if self._blocks.get(block_id) is payload:
                self._verified.add(block_id)

    def drop(self, block_id: BlockId) -> None:
        with self._lock:
            self._blocks.pop(block_id, None)
            self._verified.discard(block_id)

    def corrupt(self, block_id: BlockId) -> bool:
        """Flip a byte of the stored replica (test hook). Returns True if present."""
        with self._lock:
            payload = self._blocks.get(block_id)
            if payload is None:
                return False
            mutated = bytearray(payload)
            if mutated:
                mutated[0] ^= 0xFF
            self._blocks[block_id] = bytes(mutated)
            self._verified.discard(block_id)
            return True

    @property
    def block_count(self) -> int:
        with self._lock:
            return len(self._blocks)

    @property
    def stored_bytes(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._blocks.values())


class BlockStore:
    """Cluster-wide block placement and retrieval.

    Placement policy: replicas go to ``replication`` distinct datanodes chosen
    round-robin with a random rotation per file, which spreads load the way
    HDFS's default placement does without requiring rack topology.
    """

    def __init__(
        self,
        num_datanodes: int = 4,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: int | None = 0,
    ) -> None:
        if num_datanodes < 1:
            raise ValueError("need at least one datanode")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.datanodes = [DataNode(i) for i in range(num_datanodes)]
        self.replication = min(replication, num_datanodes)
        self.block_size = block_size
        self._lock = threading.Lock()
        self._next_id = itertools.count(1)  # guarded-by: _lock
        self._rng = random.Random(seed)  # guarded-by: _lock
        self._blocks: dict[BlockId, BlockInfo] = {}  # guarded-by: _lock
        self._failure_epoch = 0  # guarded-by: _lock
        #: Ids of the live datanodes, so placing a write takes no datanode
        #: lock; only ``kill_datanode``/``revive_datanode`` change liveness.
        self._live = tuple(range(num_datanodes))  # guarded-by: _lock

    @property
    def failure_epoch(self) -> int:
        """Monotonic count of topology changes (datanode kills/revives).  The
        runtime's auto-repair pass uses it to trigger a
        :class:`~repro.dfs.health.HealthMonitor` scan only when something
        actually changed, keeping the healthy path free of scan overhead."""
        with self._lock:
            return self._failure_epoch

    # -- placement ---------------------------------------------------------

    def _choose_replicas(self) -> tuple[int, ...]:  # requires-lock: _lock
        live = self._live
        if not live:
            raise BlockMissingError("no live datanodes available for write")
        start = self._rng.randrange(len(live))
        # ``replication`` consecutive live nodes from ``start``, wrapping.
        return (live + live)[start : start + min(self.replication, len(live))]

    def write_block(self, payload: bytes) -> BlockInfo:
        """Place ``payload`` on ``replication`` datanodes, every replica
        marked verified: each is the object the block's checksum is taken
        from, so there is nothing to check it against yet."""
        with self._lock:
            replicas = self._choose_replicas()
            block_id = BlockId(next(self._next_id))
            info = self._blocks[block_id] = BlockInfo(
                block_id, len(payload), None, replicas, payload
            )
        for node_idx in replicas:
            self.datanodes[node_idx].put(block_id, payload, verified=True)
        return info

    def read_block(self, info: BlockInfo) -> bytes:
        """Read one healthy replica, skipping dead nodes and corrupt copies.

        A replica is checksummed against ``info.checksum`` unless its
        datanode has this payload object marked as verified (see the module
        docstring); a payload that passes here is marked, one that fails is
        skipped as corrupt.

        When no replica is usable the error spells out each replica's fate
        (dead node / payload missing / corrupt) so an operator — or a chaos
        campaign report — can tell a datanode outage from data loss.  A
        corrupt copy anywhere upgrades the failure to
        :class:`BlockCorruptionError` (detected corruption is the more
        alarming diagnosis).
        """
        with self._lock:
            replicas = tuple(info.replicas)
        statuses: list[tuple[int, str]] = []
        corrupt_seen = False
        for node_idx in replicas:
            node = self.datanodes[node_idx]
            alive, payload, verified = node.fetch(info.block_id)
            if not alive:
                statuses.append((node_idx, "dead"))
                continue
            if payload is None:
                statuses.append((node_idx, "missing"))
                continue
            if not verified:
                if zlib.crc32(payload) != info.checksum:
                    statuses.append((node_idx, "corrupt"))
                    corrupt_seen = True
                    continue
                node.mark_verified(info.block_id, payload)
            return payload
        detail = ", ".join(f"datanode {n}: {s}" for n, s in statuses) or "no replicas"
        if corrupt_seen:
            raise BlockCorruptionError(
                f"{info.block_id} corrupt, no healthy replica ({detail})"
            )
        raise BlockMissingError(f"no live replica of {info.block_id} ({detail})")

    def delete_block(self, info: BlockInfo) -> None:
        # Snapshot the replica list under the lock: a concurrent maintenance
        # pass (drop_corrupt_replicas / rereplicate) rewrites
        # ``info.replicas`` while holding it (CN001 — this read was
        # previously lock-free, so a delete could miss a replica placed by a
        # racing re-replication and leak the payload).
        with self._lock:
            replicas = tuple(info.replicas)
            self._blocks.pop(info.block_id, None)
        for node_idx in replicas:
            self.datanodes[node_idx].drop(info.block_id)
        # Only once no replica is left that a scrub could check against it.
        info._payload = None

    # -- re-replication ------------------------------------------------------
    #
    # Everything below reads or mutates ``info.replicas`` and the datanode
    # maps, so it all runs under ``self._lock`` — concurrent ``write_block``
    # / ``delete_block`` calls (task attempts on the thread pool) would
    # otherwise race with a maintenance pass.  DataNode locks are leaves:
    # they are never held while acquiring ``self._lock``, so the nesting
    # here cannot deadlock.

    def _scrub_locked(self, info: BlockInfo) -> list[tuple[int, str, bytes | None]]:
        """``(node_id, status, payload)`` per replica, every present payload
        checksummed — a scrub never trusts a replica's verified mark."""
        scrubbed: list[tuple[int, str, bytes | None]] = []
        for node_idx in info.replicas:
            node = self.datanodes[node_idx]
            if not node.alive:
                scrubbed.append((node_idx, "dead", None))
                continue
            payload = node.get(info.block_id)
            if payload is None:
                scrubbed.append((node_idx, "missing", None))
            elif zlib.crc32(payload) != info.checksum:
                scrubbed.append((node_idx, "corrupt", payload))
            else:
                scrubbed.append((node_idx, "healthy", payload))
        return scrubbed

    def replica_status(self, info: BlockInfo) -> list[tuple[int, str]]:
        """Per-replica ``(node_id, status)`` where status is ``"healthy"``,
        ``"dead"``, ``"missing"`` or ``"corrupt"``."""
        with self._lock:
            return [(node_idx, status) for node_idx, status, _ in self._scrub_locked(info)]

    def live_replica_count(self, info: BlockInfo) -> int:
        """Healthy replicas currently reachable (live node + intact payload)."""
        with self._lock:
            return sum(
                1 for _, status, _ in self._scrub_locked(info) if status == "healthy"
            )

    def drop_corrupt_replicas(self, info: BlockInfo) -> int:
        """Discard replicas whose payload fails the checksum so re-replication
        can place fresh copies there (HDFS's corrupt-replica invalidation).
        Returns the number of replicas dropped."""
        with self._lock:
            dropped = 0
            kept: list[int] = []
            for node_idx, status, _ in self._scrub_locked(info):
                if status == "corrupt":
                    self.datanodes[node_idx].drop(info.block_id)
                    dropped += 1
                else:
                    kept.append(node_idx)
            if dropped:
                info.replicas = tuple(kept)
            return dropped

    def rereplicate(self, info: BlockInfo) -> int:
        """Restore a block to its target replication by copying a healthy
        replica onto live nodes that lack one (the namenode's response to a
        datanode death in HDFS).  Returns the number of new copies made;
        raises if no healthy source replica exists."""
        with self._lock:
            target = min(self.replication, sum(dn.alive for dn in self.datanodes))
            healthy = {
                node_idx: payload
                for node_idx, status, payload in self._scrub_locked(info)
                if status == "healthy" and payload is not None
            }
            if len(healthy) >= target:
                return 0
            if not healthy:
                raise BlockMissingError(
                    f"{info.block_id}: no healthy replica to re-replicate from"
                )
            # Copy the very object the scrub just checksummed (not a second
            # ``get``, which a racing ``corrupt`` could have replaced), so the
            # new replicas can carry the verified mark.
            payload = next(iter(healthy.values()))
            candidates = [
                dn.node_id
                for dn in self.datanodes
                if dn.alive and dn.node_id not in healthy
            ]
            made = 0
            new_replicas = list(healthy)
            for node_idx in candidates:
                if len(new_replicas) >= target:
                    break
                self.datanodes[node_idx].put(info.block_id, payload, verified=True)
                new_replicas.append(node_idx)
                made += 1
            info.replicas = tuple(new_replicas)
            return made

    # -- fault hooks --------------------------------------------------------

    def kill_datanode(self, node_id: int) -> None:
        self._set_alive(node_id, False)

    def revive_datanode(self, node_id: int) -> None:
        self._set_alive(node_id, True)

    def _set_alive(self, node_id: int, alive: bool) -> None:
        with self._lock:
            self.datanodes[node_id].alive = alive
            self._live = tuple(dn.node_id for dn in self.datanodes if dn.alive)
            self._failure_epoch += 1

    def corrupt_replica(self, info: BlockInfo, node_id: int) -> bool:
        return self.datanodes[node_id].corrupt(info.block_id)

    # -- introspection -------------------------------------------------------

    @property
    def total_stored_bytes(self) -> int:
        return sum(dn.stored_bytes for dn in self.datanodes)

    @property
    def block_count(self) -> int:
        with self._lock:
            return len(self._blocks)

    def stored_blocks(self) -> list[BlockInfo]:
        """Every block in the registry, referenced by a file or not (fsck)."""
        with self._lock:
            return list(self._blocks.values())
