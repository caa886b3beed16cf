"""Block store: placement, replication, checksums, failures."""

import gc
import sys
import threading
import time
import weakref
import zlib

import numpy as np
import pytest

from repro.dfs import DFS, blocks
from repro.dfs.blocks import (
    BlockCorruptionError,
    BlockMissingError,
    BlockStore,
)


@pytest.fixture
def store() -> BlockStore:
    return BlockStore(num_datanodes=5, replication=3, block_size=1024, seed=3)


class TestPlacement:
    def test_write_returns_requested_replication(self, store):
        info = store.write_block(b"hello")
        assert len(info.replicas) == 3

    def test_replicas_are_distinct_nodes(self, store):
        info = store.write_block(b"payload")
        assert len(set(info.replicas)) == len(info.replicas)

    def test_replication_capped_by_cluster_size(self):
        small = BlockStore(num_datanodes=2, replication=3)
        info = small.write_block(b"x")
        assert len(info.replicas) == 2

    def test_each_replica_node_stores_payload(self, store):
        info = store.write_block(b"abc")
        for node_idx in info.replicas:
            assert store.datanodes[node_idx].get(info.block_id) == b"abc"

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            BlockStore(num_datanodes=0)
        with pytest.raises(ValueError):
            BlockStore(num_datanodes=2, replication=0)


class TestReads:
    def test_roundtrip(self, store):
        info = store.write_block(b"some data here")
        assert store.read_block(info) == b"some data here"

    def test_read_survives_single_node_failure(self, store):
        info = store.write_block(b"resilient")
        store.kill_datanode(info.replicas[0])
        assert store.read_block(info) == b"resilient"

    def test_read_survives_all_but_one_failure(self, store):
        info = store.write_block(b"last copy")
        for node_idx in info.replicas[:-1]:
            store.kill_datanode(node_idx)
        assert store.read_block(info) == b"last copy"

    def test_read_fails_when_all_replicas_dead(self, store):
        info = store.write_block(b"gone")
        for node_idx in info.replicas:
            store.kill_datanode(node_idx)
        with pytest.raises(BlockMissingError):
            store.read_block(info)

    def test_revived_node_serves_again(self, store):
        info = store.write_block(b"back")
        for node_idx in info.replicas:
            store.kill_datanode(node_idx)
        store.revive_datanode(info.replicas[0])
        assert store.read_block(info) == b"back"


class TestCorruption:
    def test_corrupt_replica_is_skipped(self, store):
        info = store.write_block(b"check me")
        assert store.corrupt_replica(info, info.replicas[0])
        assert store.read_block(info) == b"check me"

    def test_all_replicas_corrupt_raises(self, store):
        info = store.write_block(b"doomed")
        for node_idx in info.replicas:
            store.corrupt_replica(info, node_idx)
        with pytest.raises(BlockCorruptionError):
            store.read_block(info)

    def test_every_replica_corrupted_before_the_first_read_raises(self, store):
        info = store.write_block(b"never served")
        for node_idx in info.replicas:
            assert store.corrupt_replica(info, node_idx)
        with pytest.raises(BlockCorruptionError) as err:
            store.read_block(info)
        for node_idx in info.replicas:
            assert f"datanode {node_idx}: corrupt" in str(err.value)

    def test_two_of_three_corrupted_before_the_first_read_serves_the_third(self, store):
        info = store.write_block(b"one survivor")
        for node_idx in info.replicas[:2]:
            assert store.corrupt_replica(info, node_idx)
        served = store.read_block(info)
        assert served == b"one survivor"
        assert served is store.datanodes[info.replicas[2]].get(info.block_id)

    def test_checksum_is_the_written_payloads_after_every_replica_is_replaced(self, store):
        original = b"the written bytes"
        info = store.write_block(original)
        for node_idx in info.replicas:
            store.datanodes[node_idx].put(info.block_id, b"replaced copy")
        assert info.checksum == zlib.crc32(original)
        assert {status for _, status in store.replica_status(info)} == {"corrupt"}

    def test_corrupt_missing_block_returns_false(self, store):
        info = store.write_block(b"x")
        absent = [i for i in range(5) if i not in info.replicas]
        assert not store.corrupt_replica(info, absent[0])


class TestDeletion:
    def test_delete_frees_all_replicas(self, store):
        info = store.write_block(b"bye")
        store.delete_block(info)
        for dn in store.datanodes:
            assert dn.get(info.block_id) is None
        assert store.block_count == 0

    def test_delete_releases_the_written_payload(self, store):
        payload = bytes(range(64)) * 2
        baseline = sys.getrefcount(payload)
        info = store.write_block(payload)
        assert sys.getrefcount(payload) > baseline
        store.delete_block(info)
        assert sys.getrefcount(payload) == baseline

    def test_stored_bytes_accounting(self, store):
        store.write_block(b"12345678")
        assert store.total_stored_bytes == 8 * 3


@pytest.fixture
def crc_calls(monkeypatch):
    """Every ``zlib.crc32`` call made from ``repro.dfs.blocks``, as
    ``(calling function, payload length)``."""
    calls: list[tuple[str, int]] = []

    class CountingZlib:
        @staticmethod
        def crc32(data):
            calls.append((sys._getframe(1).f_code.co_name, len(data)))
            return zlib.crc32(data)

    monkeypatch.setattr(blocks, "zlib", CountingZlib)
    return calls


class TestVerifyOnce:
    """A stored payload object is checksummed once before it is first served;
    anything that changes a replica makes the next read checksum it again."""

    def test_reads_of_a_written_block_do_not_checksum_again(self, store, crc_calls):
        info = store.write_block(b"written once")
        for _ in range(3):
            assert store.read_block(info) == b"written once"
        assert crc_calls == []

    def test_corrupting_the_replica_just_served_fails_over(self, store):
        info = store.write_block(b"fail over")
        first = info.replicas[0]
        served = store.read_block(info)
        assert served is store.datanodes[first].get(info.block_id)
        assert store.corrupt_replica(info, first)
        again = store.read_block(info)
        assert again == b"fail over"
        assert again is store.datanodes[info.replicas[1]].get(info.block_id)

    def test_all_replicas_corrupted_after_a_verified_read_raises(self, store):
        info = store.write_block(b"doomed later")
        assert store.read_block(info) == b"doomed later"
        for node_idx in info.replicas:
            store.corrupt_replica(info, node_idx)
        with pytest.raises(BlockCorruptionError) as err:
            store.read_block(info)
        for node_idx in info.replicas:
            assert f"datanode {node_idx}: corrupt" in str(err.value)

    def test_rereplicate_onto_a_node_that_held_a_corrupt_copy(self, store):
        info = store.write_block(b"fresh copy")
        victim = info.replicas[0]
        store.read_block(info)
        store.corrupt_replica(info, victim)
        assert store.drop_corrupt_replicas(info) == 1
        for dn in store.datanodes:  # leave the victim as the only spare node
            if dn.node_id != victim and dn.node_id not in info.replicas:
                store.kill_datanode(dn.node_id)
        assert store.rereplicate(info) == 1
        assert victim in info.replicas
        for node_idx in info.replicas:
            if node_idx != victim:
                store.kill_datanode(node_idx)
        assert store.read_block(info) == b"fresh copy"

    def test_rereplicated_copies_are_served_without_a_second_checksum(
        self, store, crc_calls
    ):
        info = store.write_block(b"copied")
        store.kill_datanode(info.replicas[0])
        assert store.rereplicate(info) == 1
        del crc_calls[:]
        for node_idx in info.replicas[:-1]:
            store.kill_datanode(node_idx)
        assert store.read_block(info) == b"copied"
        assert crc_calls == []

    def test_drop_and_reput_forgets_the_mark(self, store, crc_calls):
        info = store.write_block(b"original")
        node = store.datanodes[info.replicas[0]]
        store.read_block(info)
        node.drop(info.block_id)
        node.put(info.block_id, b"0riginal")  # unverified, and wrong
        del crc_calls[:]
        assert store.read_block(info) == b"original"
        assert crc_calls == [("read_block", 8), ("checksum", 8)]
        del crc_calls[:]
        assert store.read_block(info) == b"original"
        assert crc_calls == [("read_block", 8)]  # the reference is cached
        assert store.replica_status(info)[0] == (info.replicas[0], "corrupt")

    def test_put_over_a_verified_replica_forgets_the_mark(self, store):
        info = store.write_block(b"original")
        node = store.datanodes[info.replicas[0]]
        store.read_block(info)
        node.put(info.block_id, b"0riginal")
        assert store.read_block(info) == b"original"
        assert store.read_block(info) is not node.get(info.block_id)

    def test_a_read_that_verifies_marks_the_replica(self, store, crc_calls):
        info = store.write_block(b"verify me")
        node = store.datanodes[info.replicas[0]]
        node.put(info.block_id, bytes(bytearray(b"verify me")))  # unverified copy
        del crc_calls[:]
        store.read_block(info)
        assert crc_calls == [("read_block", 9), ("checksum", 9)]
        store.read_block(info)
        assert crc_calls == [("read_block", 9), ("checksum", 9)]

    def test_mark_is_not_set_for_a_payload_that_was_replaced(self, store):
        info = store.write_block(b"swap")
        node = store.datanodes[info.replicas[0]]
        node.put(info.block_id, b"swap"[:])
        alive, stale, verified = node.fetch(info.block_id)
        assert alive and not verified
        node.corrupt(info.block_id)
        node.mark_verified(info.block_id, stale)  # a reader that lost the race
        assert node.fetch(info.block_id)[2] is False

    def test_fetch_reports_liveness_with_the_payload(self, store):
        info = store.write_block(b"alive?")
        node = store.datanodes[info.replicas[0]]
        assert node.fetch(info.block_id) == (True, b"alive?", True)
        store.kill_datanode(node.node_id)
        alive, payload, _ = node.fetch(info.block_id)
        assert not alive and payload == b"alive?"  # dead, not dropped
        assert store.read_block(info) == b"alive?"  # served by a live replica

    def test_scrub_never_trusts_the_mark(self):
        dfs = DFS(num_datanodes=4, replication=3, block_size=64, seed=0)
        dfs.write_bytes("/f", bytes(range(50)))
        assert dfs.read_bytes("/f") == bytes(range(50))  # verified and marked
        info = dfs.namenode.get_file("/f").blocks[0]
        victim = info.replicas[0]
        assert dfs.blocks.corrupt_replica(info, victim)
        assert (victim, "corrupt") in dfs.blocks.replica_status(info)
        assert dfs.blocks.live_replica_count(info) == 2
        assert dfs.health_monitor().scan().corrupt_replicas == 1

    def test_scrub_checksums_every_replica_every_time(self, store, crc_calls):
        info = store.write_block(b"scrubbed")
        store.read_block(info)
        del crc_calls[:]
        store.replica_status(info)
        store.replica_status(info)
        assert crc_calls == [("_scrub_locked", 8), ("checksum", 8)] + [("_scrub_locked", 8)] * 5

    def test_readers_racing_a_corruptor_never_see_a_bad_payload(self):
        store = BlockStore(num_datanodes=3, replication=3, seed=1)
        # Large enough that crc32 releases the GIL: a reader checksumming an
        # unverified copy can be overtaken by the corruptor mid-CRC.
        payload = bytes(range(256)) * 256
        infos = [store.write_block(payload) for _ in range(8)]
        checksum = zlib.crc32(payload)
        bad: list[bytes] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for info in infos:
                        got = store.read_block(info)
                        if zlib.crc32(got) != checksum:
                            bad.append(got)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        victims = [(info, node_idx) for info in infos for node_idx in info.replicas[:2]]

        def corruptor():
            try:
                # The first two replicas of every block, over and over: the
                # third stays healthy, so every read must succeed.
                deadline = time.monotonic() + 0.4
                while time.monotonic() < deadline:
                    for info, node_idx in victims:
                        # An intact but unverified copy, a yield so a reader
                        # starts checksumming it, then the damage.
                        store.datanodes[node_idx].put(
                            info.block_id, bytes(bytearray(payload))
                        )
                        time.sleep(0)
                        store.corrupt_replica(info, node_idx)
            except BaseException as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for t in readers:
                t.start()
            worker = threading.Thread(target=corruptor)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            stop.set()
            for t in readers:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(old)
        assert not errors
        assert not bad
        for info in infos:
            assert [status for _, status in store.replica_status(info)] == [
                "corrupt",
                "corrupt",
                "healthy",
            ]
            assert store.read_block(info) == payload

    def test_first_checksum_races_readers_and_a_delete(self):
        """Readers of unverified copies all take the block's first checksum
        while the block is deleted: each read returns the written bytes or
        reports the block missing, and a checksum taken is the right one."""
        store = BlockStore(num_datanodes=3, replication=3, seed=1)
        # Large enough that crc32 releases the GIL mid-checksum.
        payload = bytes(range(256)) * 256
        expected = zlib.crc32(payload)
        errors: list[BaseException] = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(40):
                info = store.write_block(payload)
                for node_idx in info.replicas:
                    store.datanodes[node_idx].put(info.block_id, bytes(bytearray(payload)))
                start = threading.Barrier(5)

                def reader(info=info, start=start):
                    try:
                        start.wait(timeout=10)
                        if store.read_block(info) != payload:
                            errors.append(AssertionError("wrong bytes served"))
                    except BlockMissingError:
                        pass
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                def deleter(info=info, start=start):
                    try:
                        start.wait(timeout=10)
                        store.delete_block(info)
                    except BaseException as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=reader) for _ in range(4)]
                threads.append(threading.Thread(target=deleter))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                try:
                    assert info.checksum == expected
                except BlockMissingError:  # deleted before any read checked it
                    pass
        finally:
            sys.setswitchinterval(old)
        assert not errors
        assert store.block_count == 0


class TestCrcCountGuard:
    def test_fault_free_invert_checksums_written_bytes_only(self, crc_calls):
        """No fault-free write or read pays for a CRC: every replica read is
        the written object, and only a check against it takes a checksum."""
        from repro import InversionConfig, invert

        rng = np.random.default_rng(5)
        a = rng.standard_normal((96, 96)) + 96 * np.eye(96)
        result = invert(
            a, InversionConfig(nb=16, m0=4, block_cache_bytes=0, output_commit=False)
        )
        assert np.allclose(result.inverse @ a, np.eye(96), atol=1e-8)
        assert result.io.write_ops > 0
        assert crc_calls == []


class TestPayloadLifetime:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_no_block_outlives_its_call(self, monkeypatch, executor):
        """A ``BlockInfo`` holds its payload, so one that outlives its call
        keeps a matrix alive; with the cycle collector off, every block a
        call wrote must be gone once the call returns."""
        from repro import InversionConfig, invert

        calls: list[list[weakref.ref]] = []
        write_block = BlockStore.write_block

        def recording(self, payload):
            info = write_block(self, payload)
            calls[-1].append(weakref.ref(info))
            return info

        monkeypatch.setattr(BlockStore, "write_block", recording)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((64, 64)) + 64 * np.eye(64)
        config = InversionConfig(nb=16, m0=4, executor=executor, num_workers=2)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                calls.append([])
                invert(a, config)
            alive = [ref() for refs in calls for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert all(calls)
        assert alive == []
