"""DFS facade: file I/O, range reads, accounting, namespace ops."""

import numpy as np
import pytest

from repro.dfs import DFS, FileNotFound, IsADirectory, formats
from repro.dfs.blocks import DEFAULT_BLOCK_SIZE, BlockMissingError


class TestRoundTrips:
    def test_bytes_roundtrip(self, dfs):
        dfs.write_bytes("/x/y", b"payload")
        assert dfs.read_bytes("/x/y") == b"payload"

    def test_text_roundtrip(self, dfs):
        dfs.write_text("/t", "héllo\nwörld")
        assert dfs.read_text("/t") == "héllo\nwörld"

    def test_empty_file(self, dfs):
        dfs.write_bytes("/empty", b"")
        assert dfs.read_bytes("/empty") == b""
        assert dfs.file_size("/empty") == 0

    def test_multi_block_file(self, dfs):
        data = bytes(range(256)) * 1024  # 256 KiB over 64 KiB blocks
        dfs.write_bytes("/big", data)
        assert dfs.read_bytes("/big") == data
        entry = dfs.namenode.get_file("/big")
        assert len(entry.blocks) == 4


class TestWholeFileBlocks:
    """At the default block size (Hadoop 1.1.1's 64 MB) a matrix file is one
    block: the stored payload is the encoder's bytes object, a read returns
    that object, and the cached decode is a view into it — one copy of the
    matrix, however many readers."""

    def test_default_is_the_hadoop_block_size(self):
        assert DEFAULT_BLOCK_SIZE == 64 << 20
        assert DFS().blocks.block_size == DEFAULT_BLOCK_SIZE

    def test_matrix_read_returns_the_stored_payload(self):
        dfs = DFS()
        data = formats.encode_matrix(np.random.default_rng(0).standard_normal((1024, 1024)))
        assert len(data) > 8 << 20
        dfs.write_bytes("/m", data)
        (info,) = dfs.namenode.get_file("/m").blocks
        stored = [dfs.blocks.datanodes[i].get(info.block_id) for i in info.replicas]
        assert all(payload is data for payload in stored)  # no split copy
        assert dfs.read_bytes("/m") is data  # no join
        matrix, nbytes = dfs.attach_cache(64 << 20).read_through(dfs, "/m")
        assert nbytes == len(data)
        assert np.shares_memory(matrix, np.frombuffer(data, dtype=np.uint8))
        assert dfs.cache.get(dfs.namenode.get_file("/m").generation) is matrix

    def test_file_larger_than_the_block_size_round_trips(self):
        dfs = DFS(block_size=1 << 20)
        matrix = np.random.default_rng(1).standard_normal((700, 640))  # 3.4 MiB
        data = formats.encode_matrix(matrix)
        dfs.write_bytes("/big", data)
        assert len(dfs.namenode.get_file("/big").blocks) == 4
        assert dfs.read_bytes("/big") == data
        assert np.array_equal(formats.read_matrix(dfs, "/big"), matrix)
        cached, _ = dfs.attach_cache(64 << 20).read_through(dfs, "/big")
        assert np.array_equal(cached, matrix)
        assert np.array_equal(formats.read_rows(dfs, "/big", 150, 500), matrix[150:500])


class TestRangeReads:
    def test_range_within_one_block(self, dfs):
        dfs.write_bytes("/r", b"0123456789")
        assert dfs.read_range("/r", 2, 5) == b"23456"

    def test_range_spanning_blocks(self, dfs):
        data = b"A" * 70000 + b"B" * 70000  # crosses the 64 KiB boundary
        dfs.write_bytes("/r", data)
        got = dfs.read_range("/r", 69998, 4)
        assert got == b"AABB"

    def test_range_past_eof_truncated(self, dfs):
        dfs.write_bytes("/r", b"short")
        assert dfs.read_range("/r", 3, 100) == b"rt"

    def test_negative_range_rejected(self, dfs):
        dfs.write_bytes("/r", b"x")
        with pytest.raises(ValueError):
            dfs.read_range("/r", -1, 2)


class TestAccounting:
    def test_write_counts_replicated_bytes(self, dfs):
        before = dfs.stats.snapshot()
        dfs.write_bytes("/acc", b"x" * 100)
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_written == 300  # replication factor 3
        assert delta.bytes_transferred == 200  # 2 remote replicas
        assert delta.files_created == 1

    def test_read_counts_bytes(self, dfs):
        dfs.write_bytes("/acc", b"y" * 50)
        before = dfs.stats.snapshot()
        dfs.read_bytes("/acc")
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_read == 50
        assert delta.bytes_transferred == 50

    def test_local_read_skips_transfer(self, dfs):
        dfs.write_bytes("/acc", b"z" * 50)
        before = dfs.stats.snapshot()
        dfs.read_bytes("/acc", local=True)
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_read == 50
        assert delta.bytes_transferred == 0

    def test_range_read_counts_only_range(self, dfs):
        dfs.write_bytes("/acc", b"w" * 1000)
        before = dfs.stats.snapshot()
        dfs.read_range("/acc", 100, 200)
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_read == 200

    def test_a_read_is_one_open_and_one_op(self, dfs):
        dfs.write_bytes("/acc", b"v" * 100)
        before = dfs.stats.snapshot()
        dfs.read_bytes("/acc")
        dfs.read_range("/acc", 10, 20)
        delta = dfs.stats.snapshot() - before
        assert delta.read_ops == delta.files_opened == 2

    @pytest.mark.parametrize("read", [
        lambda dfs: dfs.read_bytes("/lost"),
        lambda dfs: dfs.read_range("/lost", 4, 8),
    ], ids=["whole", "range"])
    def test_a_read_of_an_all_dead_block_still_counts_its_open(self, dfs, read):
        from repro.dfs.blocks import BlockMissingError

        dfs.write_bytes("/lost", b"u" * 64)
        (info,) = dfs.namenode.get_file("/lost").blocks
        for node in info.replicas:
            dfs.blocks.kill_datanode(node)
        before = dfs.stats.snapshot()
        with pytest.raises(BlockMissingError):
            read(dfs)
        delta = dfs.stats.snapshot() - before
        assert (delta.files_opened, delta.read_ops, delta.bytes_read) == (1, 0, 0)


class TestNamespaceOps:
    def test_glob(self, dfs):
        dfs.write_bytes("/Root/L2/L.0", b"a")
        dfs.write_bytes("/Root/L2/L.1", b"b")
        dfs.write_bytes("/Root/U2/U.0", b"c")
        assert dfs.glob("/Root/L2/L.*") == ["/Root/L2/L.0", "/Root/L2/L.1"]

    def test_delete_recursive_frees_blocks(self, dfs):
        dfs.write_bytes("/d/a", b"x" * 100)
        dfs.write_bytes("/d/b", b"y" * 100)
        assert dfs.total_stored_bytes() == 600
        dfs.delete("/d", recursive=True)
        assert dfs.total_stored_bytes() == 0

    def test_read_missing_raises(self, dfs):
        with pytest.raises(FileNotFound):
            dfs.read_bytes("/ghost")

    def test_rename_preserves_content(self, dfs):
        dfs.write_bytes("/old", b"keep")
        dfs.rename("/old", "/new/name")
        assert dfs.read_bytes("/new/name") == b"keep"

    def test_list_files_and_tree(self, dfs):
        dfs.write_bytes("/a/b", b"1")
        dfs.write_bytes("/a/c", b"22")
        assert dfs.list_files("/a") == ["/a/b", "/a/c"]
        assert "(2 B)" in dfs.tree("/a")

    def test_overwrite_replaces_content(self, dfs):
        dfs.write_bytes("/f", b"one")
        dfs.write_bytes("/f", b"two")
        assert dfs.read_bytes("/f") == b"two"


class CountingLock:
    """A lock stub that counts its acquisitions."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.count = 0

    def __enter__(self):
        self.count += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


class TestWriteIsOneOp:
    """A whole-file write: its blocks first, then one namenode call and one
    ledger update; a failed write names nothing and keeps no block."""

    def test_overwrite_collects_the_file_it_replaces(self):
        dfs = DFS(num_datanodes=3, replication=2)
        dfs.write_bytes("/z", b"a" * 1000)
        dfs.write_bytes("/z", b"a" * 1000)
        assert dfs.total_stored_bytes() == 2000  # one file, two replicas
        dfs.delete("/z")
        assert dfs.total_stored_bytes() == 0
        assert dfs.blocks.block_count == 0

    def test_superseded_pending_file_is_discarded_from_the_ledger(self, dfs):
        dfs.stage_bytes("/_tmp/t/p", b"x" * 10)
        dfs.stage_bytes("/_tmp/t/p", b"y" * 20)  # a retried writer's debris
        dfs.publish([("/_tmp/t/p", "/p")], "/_tmp/t")
        s = dfs.stats
        assert (s.bytes_staged, s.bytes_published, s.bytes_discarded) == (30, 20, 10)
        assert s.bytes_staged == s.bytes_published + s.bytes_discarded
        assert dfs.blocks.block_count == 1

    def test_overwrite_drops_the_replaced_files_cached_view(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        formats.write_matrix(dfs, "/m", rng.standard_normal((4, 4)))
        cache.read_through(dfs, "/m")
        old = dfs.namenode.get_file("/m").generation
        assert cache.get(old) is not None
        formats.write_matrix(dfs, "/m", rng.standard_normal((4, 4)))
        assert cache.get(old) is None
        assert cache.used_bytes == 0

    def test_failed_write_keeps_the_old_file(self):
        dfs = DFS(num_datanodes=2, replication=2, block_size=4)
        dfs.write_bytes("/x", b"old-contents")
        stored = dfs.blocks.block_count
        for node in (0, 1):
            dfs.blocks.kill_datanode(node)
        with pytest.raises(BlockMissingError):
            dfs.write_bytes("/x", b"new-contents")
        for node in (0, 1):
            dfs.blocks.revive_datanode(node)
        assert dfs.read_bytes("/x") == b"old-contents"
        assert dfs.blocks.block_count == stored

    def test_write_failing_on_its_second_block_stores_nothing(self, dfs, monkeypatch):
        dfs.write_bytes("/keep", b"k")
        before = (dfs.blocks.block_count, dfs.total_stored_bytes(), dfs.stats.snapshot())
        write_block = dfs.blocks.write_block
        calls = []

        def second_fails(payload):
            calls.append(len(payload))
            if len(calls) == 2:
                raise BlockMissingError("injected")
            return write_block(payload)

        monkeypatch.setattr(dfs.blocks, "write_block", second_fails)
        with pytest.raises(BlockMissingError):
            dfs.write_bytes("/big", bytes(3 * dfs.blocks.block_size))
        assert len(calls) == 2
        assert not dfs.namenode.exists("/big", include_pending=True)
        assert (dfs.blocks.block_count, dfs.total_stored_bytes(), dfs.stats.snapshot()) == before

    def test_write_into_a_directory_stores_nothing(self, dfs):
        dfs.write_bytes("/d/f", b"x")
        with pytest.raises(IsADirectory):
            dfs.write_bytes("/d", b"y" * 10)
        assert dfs.blocks.block_count == 1

    @pytest.mark.parametrize("pending", [False, True])
    def test_one_ledger_update_per_whole_file_write(self, dfs, pending):
        dfs.write_bytes("/warm", b"w")
        dfs.stats._lock = lock = CountingLock(dfs.stats._lock)
        dfs.write_bytes("/f", b"x" * 100, pending=pending)
        assert lock.count == 1
        s = dfs.stats
        assert s.bytes_staged == (100 if pending else 0)

    def test_placing_a_write_takes_no_datanode_lock(self, dfs):
        locks = []
        for node in dfs.blocks.datanodes:
            node._lock = CountingLock(node._lock)
            locks.append(node._lock)
        dfs.write_bytes("/f", b"x" * 100)
        (info,) = dfs.namenode.get_file("/f").blocks
        # One acquisition per replica stored (``DataNode.put``), none to
        # choose them.
        assert [lock.count for lock in locks] == [
            int(i in info.replicas) for i in range(len(locks))
        ]

    def test_no_write_lands_on_a_dead_datanode(self):
        dfs = DFS(num_datanodes=3, replication=2, seed=0)
        dfs.blocks.kill_datanode(1)
        for i in range(20):
            dfs.write_bytes(f"/dead/{i}", b"x")
        placed = {
            node
            for path in dfs.list_files("/dead")
            for info in dfs.namenode.get_file(path).blocks
            for node in info.replicas
        }
        assert placed == {0, 2}
        assert dfs.blocks.datanodes[1].block_count == 0
        dfs.blocks.revive_datanode(1)
        for i in range(20):
            dfs.write_bytes(f"/live/{i}", b"x")
        assert dfs.blocks.datanodes[1].block_count > 0

    def test_a_batched_delete_is_all_or_nothing(self, dfs):
        dfs.write_bytes("/a", b"1")
        dfs.write_bytes("/b", b"2")
        with pytest.raises(FileNotFound):
            dfs.delete("/a", "/ghost", "/b")
        assert dfs.exists("/a") and dfs.exists("/b")
        before = dfs.stats.files_deleted
        dfs.delete("/a", "/b")
        assert not dfs.exists("/a") and not dfs.exists("/b")
        assert dfs.stats.files_deleted == before + 2
        assert dfs.blocks.block_count == 0
