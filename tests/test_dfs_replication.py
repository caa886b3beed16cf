"""HDFS-style replication maintenance: detection and re-replication, through
the DFS's :class:`~repro.dfs.health.HealthMonitor`."""

import pytest

from repro.dfs import DFS
from repro.dfs.blocks import BlockMissingError


@pytest.fixture
def dfs5() -> DFS:
    return DFS(num_datanodes=5, replication=3, block_size=256, seed=1)


def under_replicated(dfs: DFS) -> int:
    return dfs.health_monitor().scan().under_replicated


class TestDetection:
    def test_healthy_cluster_has_none(self, dfs5):
        dfs5.write_bytes("/a", b"x" * 1000)
        assert under_replicated(dfs5) == 0

    def test_dead_node_flags_its_blocks(self, dfs5):
        dfs5.write_bytes("/a", b"x" * 1000)  # 4 blocks of 256
        entry = dfs5.namenode.get_file("/a")
        victim = entry.blocks[0].replicas[0]
        dfs5.blocks.kill_datanode(victim)
        flagged = under_replicated(dfs5)
        expected = sum(1 for b in entry.blocks if victim in b.replicas)
        assert flagged == expected > 0

    def test_corruption_counts_as_missing_replica(self, dfs5):
        dfs5.write_bytes("/a", b"y" * 100)
        info = dfs5.namenode.get_file("/a").blocks[0]
        dfs5.blocks.corrupt_replica(info, info.replicas[0])
        assert under_replicated(dfs5) == 1


class TestRereplication:
    def test_restores_target_count(self, dfs5):
        dfs5.write_bytes("/a", b"z" * 500)
        info = dfs5.namenode.get_file("/a").blocks[0]
        dfs5.blocks.kill_datanode(info.replicas[0])
        made = dfs5.health_monitor().repair().copies_made
        assert made >= 1
        assert under_replicated(dfs5) == 0
        assert dfs5.blocks.live_replica_count(info) == 3

    def test_accounts_maintenance_traffic(self, dfs5):
        dfs5.write_bytes("/a", b"w" * 1000)
        info = dfs5.namenode.get_file("/a").blocks[0]
        dfs5.blocks.kill_datanode(info.replicas[0])
        before = dfs5.stats.snapshot()
        dfs5.health_monitor().repair()
        delta = dfs5.stats.snapshot() - before
        assert delta.bytes_transferred > 0

    def test_survives_rolling_failures(self, dfs5):
        """Kill one replica holder, re-replicate, kill another — data stays
        readable throughout (the HDFS durability story)."""
        payload = b"durable" * 100
        dfs5.write_bytes("/a", payload)
        info = dfs5.namenode.get_file("/a").blocks[0]
        for _ in range(2):
            dfs5.blocks.kill_datanode(info.replicas[0])
            dfs5.health_monitor().repair()
            assert dfs5.read_bytes("/a") == payload

    def test_no_source_raises(self, dfs5):
        dfs5.write_bytes("/a", b"gone")
        info = dfs5.namenode.get_file("/a").blocks[0]
        for node in info.replicas:
            dfs5.blocks.kill_datanode(node)
        with pytest.raises(BlockMissingError):
            dfs5.blocks.rereplicate(info)

    def test_no_source_is_reported_unrecoverable(self, dfs5):
        """The monitor lists a block with no healthy source instead of
        raising mid-pass."""
        dfs5.write_bytes("/a", b"gone")
        info = dfs5.namenode.get_file("/a").blocks[0]
        for node in info.replicas:
            dfs5.blocks.kill_datanode(node)
        report = dfs5.health_monitor().repair()
        assert report.unrecoverable == [str(info.block_id)]
        assert not report.fully_repaired

    def test_idempotent_when_healthy(self, dfs5):
        dfs5.write_bytes("/a", b"fine" * 50)
        assert dfs5.health_monitor().repair().copies_made == 0

    def test_caps_at_live_node_count(self):
        dfs = DFS(num_datanodes=3, replication=3, seed=2)
        dfs.write_bytes("/a", b"small")
        info = dfs.namenode.get_file("/a").blocks[0]
        dfs.blocks.kill_datanode(info.replicas[0])
        # Only 2 live nodes remain; target degrades to 2, nothing to copy to.
        assert dfs.health_monitor().repair().copies_made == 0
        assert under_replicated(dfs) == 0
