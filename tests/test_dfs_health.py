"""DFS health monitoring: scan, scrub, repair convergence, and the enriched
read-path diagnostics."""

import random

import pytest

from repro.dfs import DFS, HealthMonitor
from repro.dfs.blocks import BlockCorruptionError, BlockMissingError


def make_dfs(num_datanodes=5, replication=3, seed=0):
    return DFS(
        num_datanodes=num_datanodes,
        replication=replication,
        block_size=64,
        seed=seed,
    )


def write_files(dfs, count=4, size=200):
    payloads = {}
    for i in range(count):
        path = f"/data/f{i}"
        data = bytes((i + j) % 251 for j in range(size))
        dfs.write_bytes(path, data)
        payloads[path] = data
    return payloads


def all_blocks(dfs):
    return [
        info
        for path in dfs.namenode.walk_files("/")
        for info in dfs.namenode.get_file(path).blocks
    ]


class TestScan:
    def test_clean_cluster_scans_healthy(self):
        dfs = make_dfs()
        write_files(dfs)
        report = dfs.health_monitor().scan()
        assert report.healthy
        assert report.blocks_total == len(all_blocks(dfs))
        assert report.under_replicated == 0
        assert report.corrupt_replicas == 0

    def test_dead_node_shows_as_under_replication(self):
        dfs = make_dfs()
        write_files(dfs)
        dfs.blocks.kill_datanode(0)
        report = dfs.health_monitor().scan()
        assert report.dead_replicas > 0
        assert report.under_replicated > 0
        assert not report.healthy

    def test_corrupt_replica_is_counted(self):
        dfs = make_dfs()
        write_files(dfs)
        info = all_blocks(dfs)[0]
        assert dfs.blocks.corrupt_replica(info, info.replicas[0])
        report = dfs.health_monitor().scan()
        assert report.corrupt_replicas == 1

    def test_target_degrades_with_cluster_size(self):
        # 2 live nodes cannot hold 3 replicas: target is min(replication,
        # live nodes), so the scan does not cry wolf about the impossible.
        dfs = make_dfs(num_datanodes=2, replication=3)
        write_files(dfs, count=1)
        assert dfs.health_monitor().scan().healthy


class TestRepair:
    def test_repair_restores_replication_after_death(self):
        dfs = make_dfs()
        write_files(dfs)
        dfs.blocks.kill_datanode(1)
        report = dfs.health_monitor().repair()
        assert report.fully_repaired
        assert report.copies_made > 0
        assert report.bytes_copied > 0
        assert dfs.health_monitor().scan().under_replicated == 0
        assert dfs.health_monitor().scan().healthy

    def test_repair_scrubs_corrupt_replicas(self):
        dfs = make_dfs()
        payloads = write_files(dfs)
        for info in all_blocks(dfs)[:3]:
            dfs.blocks.corrupt_replica(info, info.replicas[0])
        report = dfs.health_monitor().repair()
        assert report.corrupt_replicas_dropped == 3
        assert report.copies_made >= 3  # the dropped copies were replaced
        assert dfs.health_monitor().scan().corrupt_replicas == 0
        for path, data in payloads.items():
            assert dfs.read_bytes(path) == data

    def test_unrecoverable_block_reported_not_raised(self):
        dfs = make_dfs(num_datanodes=3, replication=2)
        write_files(dfs, count=1)
        info = all_blocks(dfs)[0]
        for node in list(info.replicas):
            dfs.blocks.corrupt_replica(info, node)
        report = dfs.health_monitor().repair()
        assert not report.fully_repaired
        assert str(info.block_id) in report.unrecoverable
        with pytest.raises(BlockMissingError):
            dfs.blocks.read_block(info)

    def test_repair_is_idempotent(self):
        dfs = make_dfs()
        write_files(dfs)
        dfs.blocks.kill_datanode(0)
        dfs.health_monitor().repair()
        second = dfs.health_monitor().repair()
        assert second.copies_made == 0
        assert second.corrupt_replicas_dropped == 0

    def test_repair_traffic_hits_iostats(self):
        dfs = make_dfs()
        write_files(dfs)
        dfs.blocks.kill_datanode(0)
        before = dfs.stats.snapshot()
        report = dfs.health_monitor().repair()
        delta = dfs.stats.snapshot() - before
        assert delta.repair_copies == report.copies_made > 0
        assert delta.bytes_written >= report.bytes_copied


class TestReadDiagnostics:
    def test_missing_error_lists_each_replica_status(self):
        dfs = make_dfs(num_datanodes=3, replication=3)
        write_files(dfs, count=1)
        info = all_blocks(dfs)[0]
        for node in range(3):
            dfs.blocks.kill_datanode(node)
        with pytest.raises(BlockMissingError) as err:
            dfs.blocks.read_block(info)
        msg = str(err.value)
        assert msg.count("dead") == 3
        assert "node" in msg

    def test_corruption_error_preferred_and_detailed(self):
        # All replicas corrupt: the corruption error (the more actionable
        # diagnosis) wins over plain missing, and names the bad replicas.
        dfs = make_dfs(num_datanodes=3, replication=2)
        write_files(dfs, count=1)
        info = all_blocks(dfs)[0]
        for node in list(info.replicas):
            dfs.blocks.corrupt_replica(info, node)
        with pytest.raises(BlockCorruptionError) as err:
            dfs.blocks.read_block(info)
        assert str(err.value).count("corrupt") >= 2


class TestConvergenceProperty:
    """Satellite (d): random seeded kill/revive/corrupt sequences, then a
    repair pass, always land every block at ``min(replication, live_nodes)``
    healthy replicas — or the block is provably unrecoverable."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_fault_sequences_converge(self, seed):
        rng = random.Random(seed)
        dfs = make_dfs(num_datanodes=rng.randint(3, 6), replication=3, seed=seed)
        write_files(dfs, count=rng.randint(2, 5), size=rng.randint(100, 400))

        for _ in range(rng.randint(3, 10)):
            op = rng.random()
            node = rng.randrange(len(dfs.blocks.datanodes))
            if op < 0.4:
                dfs.blocks.kill_datanode(node)
            elif op < 0.6:
                dfs.blocks.revive_datanode(node)
            else:
                info = rng.choice(all_blocks(dfs))
                if info.replicas:
                    dfs.blocks.corrupt_replica(info, rng.choice(info.replicas))

        monitor = dfs.health_monitor()
        report = monitor.repair()
        live = sum(dn.alive for dn in dfs.blocks.datanodes)
        target = min(dfs.blocks.replication, live)
        for info in all_blocks(dfs):
            healthy = sum(
                1 for _, s in dfs.blocks.replica_status(info) if s == "healthy"
            )
            if str(info.block_id) in report.unrecoverable:
                # Unrecoverable must mean it: no healthy copy anywhere.
                assert healthy == 0
                with pytest.raises((BlockMissingError, BlockCorruptionError)):
                    dfs.blocks.read_block(info)
            else:
                assert healthy >= target
        # A second pass finds nothing left to do.
        again = monitor.repair()
        assert again.copies_made == 0 and again.corrupt_replicas_dropped == 0
