"""MPI substrate: point-to-point, collectives, traffic accounting, grids."""

import time

import numpy as np
import pytest

from repro.mpi import (
    Comm,
    DeadlockError,
    MPIError,
    ProcessGrid,
    World,
    collect_columns,
    cyclic_owner,
    distribute_columns,
    local_count,
    local_index,
    owned_indices,
    payload_bytes,
)


class TestPointToPoint:
    def test_send_recv(self):
        world = World(2)

        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return None
            return comm.recv(source=0)

        results = world.run(fn)
        assert results[1] == {"x": 1}

    def test_messages_ordered_per_channel(self):
        world = World(2)

        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        assert world.run(fn)[1] == [0, 1, 2, 3, 4]

    def test_self_send_rejected(self):
        world = World(1)

        def fn(comm):
            comm.send(1, dest=0)

        with pytest.raises(MPIError):
            world.run(fn)

    def test_recv_timeout_is_deadlock(self):
        world = World(2, timeout=0.2)

        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # never sent

        with pytest.raises(MPIError):
            world.run(fn)

    def test_rank_exception_propagates(self):
        world = World(2, timeout=0.5)

        def fn(comm):
            if comm.rank == 1:
                raise ValueError("rank boom")

        with pytest.raises(MPIError, match="rank 1"):
            world.run(fn)

    @pytest.mark.parametrize("recv_first", [True, False])
    def test_rank_failure_wakes_blocked_recv(self, recv_first):
        """A peer's failure cancels the wait: the blocked (or about to
        block) receive raises at once instead of sitting out the 60 s
        mailbox timeout, and the world reports the rank that failed."""
        world = World(2, timeout=60)
        woken: list[Exception] = []

        def fn(comm):
            if comm.rank == 1:
                if recv_first:
                    time.sleep(0.2)  # let rank 0 block in recv first
                raise ValueError("rank boom")
            if not recv_first:
                time.sleep(0.2)  # mailbox is created after the abort
            try:
                comm.recv(source=1, tag=7)
            except MPIError as exc:
                woken.append(exc)
                raise

        start = time.perf_counter()
        with pytest.raises(MPIError, match="rank 1 failed.*rank boom"):
            world.run(fn)
        assert time.perf_counter() - start < 2.0
        assert len(woken) == 1 and not isinstance(woken[0], DeadlockError)


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
    def test_bcast_all_sizes(self, size):
        world = World(size)

        def fn(comm):
            return comm.bcast("payload" if comm.rank == 0 else None, root=0)

        assert world.run(fn) == ["payload"] * size

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        world = World(3)

        def fn(comm):
            return comm.bcast(comm.rank if comm.rank == root else None, root=root)

        assert world.run(fn) == [root] * 3

    def test_gather(self):
        world = World(4)

        def fn(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = world.run(fn)
        assert results[0] == [0, 10, 20, 30]
        assert results[1] is None

    def test_scatter(self):
        world = World(3)

        def fn(comm):
            data = [f"item{i}" for i in range(3)] if comm.rank == 0 else None
            return comm.scatter(data, root=0)

        assert world.run(fn) == ["item0", "item1", "item2"]

    def test_scatter_wrong_length_rejected(self):
        world = World(2, timeout=0.5)

        def fn(comm):
            data = [1] if comm.rank == 0 else None
            return comm.scatter(data, root=0)

        with pytest.raises(MPIError):
            world.run(fn)

    def test_allgather(self):
        world = World(4)

        def fn(comm):
            return comm.allgather(comm.rank)

        assert world.run(fn) == [[0, 1, 2, 3]] * 4

    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_reduce_and_allreduce_sum(self, size):
        world = World(size)

        def fn(comm):
            total = comm.allreduce_sum(comm.rank + 1)
            return total

        expected = size * (size + 1) // 2
        assert world.run(fn) == [expected] * size

    def test_reduce_sum_ndarray(self):
        world = World(3)

        def fn(comm):
            return comm.allreduce_sum(np.full(4, float(comm.rank)))

        for out in world.run(fn):
            assert np.array_equal(out, np.full(4, 3.0))

    def test_barrier(self):
        world = World(4)

        def fn(comm):
            comm.barrier()
            return True

        assert all(world.run(fn))


class TestTraffic:
    def test_payload_bytes_ndarray(self):
        assert payload_bytes(np.zeros((10, 10))) == 800

    def test_payload_bytes_bytes(self):
        assert payload_bytes(b"12345") == 5

    def test_send_traffic_counted(self):
        world = World(2)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), dest=1)
            else:
                comm.recv(source=0)

        world.run(fn)
        assert world.traffic.bytes_sent == 800
        assert world.traffic.messages == 1
        assert world.traffic.per_rank_sent[0] == 800

    def test_bcast_traffic_scales_with_ranks(self):
        def traffic(size):
            world = World(size)

            def fn(comm):
                comm.bcast(np.zeros(128) if comm.rank == 0 else None, root=0)

            world.run(fn)
            return world.traffic.bytes_sent

        assert traffic(8) > traffic(2)
        assert traffic(8) == 7 * 1024  # p-1 messages of 1 KiB


class TestBlockCyclic:
    def test_owner_cycles(self):
        # block=2, nprocs=3: indices 0,1->p0  2,3->p1  4,5->p2  6,7->p0 ...
        owners = [cyclic_owner(g, 2, 3) for g in range(8)]
        assert owners == [0, 0, 1, 1, 2, 2, 0, 0]

    def test_local_index(self):
        assert local_index(6, 2, 3) == 2  # second cycle, first slot
        assert local_index(7, 2, 3) == 3

    def test_owned_indices_partition(self):
        n, b, p = 23, 3, 4
        all_indices = np.concatenate([owned_indices(q, n, b, p) for q in range(p)])
        assert sorted(all_indices.tolist()) == list(range(n))

    def test_local_count_matches_enumeration(self):
        for n in (1, 10, 64, 100):
            for b in (1, 3, 8):
                for p in (1, 2, 5):
                    for q in range(p):
                        assert local_count(q, n, b, p) == owned_indices(q, n, b, p).size

    def test_distribute_collect_roundtrip(self, rng):
        a = rng.standard_normal((12, 17))
        locals_ = distribute_columns(a, 4, 3)
        assert np.array_equal(collect_columns(locals_, 17, 4, 3), a)

    def test_owned_indices_validation(self):
        with pytest.raises(ValueError):
            owned_indices(3, 10, 2, 3)


class TestProcessGrid:
    def test_coords_roundtrip(self):
        g = ProcessGrid(2, 3)
        for r in range(6):
            row, col = g.coords(r)
            assert g.rank(row, col) == r

    def test_members(self):
        g = ProcessGrid(2, 3)
        assert g.row_members(1) == [3, 4, 5]
        assert g.col_members(2) == [2, 5]

    def test_block_owner(self):
        g = ProcessGrid(2, 2)
        assert g.block_owner(0, 0, 4) == 0
        assert g.block_owner(4, 4, 4) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessGrid(0, 2)
        with pytest.raises(ValueError):
            ProcessGrid(2, 2).coords(4)
