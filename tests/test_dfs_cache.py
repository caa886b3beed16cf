"""Decoded-block cache: correctness, invalidation, zero-copy guarantees,
fault semantics, and the paper-faithful accounting regression."""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.dfs import DFS, BlockCache
from repro.dfs import formats
from repro.dfs.blocks import BlockCorruptionError

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fig7_read_volumes.json"


def mat(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n))


def frozen(n: int, fill: float = 0.0) -> np.ndarray:
    arr = np.full((n, n), fill)
    arr.flags.writeable = False
    return arr


class TestBlockCacheUnit:
    """Keys are file generations: one int names one immutable content."""

    def test_put_get_roundtrip_and_lru_eviction(self):
        cache = BlockCache(capacity_bytes=3 * 800)  # room for three 10x10
        arrays = {gen: frozen(10, gen) for gen in range(4)}
        for gen, arr in arrays.items():
            cache.put(gen, arr)
        # 10x10 float64 = 800 B; the fourth insert evicts the LRU (gen 0).
        assert cache.get(0) is None
        assert cache.get(3) is arrays[3]
        assert cache.stats()["evictions"] == 1
        assert cache.used_bytes <= cache.capacity_bytes

    def test_get_bumps_recency(self):
        cache = BlockCache(capacity_bytes=2 * 800)
        a, b, c = (frozen(10) for _ in range(3))
        cache.put(1, a)
        cache.put(2, b)
        assert cache.get(1) is a  # bump generation 1
        cache.put(3, c)  # evicts 2, not 1
        assert cache.get(2) is None
        assert cache.get(1) is a

    def test_oversized_and_writable_values_are_rejected(self):
        cache = BlockCache(capacity_bytes=100)
        assert not cache.put(1, frozen(10))  # 800 B > 100 B capacity
        assert not cache.put(1, np.zeros((2, 2)))  # writable
        assert len(cache) == 0

    def test_drop_removes_exactly_the_named_generations(self):
        cache = BlockCache(capacity_bytes=1 << 20)
        for gen in (1, 2, 3):
            cache.put(gen, frozen(2))
        assert cache.drop([1, 3, 99]) == 2  # 99 was never cached
        assert len(cache) == 1 and cache.used_bytes == 32
        assert cache.get(2) is not None
        assert cache.drop([]) == 0

    def test_deleting_a_directory_drops_exactly_its_generations(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        sizes = {"/dir/a": 4, "/dir/sub/b": 6, "/other/c": 8, "/dirx": 5}
        for path, n in sizes.items():
            formats.write_matrix(dfs, path, mat(rng, n))
            cache.read_through(dfs, path)
        doomed = {dfs.namenode.get_file(p).generation for p in ("/dir/a", "/dir/sub/b")}
        kept = {dfs.namenode.get_file(p).generation for p in ("/other/c", "/dirx")}
        before = cache.used_bytes
        dfs.delete("/dir", recursive=True)
        assert cache.used_bytes == before - 8 * (4 * 4 + 6 * 6)
        assert len(cache) == 2
        hits = cache.stats()["hits"]
        assert all(cache.get(gen) is None for gen in doomed)
        assert all(cache.get(gen) is not None for gen in kept)
        assert cache.stats()["hits"] == hits + 2


class TestReadThrough:
    def test_hit_returns_same_object_and_moves_no_bytes(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        a = mat(rng, 8)
        formats.write_matrix(dfs, "/m.bin", a)
        first, n1 = cache.read_through(dfs, "/m.bin")
        before = dfs.stats.snapshot()
        second, n2 = cache.read_through(dfs, "/m.bin")
        delta = dfs.stats.snapshot() - before
        assert second is first  # one shared decoded object
        assert n1 == n2 == dfs.file_size("/m.bin")
        assert delta.bytes_read == 0  # no physical I/O on a hit
        assert delta.cache_hits == 1 and delta.cache_bytes_served == n1
        np.testing.assert_array_equal(first, a)

    def test_results_are_read_only(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        formats.write_matrix(dfs, "/m.bin", mat(rng, 6))
        m, _ = cache.read_through(dfs, "/m.bin")
        with pytest.raises((ValueError, RuntimeError)):
            m[0, 0] = 42.0

    def test_overwrite_invalidates_via_generation(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        a, b = mat(rng, 6), mat(rng, 6)
        formats.write_matrix(dfs, "/m.bin", a)
        got, _ = cache.read_through(dfs, "/m.bin")
        np.testing.assert_array_equal(got, a)
        formats.write_matrix(dfs, "/m.bin", b)  # overwrite -> new generation
        got, _ = cache.read_through(dfs, "/m.bin")
        np.testing.assert_array_equal(got, b)

    def test_rename_never_serves_stale_and_keeps_the_view(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        a, b = mat(rng, 6), mat(rng, 6)
        formats.write_matrix(dfs, "/old.bin", a)
        first, _ = cache.read_through(dfs, "/old.bin")
        dfs.rename("/old.bin", "/new.bin")
        # Same entry, same generation: the decoded view moved with the file.
        before = dfs.stats.snapshot()
        got, _ = cache.read_through(dfs, "/new.bin")
        delta = dfs.stats.snapshot() - before
        assert got is first
        assert delta.cache_hits == 1 and delta.bytes_read == 0
        # A different file can now take the old path without any staleness.
        formats.write_matrix(dfs, "/old.bin", b)
        got, _ = cache.read_through(dfs, "/old.bin")
        np.testing.assert_array_equal(got, b)
        got, _ = cache.read_through(dfs, "/new.bin")
        np.testing.assert_array_equal(got, a)

    def test_rename_over_a_cached_destination_drops_it(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        formats.write_matrix(dfs, "/src.bin", mat(rng, 6))
        formats.write_matrix(dfs, "/dst.bin", mat(rng, 5))
        cache.read_through(dfs, "/dst.bin")
        displaced = dfs.namenode.get_file("/dst.bin").generation
        dfs.rename("/src.bin", "/dst.bin", overwrite=True)
        assert cache.get(displaced) is None and len(cache) == 0

    def test_publish_over_a_cached_destination_drops_the_displaced_generation(
        self, dfs, rng
    ):
        cache = dfs.attach_cache(1 << 20)
        old, new = mat(rng, 6), mat(rng, 6)
        formats.write_matrix(dfs, "/Root/keep.bin", mat(rng, 4))
        formats.write_matrix(dfs, "/Root/out.bin", old)
        cache.read_through(dfs, "/Root/keep.bin")
        cache.read_through(dfs, "/Root/out.bin")
        displaced = dfs.namenode.get_file("/Root/out.bin").generation
        used = cache.used_bytes
        dfs.stage_bytes("/_tmp/t/Root/out.bin", formats.encode_matrix(new))
        dfs.publish([("/_tmp/t/Root/out.bin", "/Root/out.bin")], "/_tmp/t")
        assert cache.get(displaced) is None
        assert len(cache) == 1 and cache.used_bytes == used - old.nbytes
        got, _ = cache.read_through(dfs, "/Root/out.bin")
        np.testing.assert_array_equal(got, new)

    def test_staging_churn_leaves_a_warm_cache_untouched(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        warm = [f"/Root/w{i}.bin" for i in range(5)]
        for path in warm:
            formats.write_matrix(dfs, path, mat(rng, 6))
            cache.read_through(dfs, path)
        snapshot = cache.stats()
        order = list(cache._entries)
        payload = formats.encode_matrix(mat(rng, 3))
        for i in range(100):
            dfs.stage_bytes(f"/_tmp/a{i}/Root/f{i}.bin", payload)
            dfs.stage_bytes(f"/_tmp/a{i}/Root/lost{i}.bin", payload)
            dfs.publish([(f"/_tmp/a{i}/Root/f{i}.bin", f"/Root/f{i}.bin")], f"/_tmp/a{i}")
        assert cache.stats() == snapshot  # no lookup, no drop, no eviction
        assert list(cache._entries) == order
        for path in warm:
            cache.read_through(dfs, path)
        assert cache.stats()["hits"] == snapshot["hits"] + len(warm)
        assert cache.stats()["misses"] == snapshot["misses"]

    def test_delete_drops_cached_entries(self, dfs, rng):
        cache = dfs.attach_cache(1 << 20)
        formats.write_matrix(dfs, "/d/m.bin", mat(rng, 6))
        cache.read_through(dfs, "/d/m.bin")
        assert len(cache) == 1
        dfs.delete("/d", recursive=True)
        assert len(cache) == 0

    def test_accounting_conserves_requested_bytes(self, rng):
        a = mat(rng, 64) + 64 * np.eye(64)
        res = invert(a, InversionConfig(nb=16, m0=4))
        io = res.io
        assert io.cache_hits > 0
        assert io.cache_bytes_requested == io.cache_bytes_served + io.cache_bytes_missed
        assert res.residual(a) < 1e-8


class TestZeroCopy:
    def test_decode_matrix_is_readonly_view_by_default(self, rng):
        a = mat(rng, 5)
        data = formats.encode_matrix(a)
        m = formats.decode_matrix(data)
        assert not m.flags.writeable
        assert m.base is not None  # a view over the payload, not a copy
        writable = formats.decode_matrix(data, writable=True)
        assert writable.flags.writeable
        writable[0, 0] = 1.0  # private copy: mutation is safe
        np.testing.assert_array_equal(m, a)

    def test_single_block_read_returns_stored_payload(self, dfs):
        payload = b"x" * 100  # well under the 64 KiB block size
        dfs.write_bytes("/one.bin", payload)
        entry = dfs.namenode.get_file("/one.bin")
        assert len(entry.blocks) == 1
        stored = dfs.blocks.read_block(entry.blocks[0])
        # Zero-copy both ways: the writer kept the caller's bytes object and
        # the single-block read returns it without a join.
        assert stored is payload
        assert dfs.read_bytes("/one.bin") is payload

    def test_multi_block_read_roundtrips(self, dfs, rng):
        data = rng.integers(0, 256, size=3 * (1 << 16) + 17, dtype=np.uint8).tobytes()
        dfs.write_bytes("/multi.bin", data)
        assert len(dfs.namenode.get_file("/multi.bin").blocks) == 4
        assert dfs.read_bytes("/multi.bin") == data

    def test_read_range_single_and_cross_block(self, dfs, rng):
        block = 1 << 16
        data = rng.integers(0, 256, size=3 * block, dtype=np.uint8).tobytes()
        dfs.write_bytes("/r.bin", data)
        # Exactly one whole block: served without any copy.
        assert dfs.read_range("/r.bin", block, block) == data[block : 2 * block]
        # Crossing a block boundary.
        assert dfs.read_range("/r.bin", block - 7, 20) == data[block - 7 : block + 13]
        # Sub-block slice.
        assert dfs.read_range("/r.bin", 3, 9) == data[3:12]

    def test_read_range_empty_is_empty_bytes(self, dfs):
        """Zero-length and at-EOF ranges touch no blocks and return ``b""``."""
        dfs.write_bytes("/e.bin", b"abcdef")
        before = dfs.stats.bytes_read
        assert dfs.read_range("/e.bin", 0, 0) == b""
        assert dfs.read_range("/e.bin", 3, 0) == b""
        assert dfs.read_range("/e.bin", 6, 10) == b""  # starts at EOF
        assert dfs.stats.bytes_read == before  # nothing was transferred

    def test_read_range_exact_block_is_payload_identity(self, dfs, rng):
        """A range covering exactly one whole block returns the stored
        payload object itself — no slice, no join."""
        block = 1 << 16
        data = rng.integers(0, 256, size=2 * block, dtype=np.uint8).tobytes()
        dfs.write_bytes("/ident.bin", data)
        entry = dfs.namenode.get_file("/ident.bin")
        second = dfs.blocks.read_block(entry.blocks[1])
        assert dfs.read_range("/ident.bin", block, block) is second

    def test_read_range_at_block_boundary(self, dfs, rng):
        """Ranges that start or end exactly on a block edge never bleed a
        byte across it."""
        block = 1 << 16
        data = rng.integers(0, 256, size=3 * block, dtype=np.uint8).tobytes()
        dfs.write_bytes("/edge.bin", data)
        # Ends exactly at the first boundary: only block 0 is read.
        assert dfs.read_range("/edge.bin", block - 5, 5) == data[block - 5 : block]
        # Starts exactly at the boundary: only block 1 is read.
        assert dfs.read_range("/edge.bin", block, 5) == data[block : block + 5]
        # Spans exactly two whole blocks: joined from the two payloads.
        assert dfs.read_range("/edge.bin", block, 2 * block) == data[block:]

    def test_read_range_sub_block_slices_via_memoryview(self, dfs):
        """A sub-block range is a memoryview into the stored payload: the
        bytes are not copied at all."""
        dfs.write_bytes("/sub.bin", b"0123456789" * 10)
        out = dfs.read_range("/sub.bin", 7, 11)
        assert out == b"78901234567"
        info = dfs.namenode.get_file("/sub.bin").blocks[0]
        assert out.obj is dfs.blocks.read_block(info)
        assert out.readonly
        # Accounting charges only the bytes handed back, not the whole block.
        before = dfs.stats.bytes_read
        dfs.read_range("/sub.bin", 0, 3)
        assert dfs.stats.bytes_read - before == 3

    def test_replicas_share_one_payload_object(self, dfs):
        dfs.write_bytes("/shared.bin", b"y" * 50)
        info = dfs.namenode.get_file("/shared.bin").blocks[0]
        payloads = [
            dfs.blocks.datanodes[idx].get(info.block_id) for idx in info.replicas
        ]
        assert len(payloads) == 3
        assert all(p is payloads[0] for p in payloads)

    def test_corrupt_materializes_private_copy(self, dfs):
        dfs.write_bytes("/c.bin", b"z" * 50)
        info = dfs.namenode.get_file("/c.bin").blocks[0]
        victim, *others = info.replicas
        assert dfs.blocks.corrupt_replica(info, victim)
        bad = dfs.blocks.datanodes[victim].get(info.block_id)
        good = dfs.blocks.datanodes[others[0]].get(info.block_id)
        assert bad is not good  # chaos mutation never leaks into siblings
        assert good == b"z" * 50
        assert bad != good


class TestFaultSemantics:
    def test_cold_cache_read_still_detects_corruption(self, dfs, rng):
        """The cache sits above checksums: a miss goes through the verified
        read path, so all-replica corruption surfaces exactly as before."""
        dfs.attach_cache(1 << 20)
        formats.write_matrix(dfs, "/f.bin", mat(rng, 8))
        info = dfs.namenode.get_file("/f.bin").blocks[0]
        for node in info.replicas:
            dfs.blocks.corrupt_replica(info, node)
        with pytest.raises(BlockCorruptionError):
            dfs.cache.read_through(dfs, "/f.bin")

    def test_chaos_schedule_with_corruption_stays_green(self):
        """Full kill-revive-corrupt chaos run with the (default-on) cache:
        checksums still route reads around rot and the scrub still drops the
        bad copies — the cache never masks integrity checks."""
        from repro.chaos import run_schedule, schedule_by_name

        outcome = run_schedule(schedule_by_name("kill-revive-corrupt", seed=0), seed=0)
        assert outcome.ok, (outcome.error, outcome.invariants)
        assert outcome.corrupt_dropped > 0


class TestPaperAccounting:
    def test_fig7_read_volumes_pinned_with_cache_disabled(self, rng):
        """Regression against the pre-cache seed: with ``block_cache_bytes=0``
        (and the commit protocol's manifest metadata off, matching the
        experiment harnesses) the Figure-7 physical accounting is
        byte-identical."""
        golden = json.loads(GOLDEN.read_text())
        n = golden["n"]
        g = np.random.default_rng(golden["rng_seed"])
        a = g.standard_normal((n, n)) + golden["shift"] * np.eye(n)
        for key, wrap in (("block_wrap_on", True), ("block_wrap_off", False)):
            res = invert(
                a,
                InversionConfig(
                    nb=golden["nb"], m0=golden["m0"], block_wrap=wrap,
                    block_cache_bytes=0, output_commit=False,
                ),
            )
            expect = golden["io"][key]
            assert res.io.bytes_read == expect["bytes_read"], key
            assert res.io.bytes_written == expect["bytes_written"], key
            assert res.io.read_ops == expect["read_ops"], key
            assert res.io.files_opened == expect["files_opened"], key
            assert res.io.cache_bytes_requested == 0  # cache fully out of play

    def test_cache_reduces_physical_reads_only(self, rng):
        """Logical (task-trace) reads are invariant; physical DFS reads drop."""
        a = mat(rng, 96) + 0.1 * np.eye(96)
        cfg = InversionConfig(nb=24, m0=4)
        on = invert(a, cfg)
        off = invert(a, replace(cfg, block_cache_bytes=0))
        logical_on = sum(t.bytes_read for t in on.record.all_traces())
        logical_off = sum(t.bytes_read for t in off.record.all_traces())
        assert logical_on == logical_off
        assert on.io.bytes_read < off.io.bytes_read
        np.testing.assert_allclose(on.inverse, off.inverse)

    def test_reconcile_reports_cache_term(self):
        from repro.telemetry.cli import run_traced_inversion

        obs, result, report = run_traced_inversion(n=64, nb=16, m0=4)
        assert report.ok, report.format()
        assert report.totals is not None
        assert report.totals.cache_bytes_requested > 0
        assert report.totals.cache_delta == 0.0
        assert "block cache" in report.format()
