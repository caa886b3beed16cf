"""Region abstraction: index-only slicing and assembly from block files."""

import numpy as np
import pytest

from repro.dfs import formats
from repro.inversion.regions import (
    BlockRef,
    Region,
    stack_regions_horizontally,
    stack_regions_vertically,
)


class DirectReader:
    """Region reader over a plain DFS (no task accounting)."""

    def __init__(self, dfs):
        self.dfs = dfs

    def read_matrix(self, path):
        return formats.read_matrix(self.dfs, path)

    def read_rows(self, path, r1, r2):
        return formats.read_rows(self.dfs, path, r1, r2)


@pytest.fixture
def reader(dfs):
    return DirectReader(dfs)


def store_region_rowchunks(dfs, m, chunk_rows, prefix="/data"):
    """Write m as row-chunk files and return the corresponding Region."""
    refs = []
    r = 0
    i = 0
    rows, cols = m.shape
    while r < rows:
        r2 = min(r + chunk_rows, rows)
        path = f"{prefix}/A.{i}"
        formats.write_matrix(dfs, path, m[r:r2])
        refs.append(
            BlockRef(
                path=path, r1=r, c1=0, rows=r2 - r, cols=cols,
                file_rows=r2 - r, file_cols=cols,
            )
        )
        r, i = r2, i + 1
    return Region(rows, cols, tuple(refs))


class TestAssembly:
    def test_single_file_region(self, dfs, reader, rng):
        m = rng.standard_normal((6, 4))
        formats.write_matrix(dfs, "/m", m)
        region = Region.single("/m", 6, 4)
        assert np.array_equal(region.read(reader), m)

    def test_row_chunked_region(self, dfs, reader, rng):
        m = rng.standard_normal((10, 5))
        region = store_region_rowchunks(dfs, m, 3)
        assert np.array_equal(region.read(reader), m)

    def test_transposed_file(self, dfs, reader, rng):
        m = rng.standard_normal((4, 7))
        formats.write_matrix(dfs, "/mt", m.T)
        region = Region.single("/mt", 4, 7, transposed=True)
        assert np.array_equal(region.read(reader), m)

    def test_gap_detected(self, dfs, reader, rng):
        m = rng.standard_normal((4, 4))
        formats.write_matrix(dfs, "/part", m[:2])
        region = Region(
            4, 4,
            (BlockRef("/part", 0, 0, 2, 4, file_rows=2, file_cols=4),),
        )
        assert not region.covered()
        with pytest.raises(ValueError, match="covered"):
            region.read(reader)

    def test_overlap_detected(self):
        refs = (
            BlockRef("/a", 0, 0, 2, 2, file_rows=2, file_cols=2),
            BlockRef("/b", 1, 1, 2, 2, file_rows=2, file_cols=2),
            BlockRef("/c", 0, 2, 1, 1, file_rows=1, file_cols=1),
            BlockRef("/d", 2, 0, 1, 1, file_rows=1, file_cols=1),
        )
        region = Region(3, 3, refs)
        assert not region.covered()

    def test_block_outside_region_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            Region(2, 2, (BlockRef("/x", 1, 1, 2, 2, file_rows=2, file_cols=2),))


class TestSub:
    def test_sub_matches_numpy_slice(self, dfs, reader, rng):
        m = rng.standard_normal((12, 9))
        region = store_region_rowchunks(dfs, m, 4)
        sub = region.sub(2, 9, 1, 8)
        assert np.array_equal(sub.read(reader), m[2:9, 1:8])

    def test_sub_of_sub(self, dfs, reader, rng):
        m = rng.standard_normal((16, 16))
        region = store_region_rowchunks(dfs, m, 5)
        sub = region.sub(2, 14, 2, 14).sub(1, 9, 3, 10)
        assert np.array_equal(sub.read(reader), m[3:11, 5:12])

    def test_sub_is_index_only(self, dfs, rng):
        """Slicing never touches the DFS — the paper's <1s logical
        partitioning of the Schur complement."""
        m = rng.standard_normal((8, 8))
        region = store_region_rowchunks(dfs, m, 3)
        before = dfs.stats.snapshot()
        region.sub(1, 7, 2, 6)
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_read == 0

    def test_empty_sub(self, dfs, reader, rng):
        region = store_region_rowchunks(dfs, rng.standard_normal((4, 4)), 2)
        sub = region.sub(2, 2, 0, 4)
        assert sub.read(reader).shape == (0, 4)

    def test_out_of_range_rejected(self, dfs, rng):
        region = store_region_rowchunks(dfs, rng.standard_normal((4, 4)), 2)
        with pytest.raises(ValueError):
            region.sub(0, 5, 0, 4)

    def test_sub_transposed_region(self, dfs, reader, rng):
        m = rng.standard_normal((6, 8))
        formats.write_matrix(dfs, "/t", m.T)
        region = Region.single("/t", 6, 8, transposed=True)
        sub = region.sub(1, 5, 2, 7)
        assert np.array_equal(sub.read(reader), m[1:5, 2:7])


class TestIOEfficiency:
    def test_full_width_sub_uses_range_read(self, dfs, reader, rng):
        """A full-width row slice of a row-chunk file must not fetch the
        other rows of that file."""
        m = rng.standard_normal((100, 10))
        region = store_region_rowchunks(dfs, m, 100)  # single big file
        before = dfs.stats.snapshot()
        sub = region.sub(0, 5, 0, 10)
        out = sub.read(reader)
        delta = dfs.stats.snapshot() - before
        assert np.array_equal(out, m[:5])
        assert delta.bytes_read < m.nbytes / 10

    def test_file_paths_deduplicated(self, dfs, rng):
        region = store_region_rowchunks(dfs, rng.standard_normal((6, 6)), 2)
        assert len(region.file_paths()) == 3


class TestWholeFileRectangle:
    """A rectangle that is its whole file is read as a matrix: one DFS op
    with the cache off, none from a warm cache, no header range-read."""

    @staticmethod
    def read_ops(dfs, region):
        from repro.inversion.driver import MasterIO

        before = dfs.stats.snapshot()
        got = region.read(MasterIO(dfs))
        return got, (dfs.stats.snapshot() - before).read_ops

    @pytest.mark.parametrize("transposed", [False, True])
    def test_one_read_op_with_the_cache_off(self, dfs, rng, transposed):
        m = rng.standard_normal((6, 4))
        formats.write_matrix(dfs, "/w", m.T if transposed else m)
        got, ops = self.read_ops(dfs, Region.single("/w", 6, 4, transposed=transposed))
        assert np.array_equal(got, m) and ops == 1

    def test_no_read_op_from_a_warm_cache(self, dfs, rng):
        dfs.attach_cache(1 << 20)
        m = rng.standard_normal((6, 4))
        formats.write_matrix(dfs, "/w", m)
        region = Region.single("/w", 6, 4)
        assert self.read_ops(dfs, region)[1] == 1  # the miss reads through
        got, ops = self.read_ops(dfs, region)
        assert np.array_equal(got, m) and ops == 0

    def test_a_row_slice_still_range_reads(self, dfs, rng):
        m = rng.standard_normal((6, 4))
        formats.write_matrix(dfs, "/w", m)
        got, ops = self.read_ops(dfs, Region.single("/w", 6, 4).sub(1, 3, 0, 4))
        assert np.array_equal(got, m[1:3]) and ops == 2  # header, then the rows

    @pytest.mark.parametrize("rows, cols, transposed", [(4, 5, False), (5, 4, True)])
    def test_a_stored_shape_that_disagrees_with_the_ref_raises(
        self, dfs, reader, rng, rows, cols, transposed
    ):
        formats.write_matrix(dfs, "/bad", rng.standard_normal((5, 4)))
        region = Region.single("/bad", rows, cols, transposed=transposed)
        with pytest.raises(ValueError, match="/bad"):
            region.read(reader)


class TestStacking:
    def test_vertical(self, dfs, reader, rng):
        top = rng.standard_normal((3, 4))
        bottom = rng.standard_normal((2, 4))
        formats.write_matrix(dfs, "/top", top)
        formats.write_matrix(dfs, "/bot", bottom)
        region = stack_regions_vertically(
            Region.single("/top", 3, 4), Region.single("/bot", 2, 4)
        )
        assert np.array_equal(region.read(reader), np.vstack([top, bottom]))

    def test_horizontal(self, dfs, reader, rng):
        left = rng.standard_normal((3, 2))
        right = rng.standard_normal((3, 5))
        formats.write_matrix(dfs, "/l", left)
        formats.write_matrix(dfs, "/r", right)
        region = stack_regions_horizontally(
            Region.single("/l", 3, 2), Region.single("/r", 3, 5)
        )
        assert np.array_equal(region.read(reader), np.hstack([left, right]))

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stack_regions_vertically(
                Region(2, 3, ()), Region(2, 4, ())
            )
