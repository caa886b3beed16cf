"""Logical matrix regions backed by DFS files.

The pipeline never materializes a submatrix unless a job writes it: Section
5.2 partitions the Schur complement ``B = A4 - L2' U2`` "instead of
materializing the data partitions ... we only record the indices of the
beginning and ending row/column of each partition".  A :class:`Region` is that
record: a logical ``rows x cols`` matrix whose content lives in one or more
stored block files, each contributing a rectangle.  ``sub()`` slices a region
without touching data — the master's <1 s "partitioning" of B — and
``read()`` assembles the content through a task context so every byte is
accounted to the reading task.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np


class MatrixReader(Protocol):
    """The subset of TaskContext a region needs (also satisfied by the
    master-side reader in the driver)."""

    def read_matrix(self, path: str) -> np.ndarray: ...

    def read_rows(self, path: str, r1: int, r2: int) -> np.ndarray: ...


@dataclass(frozen=True)
class BlockRef:
    """One stored file's contribution to a region.

    The file holds a ``file_rows x file_cols`` matrix (transposed on disk when
    ``transposed`` — Section 6.3 stores U factors transposed).  Region-local
    rectangle ``[r1, r1+rows) x [c1, c1+cols)`` maps to file rectangle
    ``[fr1, fr1+rows) x [fc1, fc1+cols)`` in logical (un-transposed)
    coordinates.
    """

    path: str
    r1: int
    c1: int
    rows: int
    cols: int
    fr1: int = 0
    fc1: int = 0
    file_rows: int = 0
    file_cols: int = 0
    transposed: bool = False

    def read_part(self, reader: MatrixReader) -> np.ndarray:
        """Fetch this ref's rectangle from its file.

        A rectangle that is its whole file is one matrix read (served by the
        decoded-block cache when one is attached); other whole-row spans are
        fetched with a range read (only the needed rows cross the wire);
        column sub-ranges read the file and slice, which is what a row-major
        store must do.
        """
        fr2 = self.fr1 + self.rows
        fc2 = self.fc1 + self.cols
        if (self.fr1, self.fc1, fr2, fc2) == (0, 0, self.file_rows, self.file_cols):
            data = reader.read_matrix(self.path)
            data = data.T if self.transposed else data
            if data.shape != (self.rows, self.cols):
                raise ValueError(f"{self.path} holds {data.shape}, not {(self.rows, self.cols)}")
            return data
        if self.transposed:
            # File stores the transpose: logical (row, col) = file (col, row).
            if self.fr1 == 0 and fr2 == self.file_rows and self.file_rows > 0:
                # Full logical rows == full file columns; range-read file rows.
                data = reader.read_rows(self.path, self.fc1, fc2)
                return data.T
            data = reader.read_matrix(self.path)
            return data.T[self.fr1 : fr2, self.fc1 : fc2]
        if self.fc1 == 0 and fc2 == self.file_cols and self.file_cols > 0:
            return reader.read_rows(self.path, self.fr1, fr2)
        data = reader.read_matrix(self.path)
        return data[self.fr1 : fr2, self.fc1 : fc2]


@dataclass(frozen=True)
class Region:
    """A logical matrix assembled from block refs (coordinates region-local)."""

    rows: int
    cols: int
    blocks: tuple[BlockRef, ...]

    def __post_init__(self) -> None:
        for b in self.blocks:
            if b.r1 < 0 or b.c1 < 0 or b.r1 + b.rows > self.rows or b.c1 + b.cols > self.cols:
                raise ValueError(
                    f"block {b.path} rectangle exceeds region {self.rows}x{self.cols}"
                )

    @staticmethod
    def single(path: str, rows: int, cols: int, *, transposed: bool = False) -> "Region":
        """A region backed by exactly one whole file."""
        return Region(
            rows,
            cols,
            (
                BlockRef(
                    path=path,
                    r1=0,
                    c1=0,
                    rows=rows,
                    cols=cols,
                    file_rows=rows,
                    file_cols=cols,
                    transposed=transposed,
                ),
            ),
        )

    def covered(self) -> bool:
        """True iff the blocks tile the region exactly (no gaps, no overlap)."""
        area = sum(b.rows * b.cols for b in self.blocks)
        if area != self.rows * self.cols:
            return False
        # Overlap check via sweep over block corners (block counts are small).
        rects = [(b.r1, b.c1, b.r1 + b.rows, b.c1 + b.cols) for b in self.blocks]
        for i, (r1, c1, r2, c2) in enumerate(rects):
            for rr1, cc1, rr2, cc2 in rects[i + 1 :]:
                if r1 < rr2 and rr1 < r2 and c1 < cc2 and cc1 < c2:
                    return False
        return True

    def sub(self, r1: int, r2: int, c1: int, c2: int) -> "Region":
        """Logical sub-region ``[r1, r2) x [c1, c2)`` — an index-only operation
        (the paper's master-side partitioning of B)."""
        if not (0 <= r1 <= r2 <= self.rows and 0 <= c1 <= c2 <= self.cols):
            raise ValueError(
                f"sub-range [{r1}:{r2}, {c1}:{c2}] outside region "
                f"{self.rows}x{self.cols}"
            )
        clipped: list[BlockRef] = []
        for b in self.blocks:
            br2, bc2 = b.r1 + b.rows, b.c1 + b.cols
            ir1, ir2 = max(b.r1, r1), min(br2, r2)
            ic1, ic2 = max(b.c1, c1), min(bc2, c2)
            if ir1 >= ir2 or ic1 >= ic2:
                continue
            # Positional, not ``dataclasses.replace``: this runs per block
            # per sub-region, and replace re-inspects the fields every call.
            clipped.append(BlockRef(
                b.path, ir1 - r1, ic1 - c1, ir2 - ir1, ic2 - ic1,
                b.fr1 + (ir1 - b.r1), b.fc1 + (ic1 - b.c1),
                b.file_rows, b.file_cols, b.transposed,
            ))
        return Region(r2 - r1, c2 - c1, tuple(clipped))

    def read(self, reader: MatrixReader) -> np.ndarray:
        """Assemble the region's content (raises if the tiling has gaps).

        Every block's rectangle is copied once, into a fresh array.  A region
        that is exactly one file rectangle is returned as read — a read-only
        view over the stored bytes — when that view is already row-major; a
        transposed or column-sliced rectangle is still copied, so kernels
        downstream see the operand layout they always saw.
        """
        if not self.covered():
            raise ValueError(
                f"region {self.rows}x{self.cols} is not fully covered by its blocks"
            )
        if len(self.blocks) == 1:
            return np.ascontiguousarray(self.blocks[0].read_part(reader))
        out = np.empty((self.rows, self.cols))
        for b in self.blocks:
            out[b.r1 : b.r1 + b.rows, b.c1 : b.c1 + b.cols] = b.read_part(reader)
        return out

    def file_paths(self) -> list[str]:
        seen: dict[str, None] = {}
        for b in self.blocks:
            seen.setdefault(b.path, None)
        return list(seen)


def stack_regions_vertically(top: Region, bottom: Region) -> Region:
    """Concatenate two regions with equal column counts."""
    if top.cols != bottom.cols:
        raise ValueError(f"column mismatch: {top.cols} vs {bottom.cols}")
    shifted = tuple(replace(b, r1=b.r1 + top.rows) for b in bottom.blocks)
    return Region(top.rows + bottom.rows, top.cols, top.blocks + shifted)


def stack_regions_horizontally(left: Region, right: Region) -> Region:
    """Concatenate two regions with equal row counts."""
    if left.rows != right.rows:
        raise ValueError(f"row mismatch: {left.rows} vs {right.rows}")
    shifted = tuple(replace(b, c1=b.c1 + left.cols) for b in right.blocks)
    return Region(left.rows, left.cols + right.cols, left.blocks + shifted)
