"""Block-LU matrix inversion on the RDD engine — the paper's Section 8 plan,
realized.

"In our implementation using Hadoop, all intermediate data, such as L1 and
U1, is written to HDFS files by one MapReduce job and read from these HDFS
files by the next job in the pipeline ... Spark provides parallel data
structures that allow users to explicitly keep data in memory with fault
tolerance.  Therefore, we expect that implementing our algorithm in Spark
would improve performance by reducing read I/O.  What is promising is that
our technique would need minimal changes."

And indeed the structure below is the same Algorithm 2 recursion with the
same chunking; the only change is where intermediates live:

* ``L2'``/``U2``/Schur chunks are **cached RDD partitions** instead of HDFS
  files (lineage replaces replication for fault tolerance);
* the small factors every worker needs (L1/U1/P1 — which each Hadoop mapper
  re-reads from HDFS) are **broadcast variables**;
* external I/O shrinks to reading the input once and writing the inverse
  once, which the Spark-vs-Hadoop benchmark quantifies.

The driver runs the recursion (as Spark drivers do); all heavy per-chunk
work — triangular solves, Schur cells, triangular-inverse columns, product
blocks — happens inside RDD transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..linalg import permutation
from ..linalg.blockwrap import contiguous_ranges, strided_indices
from ..linalg.lu import lu_decompose
from ..linalg.triangular import (
    blocked_forward_substitute,
    invert_lower_columns,
    invert_upper_rows,
)
from ..inversion.plan import split_order
from .context import SparkContext, SparkMetrics
from .rdd import RDD

# Chunk records are (chunk_id, (row_start, ndarray)); ndarray spans the full
# width of the node's matrix, rows [row_start, row_start + nrows).


def _chunk_matrix(sc: SparkContext, a: np.ndarray, chunks: int) -> RDD:
    ranges = contiguous_ranges(a.shape[0], chunks)
    data = [(i, (r1, a[r1:r2].copy())) for i, (r1, r2) in enumerate(ranges) if r2 > r1]
    return sc.parallelize(data, num_partitions=max(len(data), 1))


def _assemble_rows(pieces: list[tuple[int, np.ndarray]], rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols))
    for r1, block in pieces:
        out[r1 : r1 + block.shape[0]] = block
    return out


def _collect_matrix(rdd: RDD, rows: int, cols: int) -> np.ndarray:
    return _assemble_rows([rs for _, rs in rdd.collect()], rows, cols)


def _slice_rows(rdd: RDD, r1: int, r2: int, c1: int, c2: int, chunks: int) -> RDD:
    """Narrow re-chunk: the sub-matrix [r1:r2, c1:c2] as ``chunks`` row
    chunks (chunk boundaries realigned via a shuffle-free flat_map +
    group_by_key keyed by destination chunk)."""
    ranges = contiguous_ranges(r2 - r1, chunks)

    def emit(record):
        _, (row_start, block) = record
        for dest, (d1, d2) in enumerate(ranges):
            g1, g2 = r1 + d1, r1 + d2  # destination range in node coords
            o1, o2 = max(row_start, g1), min(row_start + block.shape[0], g2)
            if o1 < o2:
                piece = block[o1 - row_start : o2 - row_start, c1:c2]
                yield (dest, (o1 - r1, piece))

    grouped = rdd.flat_map(emit).group_by_key(chunks)

    def assemble(pairs):
        for dest, pieces in pairs:
            d1, d2 = ranges[dest]
            if d2 <= d1:
                continue
            block = np.zeros((d2 - d1, c2 - c1))
            for off, piece in pieces:
                block[off - d1 : off - d1 + piece.shape[0]] = piece
            yield (dest, (d1, block))

    return grouped.map_partitions(assemble)


@dataclass
class SparkInversionConfig:
    """Tunables of the in-memory port (mirrors InversionConfig where the
    concept carries over)."""

    nb: int = 64
    chunks: int = 4  # parallel chunks per stage (the Hadoop version's mhalf)

    def __post_init__(self) -> None:
        if self.nb < 1 or self.chunks < 1:
            raise ValueError("nb and chunks must be >= 1")


@dataclass
class SparkInversionResult:
    inverse: np.ndarray
    metrics: SparkMetrics
    external_bytes_read: int  # input, read once
    external_bytes_written: int  # inverse, written once
    cached_partitions: int

    def residual(self, a: np.ndarray) -> float:
        n = a.shape[0]
        return float(np.max(np.abs(np.eye(n) - a @ self.inverse)))


class SparkMatrixInverter:
    """Invert matrices on a :class:`SparkContext` (Algorithm 2, in memory)."""

    def __init__(
        self, config: SparkInversionConfig | None = None, sc: SparkContext | None = None
    ) -> None:
        self.config = config or SparkInversionConfig()
        self.sc = sc or SparkContext(default_parallelism=self.config.chunks)
        #: cached intermediate RDDs of the last run, keyed by a debug name —
        #: exposed so fault-injection tests can evict specific partitions.
        self.intermediates: dict[str, RDD] = {}

    # -- Algorithm 2 -------------------------------------------------------------

    def _decompose(
        self, rdd: RDD, n: int, tag: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns assembled (lower, upper, perm) with P A = L U."""
        cfg = self.config
        if n <= cfg.nb:
            block = _collect_matrix(rdd, n, n)
            res = lu_decompose(block)
            return res.lower(), res.upper(), res.perm

        n1, n2 = split_order(n)
        a1 = _slice_rows(rdd, 0, n1, 0, n1, cfg.chunks)
        l1, u1, p1 = self._decompose(a1, n1, tag + "/A1")

        l1_b = self.sc.broadcast(l1)
        u1_b = self.sc.broadcast(u1)
        p1_b = self.sc.broadcast(p1)

        # L2' rows:  X U1 = A3  (row chunks stay narrow).
        a3 = _slice_rows(rdd, n1, n, 0, n1, cfg.chunks)
        l2_rdd = a3.map(
            lambda rec: (rec[0], (rec[1][0], blocked_forward_substitute(u1_b.value.T, rec[1][1].T).T))
        ).cache()
        self.intermediates[tag + "/L2"] = l2_rdd

        # U2 columns:  L1 U2 = P1 A2  (column chunking needs a shuffle).
        a2 = _slice_rows(rdd, 0, n1, n1, n, cfg.chunks)
        col_ranges = contiguous_ranges(n2, cfg.chunks)

        def emit_cols(rec):
            _, (row_start, block) = rec
            for jc, (c1, c2) in enumerate(col_ranges):
                if c2 > c1:
                    yield (jc, (row_start, block[:, c1:c2]))

        def solve_u2(pairs):
            for jc, pieces in pairs:
                c1, c2 = col_ranges[jc]
                a2_cols = _assemble_rows(pieces, n1, c2 - c1)
                u2 = blocked_forward_substitute(
                    l1_b.value,
                    permutation.apply_rows(p1_b.value, a2_cols),
                    unit_diagonal=True,
                )
                yield (jc, (c1, u2))

        u2_rdd = a2.flat_map(emit_cols).group_by_key(cfg.chunks).map_partitions(solve_u2).cache()
        self.intermediates[tag + "/U2"] = u2_rdd

        # Schur cells:  B[i, jc] = A4[i, jc] - L2'[i] U2[jc].
        row_ranges = contiguous_ranges(n2, cfg.chunks)
        a4 = _slice_rows(rdd, n1, n, n1, n, cfg.chunks)

        def emit_l(rec):
            i, (r1, block) = rec
            for jc in range(len(col_ranges)):
                yield ((i, jc), ("L", block))

        def emit_u(rec):
            jc, (c1, block) = rec
            for i in range(len(row_ranges)):
                yield ((i, jc), ("U", block))

        def emit_a4(rec):
            i, (r1, block) = rec
            for jc, (c1, c2) in enumerate(col_ranges):
                if c2 > c1:
                    yield ((i, jc), ("A", block[:, c1:c2]))

        def schur_cell(pairs):
            for (i, jc), values in pairs:
                parts = dict()
                for kind, m in values:
                    parts[kind] = m
                if "A" not in parts:
                    continue
                yield ((i, jc), parts["A"] - parts["L"] @ parts["U"])

        cells = (
            l2_rdd.flat_map(emit_l)
            .union(u2_rdd.flat_map(emit_u))
            .union(a4.flat_map(emit_a4))
            .group_by_key(cfg.chunks)
            .map_partitions(schur_cell)
        )

        def regroup_rows(rec):
            (i, jc), cell = rec
            return (i, (jc, cell))

        def assemble_b(pairs):
            for i, jcs in pairs:
                r1, r2 = row_ranges[i]
                block = np.zeros((r2 - r1, n2))
                for jc, cell in jcs:
                    c1, c2 = col_ranges[jc]
                    block[:, c1:c2] = cell
                yield (i, (r1, block))

        b_rdd = cells.map(regroup_rows).group_by_key(cfg.chunks).map_partitions(assemble_b).cache()
        self.intermediates[tag + "/B"] = b_rdd

        l3, u3, p2 = self._decompose(b_rdd, n2, tag + "/OUT")

        # Assemble the node's factors (driver side, as read_lower does).
        lower = np.zeros((n, n))
        lower[:n1, :n1] = l1
        l2 = _collect_matrix(l2_rdd, n2, n1)
        lower[n1:, :n1] = permutation.apply_rows(p2, l2)
        lower[n1:, n1:] = l3
        upper = np.zeros((n, n))
        upper[:n1, :n1] = u1
        upper[:n1, n1:] = self._collect_cols(u2_rdd, n1, n2)
        upper[n1:, n1:] = u3
        perm = permutation.augment(p1, p2)
        return lower, upper, perm

    @staticmethod
    def _collect_cols(rdd: RDD, rows: int, cols: int) -> np.ndarray:
        out = np.zeros((rows, cols))
        for _, (c1, block) in rdd.collect():
            out[:, c1 : c1 + block.shape[1]] = block
        return out

    # -- public API ---------------------------------------------------------------

    def invert(self, a: np.ndarray) -> SparkInversionResult:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        cfg = self.config
        self.intermediates.clear()

        # External input: read once.
        input_rdd = _chunk_matrix(self.sc, a, cfg.chunks).cache()
        external_read = a.nbytes

        lower, upper, perm = self._decompose(input_rdd, n, "/Root")

        # Final stage: triangular inverses + product, all on RDDs.
        lower_b = self.sc.broadcast(lower)
        upper_b = self.sc.broadcast(upper)
        chunks = cfg.chunks

        linv_rdd = self.sc.range(chunks, chunks).map(
            lambda j: (j, invert_lower_columns(lower_b.value, strided_indices(n, chunks, j)))
        ).cache()
        uinv_rdd = self.sc.range(chunks, chunks).map(
            lambda i: (i, invert_upper_rows(upper_b.value, strided_indices(n, chunks, i)))
        ).cache()
        self.intermediates["/INV/L"] = linv_rdd
        self.intermediates["/INV/U"] = uinv_rdd

        def emit_l(rec):
            j, cols_mat = rec
            for i in range(chunks):
                yield ((i, j), ("L", cols_mat))

        def emit_u(rec):
            i, rows_mat = rec
            for j in range(chunks):
                yield ((i, j), ("U", rows_mat))

        def product_cell(pairs):
            for (i, j), values in pairs:
                parts = dict(values)
                yield ((i, j), parts["U"] @ parts["L"])

        cells = (
            uinv_rdd.flat_map(emit_u)
            .union(linv_rdd.flat_map(emit_l))
            .group_by_key(chunks)
            .map_partitions(product_cell)
        )

        inverse = np.zeros((n, n))
        for (i, j), cell in cells.collect():
            rows = strided_indices(n, chunks, i)
            cols = strided_indices(n, chunks, j)
            inverse[np.ix_(rows, perm[cols])] = cell

        return SparkInversionResult(
            inverse=inverse,
            metrics=self.sc.metrics,
            external_bytes_read=external_read,
            external_bytes_written=inverse.nbytes,
            cached_partitions=self.sc.cached_partition_count,
        )


def spark_invert(
    a: np.ndarray, config: SparkInversionConfig | None = None
) -> SparkInversionResult:
    """One-call convenience wrapper."""
    return SparkMatrixInverter(config=config).invert(a)
