"""The pipeline's MapReduce jobs for partitioning and LU decomposition.

Two job types:

* **Partition job** (Algorithm 3) — map-only; mapper *j* reads its contiguous
  share of the input matrix's rows *once* and writes every piece of every
  recursion-level block (A2/A3/A4 of internal input nodes, the leaf A1
  blocks) that intersects those rows, each piece to its own file.  "The input
  matrix is read only once and the partitioned matrix is written only once"
  (Section 4.2).

* **LU job** (one per internal tree node; Figure 5) — the first ``m0/2``
  mappers each compute a row chunk of ``L2'`` from ``A3`` and ``U1``
  (``L2' U1 = A3``); the other half each compute a column chunk of ``U2``
  from ``A2``, ``L1``, and ``P1`` (``L1 U2 = P1 A2``).  Mappers emit the
  control pair ``(j, j)``; reducer *j* computes its block-wrap cell of the
  Schur complement ``B = A4 - L2' U2`` and writes it to ``OUT``.  The
  mappers read ``U1`` / ``L1`` as the trees of their stored pieces
  (:mod:`.factors`) and the triangular kernels solve against those.

Mapper/reducer factories close over the precomputed :class:`Layout`; a real
Hadoop deployment ships the same information through the job configuration
(the layout is a pure function of ``n``, ``nb``, ``m0``, and the flags).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..dfs import formats
from ..linalg import permutation
from ..linalg.blockwrap import contiguous_ranges
from ..linalg.triangular import blocked_forward_substitute
from ..mapreduce import (
    InputSplit,
    JobConf,
    Mapper,
    Reducer,
    TaskContext,
    TaskFactory,
)
from .factors import read_lower_and_perm, read_upper
from .layout import Layout
from .plan import PlanNode


def control_splits(layout: Layout) -> list[InputSplit]:
    """Section 5.1's input files: split *j* points at ``MapInput/A.<j>``,
    whose single integer tells the mapper which role to play."""
    return [
        InputSplit(index=j, payload=j, path=layout.map_input_path(j))
        for j in range(layout.config.m0)
    ]


def pipeline_job(
    layout: Layout,
    name: str,
    mapper: Callable[[], Mapper],
    reducer: Callable[[], Reducer] | None = None,
    num_reduce_tasks: int = 1,
) -> JobConf:
    """A complete conf for one job of the inversion workflow: the ``m0``
    control-file splits plus the run's policy.

    The one place ``layout.config`` (the run's :class:`InversionConfig`)
    becomes the run-policy fields of a :class:`JobConf` — every job of the
    package is built here, and nothing downstream re-stamps a conf.
    """
    cfg = layout.config
    return JobConf(
        name=name,
        mapper_factory=mapper,
        reducer_factory=reducer,
        splits=control_splits(layout),
        num_reduce_tasks=num_reduce_tasks,
        retry=cfg.retry,
        output_commit=cfg.output_commit,
    )


def worker_id(ctx: TaskContext, split: InputSplit) -> int:
    """Resolve the worker index the way the paper's mappers do: by reading
    the control file (falling back to the split payload when no file is
    attached, e.g. in unit tests)."""
    if split.path is not None:
        return int(ctx.read_text(split.path).strip())
    return int(split.payload)


# -- partition job (Algorithm 3) ------------------------------------------------


class PartitionMapper(Mapper):
    """Mapper *j* of the partition job: reads global rows ``[g1, g2)`` of the
    input and writes each block piece intersecting them."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        j = worker_id(ctx, split)
        g1, g2 = self.layout.mapper_row_ranges()[j]
        ctx.emit(j, j)
        if g2 <= g1:
            return
        rows = ctx.read_rows(self.layout.input_path, g1, g2)
        n_total = self.layout.total_n

        for node in self.layout.plan.tree.input_nodes():
            col0 = node.row0  # diagonal blocks: column origin == row origin
            if node.is_leaf:
                o1, o2 = max(g1, node.row0), min(g2, node.row0 + node.n)
                if o1 < o2:
                    piece = rows[o1 - g1 : o2 - g1, col0 : col0 + node.n]
                    ctx.write_bytes(
                        f"{node.dir}/A.{j}", formats.encode_matrix(piece)
                    )
                continue
            n1, n2 = node.n1, node.n2
            # A2: top rows, right columns, column-chunked for the U2 mappers.
            o1, o2 = max(g1, node.row0), min(g2, node.row0 + n1)
            if o1 < o2:
                top = rows[o1 - g1 : o2 - g1]
                for jc, (c1, c2) in enumerate(
                    contiguous_ranges(n2, self.layout.config.mhalf)
                ):
                    if c2 <= c1:
                        continue
                    piece = top[:, col0 + n1 + c1 : col0 + n1 + c2]
                    ctx.write_bytes(
                        f"{node.dir}/A2/A.{j}.{jc}", formats.encode_matrix(piece)
                    )
            # A3 and A4: bottom rows.
            o1, o2 = max(g1, node.row0 + n1), min(g2, node.row0 + node.n)
            if o1 < o2:
                bottom = rows[o1 - g1 : o2 - g1]
                ctx.write_bytes(
                    f"{node.dir}/A3/A.{j}",
                    formats.encode_matrix(bottom[:, col0 : col0 + n1]),
                )
                f1, f2 = self.layout.config.grid
                for jc, (c1, c2) in enumerate(contiguous_ranges(n2, f2)):
                    if c2 <= c1:
                        continue
                    piece = bottom[:, col0 + n1 + c1 : col0 + n1 + c2]
                    ctx.write_bytes(
                        f"{node.dir}/A4/A.{j}.{jc}", formats.encode_matrix(piece)
                    )


def partition_job(layout: Layout) -> JobConf:
    """Map-only partition job over ``m0`` control-file splits."""
    return pipeline_job(
        layout, "partition", TaskFactory(PartitionMapper, (layout,))
    )


# -- LU job (Figure 5) -----------------------------------------------------------


class LUJobMapper(Mapper):
    """Computes one chunk of ``L2'`` or ``U2`` for one internal node."""

    def __init__(self, layout: Layout, node: PlanNode) -> None:
        self.layout = layout
        self.node = node

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        j = worker_id(ctx, split)
        cfg = self.layout.config
        node = self.node
        regions = self.layout.lu_regions(node)
        n1 = node.n1
        mhalf = cfg.mhalf

        if j < mhalf:
            # L2' rows: solve  X U1 = A3[chunk]  row-independently (Eq. 6),
            # against U1's stored pieces (and L1's below): no dense factor.
            rows = regions.a3_rows[j]
            if rows is not None:
                u1 = read_upper(self.layout, node.child1, ctx)
                a3 = rows.read(ctx)
                x = blocked_forward_substitute(u1.T, a3.T).T
                ctx.report_flops(rows.rows * n1 * n1 / 2)
                ctx.write_bytes(
                    f"{node.dir}/L2/L.{j}", formats.encode_matrix(x)
                )
        else:
            # U2 columns: solve  L1 U2[chunk] = (P1 A2)[chunk]  (Eq. 6).
            jc = j - mhalf
            cols = regions.a2_cols[jc]
            if cols is not None:
                l1, p1 = read_lower_and_perm(self.layout, node.child1, ctx)
                a2 = cols.read(ctx)
                u2 = blocked_forward_substitute(
                    l1, permutation.apply_rows(p1, a2), unit_diagonal=True
                )
                ctx.report_flops(cols.cols * n1 * n1 / 2)
                stored = u2.T if cfg.transpose_u else u2
                ctx.write_bytes(
                    f"{node.dir}/U2/U.{jc}", formats.encode_matrix(stored)
                )
        ctx.emit(j, j)


def _schur(a4, l2, u2) -> bytes:
    """The file of ``B = A4 - L2' U2``, computed in its own payload: the
    product into the body, then the difference in place — the arithmetic of
    ``a4 - l2 @ u2`` without its two block-sized temporaries."""
    payload, b = formats.new_matrix(l2.shape[0], u2.shape[1])
    np.matmul(l2, u2, out=b)
    np.subtract(a4, b, out=b)
    return payload


class LUJobReducer(Reducer):
    """Reducer *j* computes its cell of the Schur complement
    ``B = A4 - L2' U2`` and writes it to the node's OUT directory."""

    def __init__(self, layout: Layout, node: PlanNode) -> None:
        self.layout = layout
        self.node = node

    def reduce(self, ctx: TaskContext, key, values) -> None:
        for _ in values:  # drain the control values
            pass
        # Its block-wrap cell, or under the ablation its row slab and all
        # of U2 (:meth:`Layout.lu_regions`).
        cell = self.layout.lu_regions(self.node).cells[int(key)]
        if cell is None:
            return
        l2 = cell.l2.read(ctx)
        u2 = cell.u2.read(ctx)
        a4 = cell.a4.read(ctx)
        ctx.report_flops(cell.l2.rows * cell.u2.cols * cell.l2.cols)
        ctx.write_bytes(cell.path, _schur(a4, l2, u2))


def lu_job(layout: Layout, node: PlanNode) -> JobConf:
    """The MapReduce job decomposing one internal node (lines 7-9 of
    Algorithm 2): ``m0`` mappers, ``m0`` reducers, control-pair shuffle."""
    return pipeline_job(
        layout,
        f"lu:{node.dir}",
        TaskFactory(LUJobMapper, (layout, node)),
        TaskFactory(LUJobReducer, (layout, node)),
        num_reduce_tasks=layout.config.m0,
    )
