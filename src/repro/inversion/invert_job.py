"""The final MapReduce job: triangular inversion and the product
``A^-1 = U^-1 L^-1 P`` (Sections 4.3 and 5.4).

Map phase: the first ``m0/2`` mappers each compute a set of *columns* of
``L^-1`` (Equation 4 — columns are independent); the rest compute *rows* of
``U^-1`` via the transposed-lower kernel.  With block wrap enabled, each
mapper owns a strided (grid) set of indices so load is balanced — early
columns of ``L^-1`` are much more expensive than late ones, and Section 5.4's
interleaving ("Mapper0 computes columns 0, 4, 8, 12...") equalizes the work.

Reduce phase: reducer ``p = j1 * f2 + j2`` multiplies its strided rows of
``U^-1`` with its strided columns of ``L^-1`` (grid-block wrap), producing one
block of ``C = U^-1 L^-1``.  The driver places each block at
``A^-1[rows, S[cols]]`` — the column permutation of Section 4.3.

Files: L-side mapper ``j`` writes ``INV/L.j``, U-side mapper ``i`` writes
``INV/U.i``, reducer ``p`` writes ``FINAL/A.p`` (its dense block).  An
``INV`` file holds only the nonzero panels of its share, laid out as the
reducers' product consumes them (:func:`_pack`): the inner dimension is cut
into ``_PANEL``-wide panels ``[k0, k1)``, and panel ``p`` is the rows
``k0:k1`` of the share's first ``c_p`` columns of ``L^-1`` — those starting
before ``k1``; every later column is zero there.  The panels sit side by side
in one ``min(_PANEL, n) x W`` matrix file (``W = sum c_p``), a short last
panel zero-padded; ``INV/U.i`` is the same for the share's rows of ``U^-1``,
transposed, ``W x min(_PANEL, n)``.  For ``n <= _PANEL`` that is the dense
share.

Verbatim from the paper: who owns which columns, rows and block, the files
each task reads and writes, the mappers' Equation-4 multiplication count.
Blocked: the mappers' kernels (:mod:`repro.linalg.triangular`, solving
against the factors' stored pieces) and the reducers' product, formed panel
by panel so that most structural zeros of the triangular inverses are never
multiplied, one output tile at a time (:func:`_triangular_product`); the
reducers report the multiplications they issued, so the job's total sits
between Table 2's ``2/3 n^3`` and the dense product's ``4/3 n^3``.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..dfs import formats
from ..linalg.triangular import invert_lower_columns, invert_upper_rows
from ..mapreduce import (
    InputSplit,
    JobConf,
    Mapper,
    Reducer,
    TaskContext,
    TaskFactory,
)
from .factors import read_lower, read_upper
from .layout import Layout
from .lu_jobs import pipeline_job, worker_id


def _indices(share: range) -> np.ndarray:
    return np.arange(share.start, share.stop, share.step, dtype=np.int64)


# Inner-dimension width of one panel of the final product: narrower panels
# skip more structural zeros but issue more, smaller GEMMs.
_PANEL = 64


def _panels(share: range, n: int) -> list[tuple[int, int, int, int]]:
    """``(k0, k1, at, count)`` per panel ``[k0, k1)`` of the inner dimension:
    the ``count`` indices of ``share`` below ``k1`` — the rows of ``U^-1`` or
    columns of ``L^-1`` that have started by the panel's end — sit at
    ``at:at + count`` of the packed share."""
    panels, at = [], 0
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        count = len(range(share.start, min(share.stop, k1), share.step))
        panels.append((k0, k1, at, count))
        at += count
    return panels


def _packed_shape(panels: list[tuple[int, int, int, int]], columns: bool) -> tuple[int, int]:
    """``(panel width, W)`` for a share of ``L^-1`` (``columns``), else its
    transpose."""
    k0, k1, _, _ = panels[0]
    _, _, at, count = panels[-1]
    return (k1 - k0, at + count) if columns else (at + count, k1 - k0)


def _pack(
    share_rows: np.ndarray, panels: list[tuple[int, int, int, int]], out: np.ndarray, *,
    columns: bool,
) -> None:
    """Fill ``out`` (``_packed_shape(panels, columns)``) with the stored form
    of a mapper's share (module docstring): row ``t`` of ``share_rows`` is
    row ``share[t]`` of ``U^-1`` — or, with ``columns``, column ``share[t]``
    of ``L^-1`` — and each panel of the share's ``panels`` keeps the block
    of it that the product multiplies; a short last panel is zero-padded."""
    dest = out.T if columns else out
    width = dest.shape[1]
    for k0, k1, at, count in panels:
        dest[at : at + count, : k1 - k0] = share_rows[:count, k0:k1]
        if k1 - k0 < width:
            dest[at : at + count, k1 - k0 :] = 0.0


class InvertMapper(Mapper):
    """Computes one mapper's share of ``L^-1`` columns or ``U^-1`` rows and
    stores its nonzero panels."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        j = worker_id(ctx, split)
        layout = self.layout
        cfg = layout.config
        tree = layout.plan.tree
        n = tree.n

        columns = j < cfg.mhalf
        if columns:
            share = layout.l_shares[j]
            lower = read_lower(layout, tree, ctx)
            # Transposed view of the n x k kernel output: row t is column
            # share[t] of L^-1.
            x = invert_lower_columns(lower, _indices(share)).T
            del lower
            path = layout.inv_l_path(j)
        else:
            i = j - cfg.mhalf
            share = layout.u_shares[i]
            upper = read_upper(layout, tree, ctx)
            # k x n: a view of the kernel's n x k columns of (U^T)^-1.
            x = invert_upper_rows(upper, _indices(share))
            del upper
            path = layout.inv_u_path(i)
        # Column c of L^-1 (row c of U^-1, column c of (U^T)^-1) costs
        # ~ (n - c)^2 / 2 multiplications (Eq. 4).
        ctx.report_flops(float(np.sum((n - _indices(share)) ** 2)) / 2.0)
        panels = _panels(share, n)
        payload, body = formats.new_matrix(*_packed_shape(panels, columns))
        _pack(x, panels, body, columns=columns)
        del body
        ctx.write_bytes(path, payload)
        ctx.emit(j, j)


def _overlap(a: range, b: range) -> range:
    """``a & b`` for two ascending ranges — again an arithmetic progression,
    with the steps' least common multiple as its step."""
    step = math.lcm(a.step, b.step)
    lo, hi = max(a.start, b.start), min(a.stop, b.stop)
    first = next((r for r in range(lo, min(lo + step, hi)) if r in a and r in b), hi)
    return range(first, hi, step)


def _positions(share: range, part: range, at: int) -> slice:
    """Where the elements of ``part`` (a non-empty sub-progression of
    ``share``) sit within ``share``, shifted by ``at``."""
    first, last = share.index(part[0]), share.index(part[-1])
    return slice(at + first, at + last + 1, part.step // share.step)


def _gather(
    ctx: TaskContext,
    want: range,
    n: int,
    shares: tuple[range, ...],
    path: Callable[[int], str],
    *,
    columns: bool,
) -> np.ndarray:
    """The packed share ``want`` of the matrix whose mappers wrote their
    packed ``shares`` to ``path(i)`` (``columns``: of ``L^-1``, else of
    ``U^-1``).  A reducer's share and a mapper's share meet in an arithmetic
    progression, so each (file, panel) lands by one strided slice
    assignment; a file that is exactly ``want`` is returned as decoded — a
    read-only view, which the reducer only multiplies."""
    if want in shares:
        return ctx.read_matrix(path(shares.index(want)))
    panels = _panels(want, n)
    out = np.empty(_packed_shape(panels, columns))
    dest = out.T if columns else out
    for i, have in enumerate(shares):
        both = _overlap(want, have)
        if not both:
            continue
        data = ctx.read_matrix(path(i))
        src = data.T if columns else data
        for (_, k1, at, _), (_, _, have_at, _) in zip(panels, _panels(have, n)):
            part = range(both.start, min(both.stop, k1), both.step)
            if part:
                dest[_positions(want, part, at)] = src[_positions(have, part, have_at)]
    return out


def _gather_rows(ctx: TaskContext, layout: Layout, rows: range, n: int) -> np.ndarray:
    """Assemble the requested rows of ``U^-1``, packed, from the strided (or
    contiguous) mapper output files."""
    return _gather(ctx, rows, n, layout.u_shares, layout.inv_u_path, columns=False)


def _gather_cols(ctx: TaskContext, layout: Layout, cols: range, n: int) -> np.ndarray:
    """Assemble the requested columns of ``L^-1``, packed."""
    return _gather(ctx, cols, n, layout.l_shares, layout.inv_l_path, columns=True)


def reducer_indices(layout: Layout, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows of U^-1, cols of L^-1) owned by final-job reducer ``p`` — shared
    with the driver, which uses the same function to place blocks."""
    rows, cols = layout.reducer_shares[p]
    return _indices(rows), _indices(cols)


# Rows and columns of one output tile of a reducer's block: the tile's
# running sum stays in cache while the panels stream through it.
_TILE = 256


def _triangular_product(
    u_packed: np.ndarray, rows: range, l_packed: np.ndarray, cols: range, n: int,
    block: np.ndarray,
) -> int:
    """Write ``U^-1[rows] @ L^-1[:, cols]`` from the packed shares into the
    C-ordered ``block`` (``len(rows) x len(cols)``), without most of the
    structural zeros, and return the multiplications issued.

    Row ``r`` of ``U^-1`` is zero left of column ``r`` and column ``c`` of
    ``L^-1`` is zero above row ``c``, so entry ``(r, c)`` sums over
    ``k >= max(r, c)`` only.  The product is accumulated panel by panel over
    ``k``; with ascending shares, panel ``[k0, k1)`` reaches just the leading
    corner of rows ``< k1`` by columns ``< k1`` of the block — which is what
    the packed shares hold for that panel.  The block is formed one
    ``_TILE``-square output tile at a time, each summed over the panels that
    reach it in a small contiguous buffer (the block itself when it is one
    tile), so no panel makes a block-sized temporary or a block-sized
    ``+=``; every entry sees the same panel products in the same order.
    """
    row_panels, col_panels = _panels(rows, n), _panels(cols, n)
    one_tile = len(rows) <= _TILE and len(cols) <= _TILE
    tile_buf = block.reshape(-1) if one_tile else np.empty(_TILE * _TILE)
    prod_buf = np.empty(min(_TILE, len(rows)) * min(_TILE, len(cols)))
    mults = 0
    for t0 in range(0, len(rows), _TILE):
        t1 = min(t0 + _TILE, len(rows))
        for s0 in range(0, len(cols), _TILE):
            s1 = min(s0 + _TILE, len(cols))
            tile = tile_buf[: (t1 - t0) * (s1 - s0)].reshape(t1 - t0, s1 - s0)
            tile[...] = 0.0
            for (k0, k1, ru, nr), (_, _, cl, nc) in zip(row_panels, col_panels):
                if nr > t0 and nc > s0:
                    a, b, width = min(nr, t1) - t0, min(nc, s1) - s0, k1 - k0
                    prod = prod_buf[: a * b].reshape(a, b)
                    np.matmul(
                        u_packed[ru + t0 : ru + t0 + a, :width],
                        l_packed[:width, cl + s0 : cl + s0 + b],
                        out=prod,
                    )
                    tile[:a, :b] += prod
                    mults += a * b * width
            if not one_tile:
                block[t0:t1, s0:s1] = tile
    return mults


class InvertReducer(Reducer):
    """Reducer p: one grid block of ``C = U^-1 L^-1``."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout

    def reduce(self, ctx: TaskContext, key, values) -> None:
        for _ in values:
            pass
        p = int(key)
        layout = self.layout
        n = layout.plan.tree.n
        rows, cols = layout.reducer_shares[p]
        if not rows or not cols:
            return
        u_packed = _gather_rows(ctx, layout, rows, n)
        l_packed = _gather_cols(ctx, layout, cols, n)
        payload, block = formats.new_matrix(len(rows), len(cols))
        mults = _triangular_product(u_packed, rows, l_packed, cols, n, block)
        del block
        ctx.report_flops(float(mults))
        ctx.write_bytes(layout.final_path(p), payload)


def read_final_inverse(layout: Layout, reader) -> np.ndarray:
    """Assemble ``A^-1`` from the final job's block files, applying the pivot
    column permutation (used by the driver and by the verification job's
    mappers — both read the same reducer outputs)."""
    from .factors import read_perm

    n = layout.plan.tree.n
    out = np.zeros((n, n))
    perm = read_perm(layout, layout.plan.tree, reader)
    for p in range(layout.config.m0):
        rows, cols = reducer_indices(layout, p)
        if rows.size == 0 or cols.size == 0:
            continue
        block = reader.read_matrix(layout.final_path(p))
        out[np.ix_(rows, perm[cols])] = block
    return out


def invert_job(layout: Layout) -> JobConf:
    """The final job: ``m0`` mappers invert the triangular factors, ``m0``
    reducers multiply them (Figure 2's last stage)."""
    return pipeline_job(
        layout,
        "invert-final",
        TaskFactory(InvertMapper, (layout,)),
        TaskFactory(InvertReducer, (layout,)),
        num_reduce_tasks=layout.config.m0,
    )
