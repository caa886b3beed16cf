"""Distributed verification: Section 7.2's ``I_n - M M^-1`` as a MapReduce
job.

At paper scale the correctness check is itself a large computation — an
n x n product — so it runs the same way everything else does: mapper *j*
reads its contiguous row slab of the input matrix and the assembled inverse,
forms ``I[rows] - A[rows] @ A^-1``, and emits its local maximum absolute
element; a single reducer takes the global max.  The driver exposes this as
:meth:`MatrixInverter.distributed_residual`.
"""

from __future__ import annotations

import numpy as np

from ..linalg.blockwrap import contiguous_ranges
from ..mapreduce import (
    InputSplit,
    JobConf,
    Mapper,
    Reducer,
    TaskContext,
    TaskFactory,
)
from .invert_job import read_final_inverse
from .layout import Layout
from .lu_jobs import pipeline_job, worker_id


class VerifyMapper(Mapper):
    """Computes ``max |I[rows] - A[rows] A^-1|`` over one row slab."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        j = worker_id(ctx, split)
        layout = self.layout
        n = layout.plan.tree.n
        r1, r2 = contiguous_ranges(n, layout.config.m0)[j]
        if r2 <= r1:
            ctx.emit("max", 0.0)
            return
        rows = ctx.read_rows(layout.input_path, r1, r2)
        inverse = read_final_inverse(layout, ctx)
        identity_rows = np.zeros((r2 - r1, n))
        identity_rows[np.arange(r2 - r1), np.arange(r1, r2)] = 1.0
        local_max = float(np.max(np.abs(identity_rows - rows @ inverse)))
        ctx.report_flops(float(r2 - r1) * n * n)
        ctx.emit("max", local_max)


class MaxReducer(Reducer):
    """Global maximum of the per-slab maxima."""

    def reduce(self, ctx: TaskContext, key, values) -> None:
        ctx.emit(key, max(values))


def verify_job(layout: Layout) -> JobConf:
    return pipeline_job(
        layout, "verify-identity", TaskFactory(VerifyMapper, (layout,)), MaxReducer
    )
