"""Gauss-Jordan elimination ON MapReduce — the design the paper rejects,
actually built, so the rejection is measurable.

Section 2: "due to the large number of steps that depend on each other in a
sequential fashion, this method is difficult to parallelize in MapReduce
since it would require a large number of MapReduce jobs that are executed
sequentially."  Section 4.2: the authors "were unable to reduce the number
of iterations required by other methods such as Gauss-Jordan elimination
... below n".

Implementation: the augmented matrix ``[A | I]`` lives on the DFS as row
slabs.  Elimination step *k* is one MapReduce job:

* **map phase** — the slab that owns row *k* pivots within its local rows
  (partial pivoting restricted to the slab, enough for the random matrices
  the comparison uses), normalizes the pivot row, and publishes it to the
  DFS; all mappers emit the control pair ``(j, j)``;
* **reduce phase** — reducer *j* reads the published pivot row and
  eliminates column *k* from its slab (the map->reduce barrier is what
  sequences pivot publication before elimination).

Row swaps and all other row operations drive ``[A | I]`` to ``[I | A^-1]``
directly, so the right half *is* the inverse.  Work per job is tiny —
O(n^2 / m0) — but there are exactly ``n`` jobs, so job-launch overhead
dominates at scale: the paper's argument for block LU, in numbers
(see ``tests/test_gj_mr_and_blocked.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dfs import formats
from ..linalg.blockwrap import contiguous_ranges
from ..linalg.lu import SingularMatrixError
from ..mapreduce import (
    InputSplit,
    JobConf,
    MapReduceRuntime,
    Mapper,
    Reducer,
    TaskContext,
    splits_for_workers,
)
from ..mapreduce.pipeline import PipelineRecord


def _owner_of(k: int, ranges: list[tuple[int, int]]) -> int:
    return next(i for i, (a1, a2) in enumerate(ranges) if a1 <= k < a2)


class _PivotMapper(Mapper):
    """Map phase of step k: the owner slab selects, normalizes, and publishes
    the pivot row."""

    def __init__(self, root: str, step: int, n: int, m0: int) -> None:
        self.root = root
        self.step = step
        self.n = n
        self.m0 = m0

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        j = split.payload
        ctx.emit(j, j)
        ranges = contiguous_ranges(self.n, self.m0)
        if j != _owner_of(self.step, ranges):
            return
        k = self.step
        r1, _ = ranges[j]
        # writable: the slab is pivot-swapped and row-scaled in place below.
        slab = formats.decode_matrix(
            ctx.read_bytes(f"{self.root}/aug/slab.{j}"), writable=True
        )
        local = k - r1
        # Partial pivoting within the slab's rows >= k.
        rel = int(np.argmax(np.abs(slab[local:, k])))
        if rel:
            slab[[local, local + rel]] = slab[[local + rel, local]]
        pivot = slab[local, k]
        if pivot == 0.0:
            raise SingularMatrixError(f"zero pivot at elimination step {k}")
        slab[local] = slab[local] / pivot
        ctx.write_bytes(f"{self.root}/aug/slab.{j}", formats.encode_matrix(slab))
        ctx.write_bytes(
            f"{self.root}/pivot.{k}",
            formats.encode_matrix(slab[local : local + 1]),
        )
        ctx.report_flops(float(slab.shape[1]))


class _EliminateReducer(Reducer):
    """Reduce phase of step k: reducer j eliminates column k from slab j."""

    def __init__(self, root: str, step: int, n: int, m0: int) -> None:
        self.root = root
        self.step = step
        self.n = n
        self.m0 = m0

    def reduce(self, ctx: TaskContext, key, values) -> None:
        for _ in values:
            pass
        j = int(key)
        ranges = contiguous_ranges(self.n, self.m0)
        r1, r2 = ranges[j]
        if r2 <= r1:
            return
        k = self.step
        # writable: the elimination update subtracts from the slab in place.
        slab = formats.decode_matrix(
            ctx.read_bytes(f"{self.root}/aug/slab.{j}"), writable=True
        )
        pivot_row = formats.decode_matrix(ctx.read_bytes(f"{self.root}/pivot.{k}"))[0]
        multipliers = slab[:, k].copy()
        if j == _owner_of(k, ranges):
            multipliers[k - r1] = 0.0  # the pivot row eliminates everyone else
        slab -= np.outer(multipliers, pivot_row)
        ctx.report_flops(float(slab.shape[0]) * slab.shape[1])
        ctx.write_bytes(f"{self.root}/aug/slab.{j}", formats.encode_matrix(slab))


@dataclass
class GaussJordanMRResult:
    inverse: np.ndarray
    num_jobs: int
    record: PipelineRecord

    def residual(self, a: np.ndarray) -> float:
        n = a.shape[0]
        return float(np.max(np.abs(np.eye(n) - a @ self.inverse)))


def gauss_jordan_mapreduce_invert(
    a: np.ndarray,
    runtime: MapReduceRuntime | None = None,
    *,
    m0: int = 4,
    root: str = "/GJ",
) -> GaussJordanMRResult:
    """Invert ``a`` by row elimination: exactly ``n`` sequential MapReduce
    jobs (the Section 4.2 number, measured)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    n = a.shape[0]
    own_runtime = runtime is None
    runtime = runtime or MapReduceRuntime()
    dfs = runtime.dfs
    if dfs.exists(root):
        dfs.delete(root, recursive=True)

    aug = np.hstack([a, np.eye(n)])
    ranges = contiguous_ranges(n, m0)
    for j, (r1, r2) in enumerate(ranges):
        formats.write_matrix(dfs, f"{root}/aug/slab.{j}", aug[r1:r2])

    record = PipelineRecord()
    try:
        for k in range(n):
            conf = JobConf(
                name=f"gj-step-{k}",
                mapper_factory=lambda k=k: _PivotMapper(root, k, n, m0),
                reducer_factory=lambda k=k: _EliminateReducer(root, k, n, m0),
                splits=splits_for_workers(m0),
                num_reduce_tasks=m0,
            )
            record.steps.append(runtime.run_job(conf))

        inverse = np.zeros((n, n))
        for j, (r1, r2) in enumerate(ranges):
            if r2 > r1:
                slab = formats.read_matrix(dfs, f"{root}/aug/slab.{j}")
                inverse[r1:r2] = slab[:, n:]
    finally:
        if own_runtime:
            runtime.shutdown()
    return GaussJordanMRResult(inverse=inverse, num_jobs=n, record=record)
