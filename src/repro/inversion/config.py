"""Configuration of one inversion run.

Collects the paper's tunables in one place: the bound value ``nb``
(Section 5), the cluster width ``m0``, and the three optimization toggles of
Section 6 — each independently switchable so the Figure 7 ablations can run
the unoptimized variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dfs.cache import DEFAULT_BLOCK_CACHE_BYTES
from ..linalg.blockwrap import factor_grid
from ..mapreduce.backends import EXECUTORS
from ..mapreduce.retry import RetryPolicy


@dataclass(frozen=True)
class InversionConfig:
    """Tunables of the MapReduce inversion pipeline.

    Attributes
    ----------
    nb:
        Bound value: blocks of order <= nb are LU-decomposed serially on the
        master node (paper uses 3200 on EC2; scaled-down runs use smaller).
    m0:
        Number of compute nodes = map tasks = reduce tasks per job.  Must be
        even (half the mappers compute L2', half U2 — Section 5.3) unless 2.
    separate_files:
        Section 6.1 — keep intermediate L/U pieces in separate files.  When
        off, the master serially combines each job's factor files (the
        unoptimized variant measured in Figure 7).
    block_wrap:
        Section 6.2 — block-wrap multiplication over the f1 x f2 grid.  When
        off, reducers use the naive row-slab scheme reading all of U2.
    transpose_u:
        Section 6.3 — store U factors transposed (row-major locality).
    root:
        DFS work directory (the paper's "Root").
    retry:
        :class:`~repro.mapreduce.retry.RetryPolicy` of every job the
        pipeline launches: the per-task attempt budget (Hadoop's
        ``mapred.map.max.attempts``), exponential backoff between retry
        waves and an optional per-attempt deadline that turns hung tasks
        into timeouts.  The default allows four attempts, retried
        immediately, with no deadline.
    block_cache_bytes:
        Capacity of the worker-shared decoded-block cache
        (:class:`~repro.dfs.cache.BlockCache`) the driver attaches to the
        runtime's DFS.  On by default — hot factor files are immutable and
        re-read by every task in a wave.  Set 0 to disable; the Figure-7 /
        Table-1 experiment harnesses do so, keeping the paper's physical
        read-volume accounting byte-identical.
    output_commit:
        Two-phase crash-consistent output commit (on by default): task
        attempts and master phases stage their writes under ``/_tmp`` and
        publish atomically at commit, with per-step manifests under
        ``<root>/_commit/`` — the one thing resume trusts.  Off reverts to
        direct writes with no manifests, so ``invert(resume=True)`` and
        ``schedule="dataflow"`` are refused.
    executor:
        Execution backend for task attempts: ``"serial"`` (default),
        ``"threads"`` or ``"processes"``.
    num_workers:
        Worker-pool width of the runtime, and its simulated node count.
        ``None`` (default) sizes the pool to ``m0`` — one slot per
        simulated compute node.
    schedule:
        Which runner executes the driver's one unit list
        (:mod:`repro.mapreduce.scheduler`), for ``invert``, ``invert_path``
        and ``lu`` alike: ``"barrier"`` (default) runs the units in plan
        order on the calling thread, one in flight — the paper's strictly
        barrier-synchronized step sequence; ``"dataflow"`` launches every
        unit the moment its DFS input blocks are published, overlapping
        steps whose block sets are disjoint.  Dataflow mode requires
        ``output_commit`` (readiness is keyed on sealed publishes).
    """

    nb: int = 64
    m0: int = 4
    separate_files: bool = True
    block_wrap: bool = True
    transpose_u: bool = True
    root: str = "/Root"
    retry: RetryPolicy = RetryPolicy()
    block_cache_bytes: int = DEFAULT_BLOCK_CACHE_BYTES
    output_commit: bool = True
    executor: str = "serial"
    num_workers: int | None = None
    schedule: str = "barrier"

    def __post_init__(self) -> None:
        if self.nb < 1:
            raise ValueError("nb must be >= 1")
        if self.block_cache_bytes < 0:
            raise ValueError("block_cache_bytes must be >= 0")
        if self.m0 < 2:
            raise ValueError("m0 must be >= 2 (half map L2', half map U2)")
        if self.m0 % 2:
            raise ValueError("m0 must be even (Section 5.3 splits mappers in half)")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} "
                f"(use one of {', '.join(EXECUTORS)})"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be >= 1 (or None for m0)")
        if self.schedule not in ("barrier", "dataflow"):
            raise ValueError(
                f"unknown schedule {self.schedule!r} "
                "(use 'barrier' or 'dataflow')"
            )
        if self.schedule == "dataflow" and not self.output_commit:
            raise ValueError(
                "schedule='dataflow' requires output_commit: step readiness "
                "is keyed on sealed (published) blocks"
            )

    @property
    def mhalf(self) -> int:
        """Mappers assigned to the L side (= m0/2, Section 5.3)."""
        return self.m0 // 2

    @property
    def grid(self) -> tuple[int, int]:
        """The (f1, f2) block-wrap grid with m0 = f1 * f2 (Section 6.2)."""
        return factor_grid(self.m0)
