"""What the benchmark runs and what it reports: workloads, metric names, units.

``BENCHMARK.json`` at the repository root carries the same names with their
direction, regression bounds and the one-line reason for each workload;
``test_harness.py`` checks the two agree.  The README has the table of which
layer metric is predicted to move which end-to-end metric on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from tracing import ROWS


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    #: ``InversionConfig`` keyword arguments.
    config: dict[str, Any] = field(default_factory=dict)
    #: Run each call inside ``with repro.observe():``.
    observed: bool = False
    #: Counts of :data:`EXACT_COUNTS` that do not repeat on this workload and
    #: are reported as means instead.
    racy_counts: tuple[str, ...] = ()

    def smoke(self) -> "Workload":
        """Same shape at a quarter of the order (same job count and depth)."""
        config = dict(self.config, nb=self.config["nb"] // 4)
        return replace(self, n=self.n // 4, config=config)


_DEEP = {"nb": 16, "m0": 4}

WORKLOADS: tuple[Workload, ...] = (
    # few big blocks: BLAS kernels dominate, engine and DFS fixed costs do not
    Workload("kernel_n1536", 1536, {"nb": 192, "m0": 4}),
    # 33 jobs over 5 recursion levels: metadata, commit, launch, pre-flight
    Workload("deep_n512_nb16", 512, _DEEP),
    # the same run with telemetry on
    Workload("observed_n512_nb16", 512, _DEEP, observed=True),
    # process pool: build/teardown, shm export and IPC on every call
    Workload(
        "procs_n1024",
        1024,
        {"nb": 128, "m0": 4, "executor": "processes", "num_workers": 2},
    ),
    # the dataflow scheduler over the thread backend
    Workload(
        "dataflow_n1024",
        1024,
        {
            "nb": 64,
            "m0": 4,
            "executor": "threads",
            "num_workers": 2,
            "schedule": "dataflow",
        },
        # two threads can miss the block cache on the same file at once and
        # both read it, so physical reads depend on the interleaving
        racy_counts=("dfs.bytes_read", "dfs.read_ops"),
    ),
    # the experiments harness's pinned configuration: no cache, direct writes
    Workload(
        "paper_n1024_m8",
        1024,
        {"nb": 128, "m0": 8, "block_cache_bytes": 0, "output_commit": False},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: End-to-end metrics (measured with tracing off) and their units.  The three
#: times are at the reference host speed (``child.at_ref_speed``).
END_TO_END: dict[str, str] = {
    "invert_wall_s": "s",
    "invert_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Rows whose call count is reported next to their self time.
CALL_ROWS = (
    "linalg.lu",
    "linalg.tri_inv",
    "dfs.codec",
    "dfs.read",
    "dfs.write",
    "dfs.commit",
    "analysis.preflight",
)

#: Layers reported with a ``<layer>.total_s`` over their rows.
TOTAL_LAYERS = ("linalg", "dfs", "mapreduce", "inversion")

#: Counts taken from ``InversionResult``; every call of a run must give the
#: same value.  ``compare`` reports them as counts, never as speed-ups.
EXACT_COUNTS: dict[str, str] = {
    "linalg.flops": "flop",
    "dfs.bytes_read": "B",
    "dfs.bytes_written": "B",
    "dfs.read_ops": "count",
    "dfs.write_ops": "count",
    "dfs.files_published": "count",
    "mapreduce.jobs": "count",
    "mapreduce.tasks": "count",
    "mapreduce.attempts_launched": "count",
    "mapreduce.attempts_failed": "count",
    "mapreduce.bytes_shuffled": "B",
    "telemetry.spans": "count",
}

#: Every per-layer metric (reported by the traced run) and its unit.
PER_LAYER: dict[str, str] = {
    **{f"{row}_s": "s" for row in ROWS},
    **{f"{row}_calls": "count" for row in CALL_ROWS},
    **{f"{layer}.total_s": "s" for layer in TOTAL_LAYERS},
    **EXACT_COUNTS,
    "linalg.gflops": "Gflop/s",
    "dfs.cache_hit_ratio": "ratio",
    "mapreduce.sched_wait_s": "s",
    "mapreduce.task_wall_s": "s",
    "mapreduce.job_overhead_s": "s",
    "mapreduce.master_phase_s": "s",
    "ref.numpy_inv_s": "s",
    "ref.x_numpy": "ratio",
    "ref.residual_max": "abs",
    "ref.calib_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}
