"""Common experiment machinery.

Every evaluation artifact follows the same recipe:

1. *execute* the real pipeline at a scaled-down order (the structure — job
   sequence, task DAG, per-task flops/bytes — is exact for the chosen
   ``n/nb`` and ``m0``);
2. *replay* the recorded run on a simulated EC2 cluster, lifting per-task
   work to the paper's order with :class:`~repro.cluster.ScaleFactors`
   (flops scale cubically, bytes quadratically);
3. print the same rows/series the paper reports.

Executed runs are memoized per (n, nb, m0, flags, seed) because the scaling
figures sweep node counts over the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec, EC2_MEDIUM, NodeSpec, ScaleFactors, simulate_record
from ..cluster.simulator import SimulationReport
from ..inversion import InversionConfig, InversionResult, MatrixInverter
from ..mapreduce.faults import FaultPolicy
from ..workloads.generators import random_dense


@dataclass(frozen=True)
class RunKey:
    n: int
    nb: int
    m0: int
    separate_files: bool
    block_wrap: bool
    transpose_u: bool
    seed: int


@dataclass
class ExperimentHarness:
    """Runs and caches pipeline executions for the experiment modules."""

    executor: str = "serial"
    num_workers: int = 4
    _cache: dict[RunKey, InversionResult] = field(default_factory=dict)

    def run(
        self,
        n: int,
        nb: int,
        m0: int,
        *,
        separate_files: bool = True,
        block_wrap: bool = True,
        transpose_u: bool = True,
        seed: int = 0,
        fault_policy: FaultPolicy | None = None,
        matrix: np.ndarray | None = None,
    ) -> InversionResult:
        """Execute (or fetch the cached) pipeline run."""
        key = RunKey(n, nb, m0, separate_files, block_wrap, transpose_u, seed)
        if fault_policy is None and matrix is None and key in self._cache:
            return self._cache[key]
        a = matrix if matrix is not None else random_dense(n, seed=seed)
        config = InversionConfig(
            nb=nb,
            m0=m0,
            separate_files=separate_files,
            block_wrap=block_wrap,
            transpose_u=transpose_u,
            # Paper-faithful physical read volumes (Figures 6-8, Tables 1-2):
            # every logical read must hit the DFS, never a memory cache.
            block_cache_bytes=0,
            # Commit manifests are protocol metadata the paper's byte
            # accounting knows nothing about; keep the write volumes pinned.
            output_commit=False,
            # The paper's runs are strictly barrier-synchronized (Section 5);
            # pin the mode so a changed default can never skew the
            # reproduced step sequence or timings.
            schedule="barrier",
            executor=self.executor,
            num_workers=self.num_workers,
        )
        with MatrixInverter(config, fault_policy=fault_policy) as inverter:
            result = inverter.invert(a)
        if fault_policy is None and matrix is None:
            self._cache[key] = result
        return result

    def replay(
        self,
        result: InversionResult,
        *,
        num_nodes: int,
        paper_n: int | None = None,
        node: NodeSpec = EC2_MEDIUM,
        job_launch_overhead: float = 22.0,
    ) -> SimulationReport:
        """Simulate the recorded run on an EC2-style cluster at paper scale."""
        executed_n = result.plan.n
        scale = (
            ScaleFactors.for_order(executed_n, paper_n)
            if paper_n is not None
            else ScaleFactors()
        )
        cluster = ClusterSpec(
            num_nodes=num_nodes,
            node=node,
            job_launch_overhead=job_launch_overhead,
        )
        return simulate_record(result.record, cluster, scale)
