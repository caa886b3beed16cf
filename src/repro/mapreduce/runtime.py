"""The MapReduce runtime facade.

One :class:`MapReduceRuntime` plays the role of a Hadoop cluster: it owns the
DFS, the worker pool and the job counter.  (The constant per-job *launch
overhead* that drives the paper's choice of ``nb`` is a property of the
simulated cluster the history is replayed on —
:attr:`repro.cluster.ClusterSpec.job_launch_overhead`.)

Fault-tolerance plumbing lives here too:

* ``before_job`` hooks fire ahead of every job launch — the injection point
  chaos nemeses use to kill datanodes, corrupt replicas, or crash the driver
  between pipeline stages;
* a :class:`~repro.dfs.health.HealthMonitor` repair pass runs before a job
  whenever the cluster topology changed since the last check (datanode
  killed or revived), so replication converges back to target without anyone
  calling ``rereplicate`` by hand.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable

from ..dfs.filesystem import DFS
from ..dfs.health import RepairReport
from ..telemetry.spans import SpanKind, current_tracer
from .faults import FaultPolicy
from .job import JobConf
from .master import JobFailedError, JobTracker
from .backends import make_executor
from .types import JobId, JobResult


class MapReduceRuntime:
    """Runs jobs and keeps their results for replay on the simulated cluster.

    ``executor`` names the backend (``"serial"``, ``"threads"`` or
    ``"processes"``) and ``num_workers`` its pool width, which is also the
    number of simulated nodes the tracker schedules attempts onto.
    """

    def __init__(
        self,
        dfs: DFS | None = None,
        *,
        executor: str = "serial",
        num_workers: int = 4,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.dfs = dfs if dfs is not None else DFS()
        self._executor = make_executor(executor, num_workers)
        self._tracker = JobTracker(
            self.dfs,
            self._executor,
            fault_policy=fault_policy,
            num_nodes=num_workers,
        )
        self._job_ids = itertools.count(1)
        # Serializes the launch preamble (before_job hooks, repair pass,
        # job-id allocation) and history appends when the dataflow
        # scheduler launches jobs from several unit threads at once.
        self._launch_lock = threading.Lock()
        self.history: list[JobResult] = []
        #: Hooks invoked with the JobConf before each launch (chaos nemeses,
        #: schedulers).  A hook that raises aborts the launch.
        self.before_job: list[Callable[[JobConf], None]] = []
        #: Repair passes triggered by topology changes, in order.
        self.repair_log: list[RepairReport] = []
        self._repair_epoch = self.dfs.blocks.failure_epoch

    @property
    def node_health(self):
        """The tracker's per-node failure/blacklist state (read-mostly)."""
        return self._tracker.node_health

    def _maybe_auto_repair(self) -> None:
        epoch = self.dfs.blocks.failure_epoch
        if epoch == self._repair_epoch:
            return
        self._repair_epoch = epoch
        self.repair_log.append(self.dfs.health_monitor().repair())

    def run_job(
        self,
        conf: JobConf,
        *,
        parent_span=None,
        span_attrs: dict | None = None,
    ) -> JobResult:
        """Run one job to completion; raises JobFailedError on permanent failure.

        ``parent_span`` pins the JOB span's parent explicitly — required
        when the caller runs in a scheduler unit thread, where the ambient
        (contextvar) parent of the opening thread is not inherited.
        ``span_attrs`` adds attributes (the scheduler stamps its
        ready→launch wait here).
        """
        with self._launch_lock:
            for hook in list(self.before_job):
                hook(conf)
            self._maybe_auto_repair()
            job_id = JobId(next(self._job_ids))
        tracer = current_tracer()
        attrs = {"job": str(job_id), **(span_attrs or {})}
        start = time.perf_counter()
        with tracer.span(
            conf.name, SpanKind.JOB, attrs=attrs, parent=parent_span
        ) as job_span:
            result = self._tracker.run_job(
                conf, job_id, tracer=tracer, job_span=job_span
            )
            job_span.set(
                attempts_launched=result.attempts_launched,
                attempts_failed=result.attempts_failed,
            )
        if tracer.enabled:
            tracer.metrics.absorb_counters(result.counters)
        result.wall_seconds = time.perf_counter() - start
        with self._launch_lock:
            self.history.append(result)
        return result

    def jobs_run(self) -> int:
        return len(self.history)

    def shutdown(self) -> None:
        self._tracker.shutdown()
        self._executor.shutdown()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


__all__ = ["MapReduceRuntime", "JobFailedError"]
