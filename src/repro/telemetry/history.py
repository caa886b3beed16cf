"""Job history reporting — a JobTracker-UI-style summary of executed jobs.

Renders what a Hadoop operator would read off the job history server: per-job
task counts, failures and retries, I/O volumes, and wall time, plus pipeline
totals.  Works from a runtime's history or any list of
:class:`~repro.mapreduce.types.JobResult`.

Lives in :mod:`repro.telemetry` (the run-accounting read path); also
re-exported as ``repro.HistoryReport``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mapreduce.types import JobResult


@dataclass
class JobSummary:
    """One row of the history report."""

    name: str
    job_id: str
    map_tasks: int
    reduce_tasks: int
    attempts_launched: int
    attempts_failed: int
    bytes_read: int
    bytes_written: int
    bytes_shuffled: int
    flops: float
    wall_seconds: float

    @staticmethod
    def of(job: "JobResult") -> "JobSummary":
        traces = job.traces
        return JobSummary(
            name=job.name,
            job_id=str(job.job_id),
            map_tasks=len(job.map_traces),
            reduce_tasks=len(job.reduce_traces),
            attempts_launched=job.attempts_launched,
            attempts_failed=job.attempts_failed,
            bytes_read=sum(t.bytes_read for t in traces),
            bytes_written=sum(t.bytes_written for t in traces),
            bytes_shuffled=sum(t.bytes_shuffled for t in traces),
            flops=sum(t.flops for t in traces),
            wall_seconds=job.wall_seconds,
        )


@dataclass
class HistoryReport:
    jobs: list[JobSummary]

    @staticmethod
    def of(results: "list[JobResult]") -> "HistoryReport":
        return HistoryReport([JobSummary.of(j) for j in results])

    @property
    def total_bytes_read(self) -> int:
        return sum(j.bytes_read for j in self.jobs)

    @property
    def total_bytes_written(self) -> int:
        return sum(j.bytes_written for j in self.jobs)

    @property
    def total_failed_attempts(self) -> int:
        return sum(j.attempts_failed for j in self.jobs)

    @property
    def total_flops(self) -> float:
        return sum(j.flops for j in self.jobs)

    def format(self) -> str:
        from ..experiments.report import bytes_human, format_table

        rows = [
            [
                j.job_id,
                j.name,
                f"{j.map_tasks}m/{j.reduce_tasks}r",
                j.attempts_failed,
                bytes_human(j.bytes_read),
                bytes_human(j.bytes_written),
                bytes_human(j.bytes_shuffled),
                f"{j.wall_seconds:.2f}s",
            ]
            for j in self.jobs
        ]
        table = format_table(
            ["job", "name", "tasks", "failed", "read", "written", "shuffled", "wall"],
            rows,
            title="Job history",
        )
        return (
            table
            + f"\ntotals: {len(self.jobs)} jobs, "
            + f"read {bytes_human(self.total_bytes_read)}, "
            + f"written {bytes_human(self.total_bytes_written)}, "
            + f"{self.total_failed_attempts} failed attempts"
        )


__all__ = ["HistoryReport", "JobSummary"]
