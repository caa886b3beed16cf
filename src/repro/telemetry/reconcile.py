"""Cross-checking span totals against Counters, IOStats, and the Table-1 model.

Telemetry that cannot be trusted is worse than none, so the subsystem ships
its own auditor.  Three independent accounting layers observe every run:

1. **spans** — per-task-attempt byte attributes and the DFS records folded
   into each span by the tracer;
2. **Counters** — the engine's Hadoop-style per-job counter groups;
3. **IOStats** — the DFS's byte-level ledger (which also sees replication
   traffic and master-side I/O).

:func:`reconcile_run` checks that (1) and (2) agree *per job* to within a
tolerance (default 1%), that the job-span count matches the paper's
``2^d + 1`` formula, and that run-level span totals explain the DFS ledger
once the replication factor is applied.  Optionally the LU-stage totals are
also compared against the paper's Table 1 closed forms (the analytic cost
model), the same envelope check :mod:`repro.experiments.table1` performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .spans import READ_OPS, WRITE_OPS, IORecord, Span, SpanKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfs.iostats import IOSnapshot
    from ..mapreduce.pipeline import PipelineRecord

#: Per-job span-vs-counter tolerance demanded by default (1%).
DEFAULT_TOLERANCE = 0.01

#: Acceptance envelope for measured/model ratios against Table 1.  Factor
#: files are stored as dense squares rather than packed triangles, so reads
#: legitimately run up to ~2x the model (see repro.experiments.table1).
MODEL_RATIO_BOUNDS = (0.5, 3.0)


def dfs_replication_factor(dfs: object) -> int:
    """Effective write amplification of a DFS: each logical write lands on
    ``min(replication, alive datanodes)`` disks."""
    blocks = getattr(dfs, "blocks", None)
    if blocks is None:
        return 1
    alive = sum(1 for dn in blocks.datanodes if dn.alive)
    return max(1, min(blocks.replication, alive))


def _delta(measured: int, reference: int) -> float:
    """Relative disagreement |measured - reference| / reference (0 when both
    are zero, 1 when only the reference is zero)."""
    if reference == 0:
        return 0.0 if measured == 0 else 1.0
    return abs(measured - reference) / reference


@dataclass
class JobReconciliation:
    """Span-vs-counter agreement for one job."""

    job_id: str
    name: str
    span_id: str
    span_bytes_read: int = 0
    span_bytes_written: int = 0
    counter_bytes_read: int = 0
    counter_bytes_written: int = 0

    @property
    def read_delta(self) -> float:
        return _delta(self.span_bytes_read, self.counter_bytes_read)

    @property
    def write_delta(self) -> float:
        return _delta(self.span_bytes_written, self.counter_bytes_written)

    def within(self, tolerance: float) -> bool:
        return self.read_delta <= tolerance and self.write_delta <= tolerance


@dataclass
class TotalsReconciliation:
    """Run-level DFS records vs the DFS ledger.

    Sums the bytes of every read and write record folded into the spans and
    the tracer's root list (plus repair-span copy traffic) — the tracer's
    own view of the filesystem — and compares against the
    :class:`~repro.dfs.iostats.IOSnapshot` delta.
    """

    span_bytes_read: int = 0
    span_bytes_written: int = 0
    repair_bytes: int = 0
    iostats_bytes_read: int = 0
    iostats_bytes_written: int = 0
    replication_factor: int = 1
    cache_bytes_requested: int = 0
    cache_bytes_served: int = 0
    cache_bytes_missed: int = 0
    bytes_staged: int = 0
    bytes_published: int = 0
    bytes_discarded: int = 0

    @property
    def read_delta(self) -> float:
        return _delta(self.span_bytes_read, self.iostats_bytes_read)

    @property
    def commit_delta(self) -> float:
        """Two-phase commit conservation: at quiescence every staged byte
        was either published (sealed onto its final path) or discarded
        (aborted attempt, losing duplicate, fsck rollback) —
        ``staged == published + discarded`` exactly."""
        return _delta(
            self.bytes_staged, self.bytes_published + self.bytes_discarded
        )

    @property
    def cache_delta(self) -> float:
        """Decoded-block cache conservation: every logical byte requested
        through a cache-backed reader is either served from memory or read
        through the DFS — ``requested == served + missed`` exactly."""
        return _delta(
            self.cache_bytes_requested,
            self.cache_bytes_served + self.cache_bytes_missed,
        )

    @property
    def write_delta(self) -> float:
        """Spans record logical bytes; the DFS ledger records every replica
        (and repair copies are already replica-level)."""
        return _delta(
            self.span_bytes_written * self.replication_factor + self.repair_bytes,
            self.iostats_bytes_written,
        )

    def within(self, tolerance: float) -> bool:
        return (
            self.read_delta <= tolerance
            and self.write_delta <= tolerance
            and self.cache_delta <= tolerance
            and self.commit_delta <= tolerance
        )


@dataclass
class ModelCheck:
    """Measured LU-stage I/O against the Table 1 closed forms."""

    read_ratio: float
    write_ratio: float

    @property
    def ok(self) -> bool:
        lo, hi = MODEL_RATIO_BOUNDS
        return lo <= self.read_ratio <= hi and lo <= self.write_ratio <= hi


@dataclass
class ReconciliationReport:
    """Everything :func:`reconcile_run` verified, with a single verdict."""

    jobs: list[JobReconciliation] = field(default_factory=list)
    totals: TotalsReconciliation | None = None
    model: ModelCheck | None = None
    job_span_count: int = 0
    expected_job_count: int | None = None
    tolerance: float = DEFAULT_TOLERANCE
    problems: list[str] = field(default_factory=list)

    @property
    def job_count_ok(self) -> bool:
        return (
            self.expected_job_count is None
            or self.job_span_count == self.expected_job_count
        )

    @property
    def ok(self) -> bool:
        return (
            not self.problems
            and self.job_count_ok
            and all(j.within(self.tolerance) for j in self.jobs)
            and (self.totals is None or self.totals.within(self.tolerance))
            and (self.model is None or self.model.ok)
        )

    def format(self) -> str:
        pct = self.tolerance * 100.0
        lines = [f"reconciliation (tolerance {pct:.1f}%):"]
        if self.expected_job_count is not None:
            mark = "ok" if self.job_count_ok else "FAIL"
            lines.append(
                f"  [{mark:>4}] job spans: {self.job_span_count} "
                f"(expected 2^d + 1 = {self.expected_job_count})"
            )
        for job in self.jobs:
            mark = "ok" if job.within(self.tolerance) else "FAIL"
            lines.append(
                f"  [{mark:>4}] {job.name:24s} read {job.span_bytes_read:>12,} "
                f"vs {job.counter_bytes_read:>12,} ({job.read_delta * 100:5.2f}%)  "
                f"write {job.span_bytes_written:>12,} "
                f"vs {job.counter_bytes_written:>12,} ({job.write_delta * 100:5.2f}%)"
            )
        if self.totals is not None:
            t = self.totals
            mark = "ok" if t.within(self.tolerance) else "FAIL"
            lines.append(
                f"  [{mark:>4}] run totals vs DFS ledger: "
                f"read {t.span_bytes_read:,} vs {t.iostats_bytes_read:,} "
                f"({t.read_delta * 100:.2f}%), write {t.span_bytes_written:,} "
                f"x{t.replication_factor} replicas vs {t.iostats_bytes_written:,} "
                f"({t.write_delta * 100:.2f}%)"
            )
            if t.cache_bytes_requested:
                lines.append(
                    f"  [{mark:>4}] block cache: requested "
                    f"{t.cache_bytes_requested:,} vs served "
                    f"{t.cache_bytes_served:,} + read-through "
                    f"{t.cache_bytes_missed:,} ({t.cache_delta * 100:.2f}%)"
                )
            if t.bytes_staged:
                lines.append(
                    f"  [{mark:>4}] output commit: staged "
                    f"{t.bytes_staged:,} vs published "
                    f"{t.bytes_published:,} + discarded "
                    f"{t.bytes_discarded:,} ({t.commit_delta * 100:.2f}%)"
                )
        if self.model is not None:
            mark = "ok" if self.model.ok else "FAIL"
            lo, hi = MODEL_RATIO_BOUNDS
            lines.append(
                f"  [{mark:>4}] Table-1 model: measured/model read "
                f"{self.model.read_ratio:.2f}, write {self.model.write_ratio:.2f} "
                f"(envelope [{lo}, {hi}]; dense-square factor files explain "
                f"reads up to ~2x)"
            )
        for problem in self.problems:
            lines.append(f"  [FAIL] {problem}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _committed_task_spans(spans: Sequence[Span]) -> list[Span]:
    return [
        s
        for s in spans
        if s.kind is SpanKind.TASK
        and s.status == "ok"
        and s.attrs.get("committed", False)
    ]


def reconcile_run(
    spans: Sequence[Span],
    record: "PipelineRecord",
    *,
    io: "IOSnapshot | None" = None,
    root_io: Sequence[IORecord] = (),
    replication_factor: int = 1,
    expected_job_count: int | None = None,
    model_lu_cost: "tuple[float, float] | None" = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ReconciliationReport:
    """Audit one run's spans against its engine-side accounting.

    ``record`` supplies the per-job Counters (and master-phase I/O); ``io``
    the DFS ledger delta for the run, explained by the DFS records folded
    into ``spans`` plus ``root_io`` (the tracer's records from under no
    span); ``model_lu_cost`` the Table-1 closed forms as ``(read_bytes,
    write_bytes)`` for the run's LU stage (pass ``None`` to skip the model
    check).
    """
    from ..mapreduce.counters import BYTES_READ, BYTES_WRITTEN, FILESYSTEM_GROUP

    report = ReconciliationReport(
        tolerance=tolerance, expected_job_count=expected_job_count
    )
    job_spans = [s for s in spans if s.kind is SpanKind.JOB]
    report.job_span_count = len(job_spans)

    # Index committed task spans under their job span (transitively: job ->
    # wave -> task).
    children: dict[str | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)

    def tasks_under(job_span: Span) -> list[Span]:
        out: list[Span] = []
        frontier = [job_span.span_id]
        while frontier:
            nxt: list[str] = []
            for pid in frontier:
                for child in children.get(pid, []):
                    if child.kind is SpanKind.TASK:
                        out.append(child)
                    nxt.append(child.span_id)
            frontier = nxt
        return _committed_task_spans(out)

    by_job_id = {
        str(s.attrs.get("job", "")): s for s in job_spans if s.attrs.get("job")
    }
    for result in record.job_results:
        counters = result.counters
        span = by_job_id.get(str(result.job_id))
        if span is None:
            report.problems.append(
                f"job {result.job_id} ({result.name}) has no job span"
            )
            continue
        row = JobReconciliation(
            job_id=str(result.job_id),
            name=result.name,
            span_id=span.span_id,
            counter_bytes_read=counters.value(FILESYSTEM_GROUP, BYTES_READ),
            counter_bytes_written=counters.value(FILESYSTEM_GROUP, BYTES_WRITTEN),
        )
        for task in tasks_under(span):
            row.span_bytes_read += int(task.attrs.get("bytes_read", 0))
            row.span_bytes_written += int(task.attrs.get("bytes_written", 0))
        report.jobs.append(row)

    if io is not None:
        totals = TotalsReconciliation(replication_factor=replication_factor)
        totals.iostats_bytes_read = io.bytes_read
        totals.iostats_bytes_written = io.bytes_written
        totals.cache_bytes_requested = io.cache_bytes_requested
        totals.cache_bytes_served = io.cache_bytes_served
        totals.cache_bytes_missed = io.cache_bytes_missed
        totals.bytes_staged = io.bytes_staged
        totals.bytes_published = io.bytes_published
        totals.bytes_discarded = io.bytes_discarded
        records = [r for span in spans for r in span.io]
        records += root_io
        for op, _, nbytes, _ in records:
            if op in READ_OPS:
                totals.span_bytes_read += nbytes
            elif op in WRITE_OPS:
                totals.span_bytes_written += nbytes
        for span in spans:
            if span.kind is SpanKind.DFS_REPAIR:
                totals.repair_bytes += int(span.attrs.get("bytes_copied", 0))
        report.totals = totals

    if model_lu_cost is not None:
        model_read, model_write = model_lu_cost
        measured_read = measured_write = 0.0
        final = {r.name for r in record.job_results} & {"invert-final"}
        for row in report.jobs:
            if row.name in final:
                continue  # Table 1 models the LU stage only
            measured_read += row.span_bytes_read
            measured_write += row.span_bytes_written
        for span in spans:
            if span.kind is SpanKind.MASTER_PHASE and not str(
                span.name
            ).startswith("collect-"):
                measured_read += int(span.attrs.get("bytes_read", 0))
                measured_write += int(span.attrs.get("bytes_written", 0))
        report.model = ModelCheck(
            read_ratio=measured_read / model_read if model_read else 0.0,
            write_ratio=measured_write / model_write if model_write else 0.0,
        )
    return report


__all__ = [
    "DEFAULT_TOLERANCE",
    "MODEL_RATIO_BOUNDS",
    "JobReconciliation",
    "ModelCheck",
    "ReconciliationReport",
    "TotalsReconciliation",
    "dfs_replication_factor",
    "reconcile_run",
]
