"""Tracing and metrics for the whole stack (the run-accounting read path).

The paper's evaluation (Section 7, Tables 1-3, Figures 6-8) is an exercise in
*measuring* the pipeline — per-job I/O, transfer volume, task timing.  This
subsystem makes those measurements first-class instead of scattered across
``Counters``, ``iostats``, and log scraping:

* **spans** (:mod:`.spans`) — hierarchical timed regions
  (``run → job → wave → task attempt``, plus master phases and DFS
  read/write/repair operations) carrying trace/span IDs and attributes;
* **metrics** (:mod:`.metrics`) — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms that absorbs engine ``Counters`` and
  DFS ``IOStats`` under stable dotted names;
* **exporters** (:mod:`.exporters`) — in-memory, JSON-lines, and timeline
  outputs;
* **reconciliation** (:mod:`.reconcile`) — the auditor proving span totals
  agree with the engine's counters, the DFS ledger, and the paper's Table-1
  cost model;
* **CLI** — ``python -m repro trace`` renders a per-job Gantt timeline,
  the critical path, and the reconciliation verdict for a live run.

Everything hangs off one public entry point::

    with repro.observe() as obs:
        result = repro.invert(a)
    print(obs.render_timeline())
    print(obs.reconcile(result).format())

Telemetry is **zero-cost when disabled**: outside ``observe`` every
instrumentation site sees the no-op tracer, whose spans are one shared inert
object.
"""

from .api import Observation, observe
from .exporters import JsonLinesExporter, SpanExporter, read_jsonl
from .history import HistoryReport, JobSummary
from .metrics import (
    Counter,
    DURATION_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SIZE_BUCKETS,
)
from .reconcile import (
    JobReconciliation,
    ModelCheck,
    ReconciliationReport,
    TotalsReconciliation,
    reconcile_run,
)
from .spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanKind,
    Tracer,
    current_span,
    current_tracer,
)
from .timeline import (
    critical_path,
    render_critical_path,
    render_timeline,
    render_tree,
)

__all__ = [
    "DURATION_BUCKETS",
    "NULL_TRACER",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistoryReport",
    "JobReconciliation",
    "JobSummary",
    "JsonLinesExporter",
    "MetricsRegistry",
    "ModelCheck",
    "NullTracer",
    "Observation",
    "ReconciliationReport",
    "Span",
    "SpanExporter",
    "SpanKind",
    "TotalsReconciliation",
    "Tracer",
    "critical_path",
    "current_span",
    "current_tracer",
    "observe",
    "read_jsonl",
    "reconcile_run",
    "render_critical_path",
    "render_timeline",
    "render_tree",
]
