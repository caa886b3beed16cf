"""Hierarchical spans and the tracer that records them.

A *span* is one timed region of a run — the whole run, one MapReduce job, one
scheduling wave, one task attempt, one master phase, one repair — carrying a
trace ID (shared by every span of one tree), its own span ID, its parent's
span ID, wall-clock times, and free-form attributes.  The hierarchy mirrors
the pipeline's structure::

    run
    ├── master-phase (write-input, master-lu:..., collect-output)
    ├── job (partition)
    │   ├── wave (map, wave 0)
    │   │   ├── task attempt
    │   │   └── ...
    │   └── wave (reduce, wave 0) ...
    ├── job (lu:/Root/A1) ...
    └── job (invert-final)

A DFS operation opens no span of its own: :func:`fold_io` appends one
``(op, path, nbytes, seconds)`` record to the span open on its thread — a
task attempt's reads and writes land on its task span, a master phase's on
the phase span, the process pool's namespace export (op ``"export"``) on
the wave span.  An
operation under no open span folds into the tracer's root list.

Two tracers exist:

* :class:`Tracer` — the real recorder: thread-safe, feeds every finished span
  to its exporters, and keeps an in-memory copy for tree queries;
* :data:`NULL_TRACER` — the disabled recorder.  Every span it hands out is
  the one shared inert :data:`NULL_SPAN`, so instrumented code has a single
  path — open the span, set attributes, close it — that records nothing
  when telemetry is off.

Parenting is ambient within a thread: entering a span makes it the current
parent (a :mod:`contextvars` variable) for spans opened below it.  Worker
threads do not inherit the driver's context, so the engine passes the parent
span explicitly when it crosses an executor boundary (job → wave → task), and
everything *inside* a task attempt (DFS I/O) folds into the task's span via
the task's own thread.
"""

from __future__ import annotations

import contextvars
import enum
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from .metrics import DURATION_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .exporters import SpanExporter


class SpanKind(enum.Enum):
    """What a span measures; determines its place in the hierarchy."""

    RUN = "run"
    JOB = "job"
    WAVE = "wave"
    TASK = "task"
    MASTER_PHASE = "master-phase"
    DFS_REPAIR = "dfs.repair"
    INTERNAL = "internal"


#: One DFS operation folded into a span: ``(op, path, nbytes, seconds)``.
#: ``op`` is ``"read"``, ``"export"`` (the process pool's namespace export
#: reading a file for the workers), ``"write"``, ``"stage"`` (a pending
#: write) or ``"publish"`` (path: the batch's first destination; nbytes: its
#: total).
IORecord = tuple[str, str, int, float]

#: Record ops whose bytes the DFS ledger counts as read.
READ_OPS = ("read", "export")

#: Record ops whose bytes the DFS ledger counts as written.
WRITE_OPS = ("write", "stage")


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) timed region."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: SpanKind
    start: float = 0.0
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"  # "ok" | "error"
    error: str | None = None
    #: DFS operations folded in while the span was open.  Appended only by
    #: the thread that entered the span (the only thread whose ambient span
    #: it is), so it needs no lock.
    io: list[IORecord] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach attributes (bytes moved, task index, node, ...)."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind.value,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
            "io": list(self.io),
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "Span":
        return Span(
            trace_id=str(d["trace_id"]),
            span_id=str(d["span_id"]),
            parent_id=d.get("parent_id"),
            name=str(d["name"]),
            kind=SpanKind(d["kind"]),
            start=float(d["start"]),
            end=None if d.get("end") is None else float(d["end"]),
            attrs=dict(d.get("attrs", {})),
            status=str(d.get("status", "ok")),
            error=d.get("error"),
            io=[
                (str(op), str(path), int(nbytes), float(seconds))
                for op, path, nbytes, seconds in d.get("io", ())
            ],
        )


class _NullSpan:
    """The span the disabled tracer hands out: accepts everything, records
    nothing.  A single module-level instance is reused for every call."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    end: float | None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``enabled`` is ``False``; every span is the shared
    no-op span, whose ``trace_id``/``span_id`` are ``""`` (callers that
    report ids turn that into ``None``)."""

    enabled = False
    trace_id = ""

    def span(
        self,
        name: str,
        kind: "SpanKind | None" = None,
        parent: "Span | str | None" = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> _NullSpan:
        return NULL_SPAN

    @property
    def spans(self) -> list[Span]:
        return []

    @property
    def root_io(self) -> list[IORecord]:
        return []

    @property
    def metrics(self) -> MetricsRegistry:
        return _NULL_METRICS


NULL_TRACER = NullTracer()
_NULL_METRICS = MetricsRegistry()

#: The ambient tracer: whatever :func:`repro.telemetry.observe` (or an
#: entered span) activated on this thread/context.
_ACTIVE_TRACER: contextvars.ContextVar["Tracer | NullTracer"] = contextvars.ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)
#: The ambient parent span within the active tracer.
_CURRENT_SPAN: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)


def current_tracer() -> "Tracer | NullTracer":
    """The tracer instrumentation should emit into right now.

    Defaults to the disabled :data:`NULL_TRACER`; activated by
    :func:`repro.telemetry.observe` or by any entered span of a real tracer.
    """
    return _ACTIVE_TRACER.get()


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    return _CURRENT_SPAN.get()


def fold_io(op: str, path: str, nbytes: int, start: float) -> None:
    """Fold one finished DFS operation (begun at ``perf_counter`` time
    ``start``) into the span open on this thread, or into the active
    tracer's root list when no span is open.  With telemetry off this is
    one contextvar read."""
    tracer = _ACTIVE_TRACER.get()
    if not tracer.enabled:
        return
    record = (op, path, nbytes, time.perf_counter() - start)
    span = _CURRENT_SPAN.get()
    if span is None:
        tracer._fold_root(record)  # type: ignore[union-attr]
    else:
        span.io.append(record)


class _OpenSpan:
    """Context manager returned by :meth:`Tracer.span`.

    Entering starts the clock and makes the span the ambient parent (and its
    tracer the ambient tracer) for the current thread; exiting stops the
    clock, restores the ambient state, and exports the finished span.
    """

    __slots__ = ("_tracer", "_span", "_tracer_token", "_span_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._tracer_token: contextvars.Token[Any] | None = None
        self._span_token: contextvars.Token[Any] | None = None

    def __enter__(self) -> Span:
        self._span.start = time.perf_counter()
        if _ACTIVE_TRACER.get() is not self._tracer:
            self._tracer_token = _ACTIVE_TRACER.set(self._tracer)
        self._span_token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._span.end = time.perf_counter()
        if exc is not None:
            self._span.status = "error"
            self._span.error = f"{type(exc).__name__}: {exc}"
        if self._span_token is not None:
            _CURRENT_SPAN.reset(self._span_token)
        if self._tracer_token is not None:
            _ACTIVE_TRACER.reset(self._tracer_token)
        self._tracer._finish(self._span)


class Tracer:
    """Thread-safe span recorder for one trace tree.

    Every finished span is appended to the in-memory list (the queryable
    read path) and handed to each exporter.  Span durations also feed the
    tracer's :class:`~repro.telemetry.metrics.MetricsRegistry` as
    per-kind histograms, folded in whenever :attr:`metrics` is read, so
    basic latency metrics exist without any extra instrumentation.
    """

    enabled = True

    def __init__(
        self,
        trace_id: str | None = None,
        exporters: tuple["SpanExporter", ...] = (),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.exporters: tuple[SpanExporter, ...] = exporters
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: list[Span] = []  # guarded-by: _lock
        self._root_io: list[IORecord] = []  # guarded-by: _lock
        self._observed = 0  # guarded-by: _lock
        self._ids = itertools.count(1)  # guarded-by: _lock

    # -- recording -----------------------------------------------------------

    def span(
        self,
        name: str,
        kind: SpanKind = SpanKind.INTERNAL,
        parent: Span | str | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> _OpenSpan:
        """Open a span.  ``parent`` defaults to the thread's current span;
        pass a :class:`Span` (or span ID) explicitly when crossing threads."""
        if parent is None:
            ambient = _CURRENT_SPAN.get()
            parent_id = ambient.span_id if ambient is not None else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        # ID allocation is locked: spans open concurrently on worker threads
        # (CN001 — this next() was previously lock-free).
        with self._lock:
            span_id = f"{next(self._ids):08x}"
        span = Span(
            trace_id=self.trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            kind=kind,
            attrs=dict(attrs) if attrs else {},
        )
        return _OpenSpan(self, span)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        for exporter in self.exporters:
            exporter.on_end(span)

    def _fold_root(self, record: IORecord) -> None:
        # Unit threads of the dataflow scheduler run with no open span, so
        # the root list is shared across threads.
        with self._lock:
            self._root_io.append(record)

    # -- read path -----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The tracer's registry, with a ``span.<kind>.seconds`` duration
        histogram observation for every span finished so far."""
        with self._lock:
            for span in self._spans[self._observed :]:
                self._metrics.histogram(
                    f"span.{span.kind.value}.seconds", DURATION_BUCKETS
                ).observe(span.duration)
            self._observed = len(self._spans)
        return self._metrics

    @property
    def spans(self) -> list[Span]:
        """Finished spans, in completion order (copy; safe to mutate)."""
        with self._lock:
            return list(self._spans)

    @property
    def root_io(self) -> list[IORecord]:
        """DFS operations that ran under no open span (copy)."""
        with self._lock:
            return list(self._root_io)

    def find(self, span_id: str) -> Span | None:
        with self._lock:
            for span in self._spans:
                if span.span_id == span_id:
                    return span
        return None

    def close(self) -> None:
        """Close every exporter (flushes file-backed ones)."""
        for exporter in self.exporters:
            exporter.close()


def activate(tracer: "Tracer | NullTracer") -> contextvars.Token[Any]:
    """Make ``tracer`` the ambient tracer; returns the token for
    :func:`deactivate`.  Used by :func:`repro.telemetry.observe`."""
    return _ACTIVE_TRACER.set(tracer)


def deactivate(token: contextvars.Token[Any]) -> None:
    _ACTIVE_TRACER.reset(token)


__all__ = [
    "IORecord",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanKind",
    "Tracer",
    "READ_OPS",
    "WRITE_OPS",
    "activate",
    "current_span",
    "current_tracer",
    "deactivate",
    "fold_io",
]
