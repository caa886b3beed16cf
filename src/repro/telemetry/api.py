"""The public instrumentation surface: :class:`TraceConfig` and :func:`observe`.

There is one way in: :func:`observe` instruments a ``with`` block ambiently —
every driver, runtime, executor, DFS, and chaos campaign running inside the
block emits into one span tree::

    with repro.observe() as obs:
        result = repro.invert(a)
    print(obs.render_timeline())
    print(obs.metrics.format())

A :class:`TraceConfig` passed to :func:`observe` says *how* (fixed trace ID,
JSONL sink, extra exporters).  No engine configuration object carries one:
the engine resolves the tracer with
:func:`~repro.telemetry.spans.current_tracer` in the driving thread and
hands it (and parent spans) explicitly across thread boundaries, so a live
tracer never rides a config that gets pickled to pool workers.

A single ``TraceConfig`` owns a single lazily-created
:class:`~repro.telemetry.spans.Tracer` (and through it a
:class:`~repro.telemetry.metrics.MetricsRegistry`), so observing two blocks
with the same config funnels them into the same trace tree.
"""

from __future__ import annotations

import contextvars
import pathlib
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any

from .exporters import JsonLinesExporter, SpanExporter
from .metrics import MetricsRegistry
from .spans import NULL_TRACER, IORecord, NullTracer, Tracer, activate, deactivate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .reconcile import ReconciliationReport


@dataclass
class TraceConfig:
    """Declarative telemetry configuration.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` resolves to the no-op tracer: no spans,
        no metrics, no allocations on the hot path.
    trace_id:
        Fixed trace ID (random when ``None``) — set it to correlate a run
        with an external system's ID.
    jsonl_path:
        When set, every finished span is also streamed to this file as one
        JSON object per line (:class:`~repro.telemetry.exporters.JsonLinesExporter`).
    exporters:
        Additional exporters to attach.
    """

    enabled: bool = True
    trace_id: str | None = None
    jsonl_path: str | pathlib.Path | None = None
    exporters: tuple[SpanExporter, ...] = ()
    _tracer: "Tracer | None" = field(
        default=None, repr=False, compare=False, init=False
    )

    def tracer(self) -> "Tracer | NullTracer":
        """The (lazily created, cached) tracer this config describes."""
        if not self.enabled:
            return NULL_TRACER
        if self._tracer is None:
            exporters = tuple(self.exporters)
            if self.jsonl_path is not None:
                exporters += (JsonLinesExporter(self.jsonl_path),)
            self._tracer = Tracer(trace_id=self.trace_id, exporters=exporters)
        return self._tracer


class Observation:
    """Handle yielded by :func:`observe`: the live read path for one block.

    Exposes the tracer, its spans and metrics, and the common renderings so
    callers rarely need to touch the lower layers.
    """

    def __init__(self, config: TraceConfig) -> None:
        self.config = config
        self.tracer = config.tracer()
        self._token: contextvars.Token[Any] | None = None

    # -- context management ----------------------------------------------------

    def __enter__(self) -> "Observation":
        self._token = activate(self.tracer)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            deactivate(self._token)
            self._token = None
        if isinstance(self.tracer, Tracer):
            self.tracer.close()

    # -- read path -------------------------------------------------------------

    @property
    def spans(self) -> list[Any]:
        return self.tracer.spans

    @property
    def root_io(self) -> list[IORecord]:
        """DFS operations that ran under no open span."""
        return self.tracer.root_io

    @property
    def metrics(self) -> MetricsRegistry:
        return self.tracer.metrics

    @property
    def trace_id(self) -> str:
        return self.tracer.trace_id

    def render_tree(self, **kwargs: Any) -> str:
        from .timeline import render_tree

        return render_tree(self.spans, **kwargs)

    def render_timeline(self, **kwargs: Any) -> str:
        from .timeline import render_timeline

        return render_timeline(self.spans, **kwargs)

    def render_critical_path(self) -> str:
        from .timeline import render_critical_path

        return render_critical_path(self.spans)

    def reconcile(
        self,
        result: Any,
        *,
        dfs: Any = None,
        replication_factor: int | None = None,
        tolerance: float | None = None,
    ) -> "ReconciliationReport":
        """Audit an :class:`~repro.inversion.driver.InversionResult` captured
        inside this observation (spans vs Counters vs the DFS ledger, 1%
        default tolerance).  Pass the run's ``dfs`` (or an explicit
        ``replication_factor``) so ledger writes — which count every replica —
        can be explained; with neither, a factor of 1 is assumed.
        """
        from .reconcile import (
            DEFAULT_TOLERANCE,
            dfs_replication_factor,
            reconcile_run,
        )

        if replication_factor is None:
            replication_factor = dfs_replication_factor(dfs) if dfs is not None else 1
        return reconcile_run(
            self.spans,
            result.record,
            io=result.io,
            root_io=self.root_io,
            replication_factor=replication_factor,
            expected_job_count=result.num_jobs,
            tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance,
        )


def observe(
    config: TraceConfig | None = None,
    *,
    jsonl: str | pathlib.Path | IO[str] | None = None,
) -> Observation:
    """Instrument everything inside a ``with`` block.

    >>> import numpy as np, repro
    >>> with repro.observe() as obs:
    ...     _ = repro.invert(np.eye(8))
    >>> len(obs.spans) > 0
    True
    """
    if config is None:
        exporters: tuple[SpanExporter, ...] = ()
        jsonl_path: str | pathlib.Path | None = None
        if isinstance(jsonl, (str, pathlib.Path)):
            jsonl_path = jsonl
        elif jsonl is not None:
            exporters = (JsonLinesExporter(jsonl),)
        config = TraceConfig(jsonl_path=jsonl_path, exporters=exporters)
    elif jsonl is not None:
        raise ValueError("pass jsonl via TraceConfig when supplying a config")
    return Observation(config)


__all__ = ["Observation", "TraceConfig", "observe"]
