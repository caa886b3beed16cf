"""The public instrumentation surface: :func:`observe`.

There is one way in: :func:`observe` instruments a ``with`` block ambiently —
every driver, runtime, executor, DFS, and chaos campaign running inside the
block emits into one span tree::

    with repro.observe() as obs:
        result = repro.invert(a)
    print(obs.render_timeline())
    print(obs.metrics.format())

Its keywords say *how*: a fixed ``trace_id`` and a ``jsonl`` sink.  No engine
configuration object carries a tracer: the engine resolves it with
:func:`~repro.telemetry.spans.current_tracer` in the driving thread and
hands it (and parent spans) explicitly across thread boundaries, so a live
tracer never rides a config that gets pickled to pool workers.
"""

from __future__ import annotations

import contextvars
import pathlib
from typing import IO, TYPE_CHECKING, Any

from .exporters import JsonLinesExporter
from .metrics import MetricsRegistry
from .spans import IORecord, Tracer, activate, deactivate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .reconcile import ReconciliationReport


class Observation:
    """Handle yielded by :func:`observe`: the live read path for one block.

    Exposes the tracer, its spans and metrics, and the common renderings so
    callers rarely need to touch the lower layers.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._token: contextvars.Token[Any] | None = None

    # -- context management ----------------------------------------------------

    def __enter__(self) -> "Observation":
        self._token = activate(self.tracer)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            deactivate(self._token)
            self._token = None
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
    *,
    jsonl: str | pathlib.Path | IO[str] | None = None,
    trace_id: str | None = None,
) -> Observation:
    """Instrument everything inside a ``with`` block.

    ``jsonl`` (a path or a writable text stream) also streams every
    finished span to it as one JSON object per line; ``trace_id`` fixes the
    trace ID (random when ``None``) to correlate a run with an external
    system's ID.

    >>> import numpy as np, repro
    >>> with repro.observe() as obs:
    ...     _ = repro.invert(np.eye(8))
    >>> len(obs.spans) > 0
    True
    """
    exporters = (JsonLinesExporter(jsonl),) if jsonl is not None else ()
    return Observation(Tracer(trace_id=trace_id, exporters=exporters))


__all__ = ["Observation", "observe"]
