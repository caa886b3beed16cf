"""Span exporters: where finished spans go.

Exporters receive each span exactly once, when it ends (parents therefore
arrive *after* their children — reconstruct trees by ``parent_id``, not by
arrival order).  :class:`JsonLinesExporter` writes one JSON object per line
to a file or file-like object, the interchange format ``python -m repro
trace --jsonl`` writes and :func:`read_jsonl` loads back.  The tracer keeps
its own finished spans, and :func:`~repro.telemetry.timeline.render_timeline`
draws them.
"""

from __future__ import annotations

import io
import json
import pathlib
import threading
from typing import IO, Protocol

from .spans import Span


class SpanExporter(Protocol):
    """The exporter protocol: ``on_end`` per span, ``close`` at shutdown."""

    def on_end(self, span: Span) -> None: ...  # noqa: E704 - protocol stub

    def close(self) -> None: ...  # noqa: E704 - protocol stub


class JsonLinesExporter:
    """Write each finished span as one JSON line.

    Accepts a path (opened lazily, closed by :meth:`close`) or any writable
    text stream (left open — the caller owns it).
    """

    def __init__(self, target: str | pathlib.Path | IO[str]) -> None:
        self._lock = threading.Lock()
        if isinstance(target, (str, pathlib.Path)):
            self._stream: IO[str] | None = None  # guarded-by: _lock
            self._path: pathlib.Path | None = pathlib.Path(target)
            self._owns_stream = True
        else:
            self._stream = target  # guarded-by: _lock
            self._path = None
            self._owns_stream = False
        self.spans_written = 0  # guarded-by: _lock

    def _ensure_stream(self) -> IO[str]:  # requires-lock: _lock
        if self._stream is None:
            assert self._path is not None
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self._path.open("w", encoding="utf-8")
        return self._stream

    def on_end(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True, default=str)
        with self._lock:
            stream = self._ensure_stream()
            stream.write(line + "\n")
            self.spans_written += 1

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.flush()
                if self._owns_stream:
                    self._stream.close()
                    self._stream = None


def read_jsonl(source: str | pathlib.Path | IO[str]) -> list[Span]:
    """Load spans written by :class:`JsonLinesExporter`."""
    if isinstance(source, (str, pathlib.Path)):
        text = pathlib.Path(source).read_text(encoding="utf-8")
        stream: IO[str] = io.StringIO(text)
    else:
        stream = source
    spans: list[Span] = []
    for line in stream:
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


__all__ = [
    "JsonLinesExporter",
    "SpanExporter",
    "read_jsonl",
]
