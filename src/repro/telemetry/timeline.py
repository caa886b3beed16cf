"""Human-readable trace rendering: span trees, Gantt timelines, critical path.

These renderers are what ``python -m repro trace`` prints.  They operate on a
flat list of finished :class:`~repro.telemetry.spans.Span` objects (from a
tracer or a JSONL file) and never touch the engine, so a trace captured on
one machine renders anywhere.
"""

from __future__ import annotations

from typing import Sequence

from .spans import Span, SpanKind

_BAR = "█"
_PAD = "·"


def _children_index(spans: Sequence[Span]) -> dict[str | None, list[Span]]:
    index: dict[str | None, list[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    for bucket in index.values():
        bucket.sort(key=lambda s: s.start)
    return index


def roots_of(spans: Sequence[Span]) -> list[Span]:
    """Spans with no parent among ``spans`` (usually the run span)."""
    ids = {s.span_id for s in spans}
    return sorted(
        (s for s in spans if s.parent_id is None or s.parent_id not in ids),
        key=lambda s: s.start,
    )


def render_tree(spans: Sequence[Span], *, max_depth: int | None = None) -> str:
    """Indented span tree with durations, I/O attributes and each span's
    folded DFS operations (count and bytes)."""
    index = _children_index(spans)
    lines: list[str] = []

    def describe(span: Span) -> str:
        extras = []
        for key in ("bytes_read", "bytes_written", "tasks", "node", "attempt"):
            if key in span.attrs:
                extras.append(f"{key}={span.attrs[key]}")
        if span.io:
            nbytes = sum(record[2] for record in span.io)
            extras.append(f"dfs_ops={len(span.io)} dfs_bytes={nbytes}")
        status = "" if span.status == "ok" else f"  !! {span.error}"
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        return (
            f"{span.name} ({span.kind.value}) {span.duration * 1e3:.1f}ms"
            f"{suffix}{status}"
        )

    def walk(span: Span, depth: int) -> None:
        lines.append("  " * depth + describe(span))
        if max_depth is not None and depth + 1 > max_depth:
            return
        for child in index.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots_of(spans):
        walk(root, 0)
    return "\n".join(lines)


def render_timeline(
    spans: Sequence[Span],
    *,
    width: int = 64,
    kinds: tuple[SpanKind, ...] = (SpanKind.JOB, SpanKind.MASTER_PHASE),
) -> str:
    """Gantt chart over the run: one bar per job / master phase.

    Bars are positioned on a shared clock (the earliest span start is t=0),
    so serialization between jobs and master phases is visible at a glance.
    """
    rows = sorted((s for s in spans if s.kind in kinds), key=lambda s: s.start)
    if not rows:
        return "(no spans to render)"
    t0 = min(s.start for s in rows)
    t1 = max(s.end if s.end is not None else s.start for s in rows)
    total = max(t1 - t0, 1e-9)
    name_width = min(max(len(s.name) for s in rows), 28)
    lines = [
        f"timeline: {len(rows)} steps over {total:.3f}s "
        f"(each column = {total / width * 1e3:.2f}ms)"
    ]
    for span in rows:
        end = span.end if span.end is not None else span.start
        lo = int((span.start - t0) / total * width)
        hi = max(int((end - t0) / total * width), lo + 1)
        hi = min(hi, width)
        bar = _PAD * lo + _BAR * (hi - lo) + _PAD * (width - hi)
        name = span.name[:name_width].ljust(name_width)
        lines.append(f"  {name} |{bar}| {span.duration * 1e3:8.1f}ms")
    return "\n".join(lines)


def critical_path(spans: Sequence[Span]) -> list[Span]:
    """The chain of spans that determines the run's end time.

    Starting from the root that finishes last, repeatedly descend into the
    child that finishes last — for a serial pipeline this walks run → the
    last job → its last wave → the straggler task, which is exactly the
    paper's "job time is bounded by its slowest task" argument (Section 7.4).
    """
    index = _children_index(spans)

    def end_of(span: Span) -> float:
        return span.end if span.end is not None else span.start

    roots = roots_of(spans)
    if not roots:
        return []
    path: list[Span] = []
    cursor = max(roots, key=end_of)
    while cursor is not None:
        path.append(cursor)
        children = index.get(cursor.span_id, [])
        cursor = max(children, key=end_of) if children else None  # type: ignore[assignment]
    return path


def render_critical_path(spans: Sequence[Span]) -> str:
    """Critical path with per-hop durations and share of the run."""
    path = critical_path(spans)
    if not path:
        return "(no spans)"
    total = max(path[0].duration, 1e-9)
    lines = ["critical path (slowest descent from the run span):"]
    for span in path:
        share = span.duration / total * 100.0
        lines.append(
            f"  {span.kind.value:13s} {span.name[:40]:40s} "
            f"{span.duration * 1e3:9.1f}ms  ({share:5.1f}% of run)"
        )
    return "\n".join(lines)


__all__ = [
    "critical_path",
    "render_critical_path",
    "render_timeline",
    "render_tree",
    "roots_of",
]
