"""Shuffle phase: partition, sort, combine, and group map outputs.

Implements the contract between map and reduce: every pair a mapper emits is
routed to exactly one reduce partition by the hash of its key; within a
partition, pairs are sorted by key and grouped so the reducer sees each key
once with all its values.  An optional combiner runs on each map task's local
output before it is "sent", shrinking shuffle traffic exactly as in Hadoop.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import Any

from .counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    Counters,
    TASK_GROUP,
)
from .job import JobConf, TaskContext, default_partitioner
from .types import TaskAttemptId, TaskTrace


def _sort_key(key: Any) -> Any:
    """Total order for heterogeneous keys: group by type name, natural order
    within a type (so integer keys sort numerically, as Hadoop's typed
    comparators do)."""
    return (type(key).__name__, key)


def _sorted_keys(keys: list[Any]) -> list[Any]:
    try:
        return sorted(keys, key=_sort_key)
    except TypeError:
        # Same-type but non-comparable keys: fall back to a repr order, which
        # is still deterministic.
        return sorted(keys, key=lambda k: (type(k).__name__, repr(k)))


def partition_pairs(
    pairs: list[tuple[Any, Any]], num_partitions: int
) -> dict[int, list[tuple[Any, Any]]]:
    """Route each pair to its reduce partition by key hash."""
    buckets: dict[int, list[tuple[Any, Any]]] = defaultdict(list)
    for key, value in pairs:
        buckets[default_partitioner(key, num_partitions)].append((key, value))
    return dict(buckets)


def sort_and_group(pairs: list[tuple[Any, Any]]) -> list[tuple[Any, list[Any]]]:
    """Group pairs by key, keys in sorted order and values in arrival order
    within a key (Hadoop always sorts)."""
    grouped: dict[Any, list[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    return [(k, grouped[k]) for k in _sorted_keys(list(grouped))]


def run_combiner(
    conf: JobConf,
    pairs: list[tuple[Any, Any]],
    ctx: TaskContext,
) -> list[tuple[Any, Any]]:
    """Apply the job's combiner to one map task's local output.

    The combiner is run as a local reducer whose emits replace the original
    pairs; if the job has no combiner, pairs pass through untouched.
    """
    if conf.combiner_factory is None or not pairs:
        return pairs
    combiner = conf.combiner_factory()
    ctx.increment(TASK_GROUP, COMBINE_INPUT_RECORDS, len(pairs))
    saved = list(ctx.emitted)
    ctx.emitted.clear()
    combiner.setup(ctx)
    for key, values in sort_and_group(pairs):
        combiner.reduce(ctx, key, iter(values))
    combiner.cleanup(ctx)
    combined = list(ctx.emitted)
    ctx.emitted.clear()
    ctx.emitted.extend(saved)
    ctx.increment(TASK_GROUP, COMBINE_OUTPUT_RECORDS, len(combined))
    return combined


class _CountingSink:
    """Write-only file object that counts bytes instead of keeping them."""

    __slots__ = ("nbytes",)

    def __init__(self) -> None:
        self.nbytes = 0

    def write(self, data: bytes) -> int:
        self.nbytes += len(data)
        return len(data)


def shuffle_size_bytes(pairs: list[tuple[Any, Any]]) -> int:
    """Serialized size of a batch of pairs — the bytes that would cross the
    network during shuffle (Hadoop moves serialized spill files).

    Streams the pickle into a counting sink, so sizing a large map output
    costs no allocation proportional to its serialized form (the count is
    byte-identical to ``len(pickle.dumps(pairs))`` at the same protocol).
    """
    if not pairs:
        return 0
    sink = _CountingSink()
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(pairs)
    return sink.nbytes


def merge_map_outputs(
    per_map_partitions: list[dict[int, list[tuple[Any, Any]]]],
    num_partitions: int,
) -> dict[int, list[tuple[Any, Any]]]:
    """Merge the per-map partitioned outputs into per-reducer inputs,
    preserving map-task order within each partition (Hadoop's merge is
    stable per map output)."""
    merged: dict[int, list[tuple[Any, Any]]] = {p: [] for p in range(num_partitions)}
    for partitions in per_map_partitions:
        for p, pairs in partitions.items():
            merged[p].extend(pairs)
    return merged
