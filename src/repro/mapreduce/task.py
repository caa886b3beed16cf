"""Execution of individual task attempts.

A map attempt runs the user mapper over its split, applies the combiner, and
partitions its output; a reduce attempt consumes its merged partition grouped
by key.  Each attempt gets a fresh context, counters object, and trace, so
retries and speculative duplicates are isolated from one another — attempt
side effects on the DFS must be idempotent, which the pipeline guarantees by
writing each result to a deterministic per-task file (Section 5.2: "no two
mappers write data into the same file").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..dfs.commit import CommitScope
from ..dfs.filesystem import DFS
from .counters import (
    Counters,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    SHUFFLE_BYTES,
    TASK_GROUP,
)
from .faults import FaultPolicy
from .job import JobConf, TaskContext
from .shuffle import (
    partition_pairs,
    run_combiner,
    shuffle_size_bytes,
    sort_and_group,
)
from .types import InputSplit, TaskAttemptId, TaskKind, TaskTrace


@dataclass
class MapAttemptResult:
    attempt_id: TaskAttemptId
    partitions: dict[int, list[tuple[Any, Any]]]
    trace: TaskTrace
    counters: Counters
    #: ``(staged_path, final_path)`` pairs this attempt wrote under its
    #: staging directory; the master publishes them iff the attempt wins.
    staged: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class ReduceAttemptResult:
    attempt_id: TaskAttemptId
    output: list[tuple[Any, Any]]
    trace: TaskTrace
    counters: Counters
    staged: list[tuple[str, str]] = field(default_factory=list)


def attempt_scope(dfs: DFS, conf: JobConf, attempt_id: TaskAttemptId) -> CommitScope | None:
    """The attempt's private staging scope (``None`` with the protocol off)."""
    if not conf.output_commit:
        return None
    return CommitScope(dfs, f"attempt-{attempt_id.name}")


def run_map_attempt(
    dfs: DFS,
    conf: JobConf,
    split: InputSplit,
    attempt_id: TaskAttemptId,
    fault_policy: FaultPolicy,
    node: int | None = None,
) -> MapAttemptResult:
    """Run one map attempt to completion (exceptions propagate to the master)."""
    counters = Counters()
    trace = TaskTrace(attempt=attempt_id.name, kind=TaskKind.MAP, node=node)
    scope = attempt_scope(dfs, conf, attempt_id)
    ctx = TaskContext(dfs, attempt_id, conf.params, trace, counters, scope=scope)
    start = time.perf_counter()

    fault_policy.maybe_fail(attempt_id, node)

    mapper = conf.mapper_factory()
    mapper.setup(ctx)
    mapper.map(ctx, split)
    mapper.cleanup(ctx)

    pairs = list(ctx.emitted)
    counters.increment(TASK_GROUP, MAP_OUTPUT_RECORDS, len(pairs))

    if conf.is_map_only:
        partitions: dict[int, list[tuple[Any, Any]]] = {}
    else:
        pairs = run_combiner(conf, pairs, ctx)
        partitions = partition_pairs(pairs, conf.num_reduce_tasks)
        shuffled = sum(shuffle_size_bytes(batch) for batch in partitions.values())
        trace.bytes_shuffled += shuffled
        counters.increment(TASK_GROUP, SHUFFLE_BYTES, shuffled)

    ctx.count_io()
    trace.wall_seconds = time.perf_counter() - start
    return MapAttemptResult(
        attempt_id,
        partitions,
        trace,
        counters,
        staged=list(scope.staged) if scope is not None else [],
    )


def run_reduce_attempt(
    dfs: DFS,
    conf: JobConf,
    partition: list[tuple[Any, Any]],
    attempt_id: TaskAttemptId,
    fault_policy: FaultPolicy,
    node: int | None = None,
) -> ReduceAttemptResult:
    """Run one reduce attempt over its merged, grouped partition."""
    if conf.reducer_factory is None:
        raise ValueError(f"job {conf.name!r} is map-only; no reduce to run")
    counters = Counters()
    trace = TaskTrace(attempt=attempt_id.name, kind=TaskKind.REDUCE, node=node)
    scope = attempt_scope(dfs, conf, attempt_id)
    ctx = TaskContext(dfs, attempt_id, conf.params, trace, counters, scope=scope)
    start = time.perf_counter()

    fault_policy.maybe_fail(attempt_id, node)

    reducer = conf.reducer_factory()
    reducer.setup(ctx)
    groups = sort_and_group(partition)
    counters.increment(TASK_GROUP, REDUCE_INPUT_RECORDS, len(partition))
    counters.increment(TASK_GROUP, REDUCE_INPUT_GROUPS, len(groups))
    for key, values in groups:
        reducer.reduce(ctx, key, iter(values))
    reducer.cleanup(ctx)

    output = list(ctx.emitted)
    counters.increment(TASK_GROUP, REDUCE_OUTPUT_RECORDS, len(output))
    ctx.count_io()
    trace.wall_seconds = time.perf_counter() - start
    return ReduceAttemptResult(
        attempt_id,
        output,
        trace,
        counters,
        staged=list(scope.staged) if scope is not None else [],
    )
