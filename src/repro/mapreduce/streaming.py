"""Hadoop Streaming: map/reduce as external processes over a line protocol.

Hadoop Streaming is how non-Java code (including the Python ports this paper
inspired) runs on real Hadoop: the framework pipes input records to a mapper
*command* on stdin, reads tab-separated ``key\\tvalue`` lines from its
stdout, shuffles, and pipes each reducer its sorted group stream.  This
module provides that interface on top of the engine, so the repository can
host streaming jobs exactly as a Hadoop cluster would:

* records go to the mapper command one per line;
* mapper stdout lines split on the first tab into (key, value) — a line
  with no tab is a key with an empty value;
* reducer commands receive ``key\\tvalue`` lines sorted by key (all values
  of a key contiguous, Hadoop's contract) and emit output lines.

Commands run as real subprocesses (``/bin/cat`` is the classic identity
mapper), so the failure modes — non-zero exit, garbage output — are real
too, and surface as task failures that the JobTracker retries.
"""

from __future__ import annotations

import subprocess
from typing import Any, Iterable

from .job import JobConf, Mapper, Reducer, TaskContext
from .retry import RetryPolicy
from .types import InputSplit


class StreamingProcessError(RuntimeError):
    """The external command exited non-zero."""


def run_streaming_process(
    command: list[str], input_lines: Iterable[str], timeout: float = 60.0
) -> list[str]:
    """Feed lines to a subprocess and return its stdout lines."""
    payload = "".join(line + "\n" for line in input_lines)
    proc = subprocess.run(
        command,
        input=payload,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise StreamingProcessError(
            f"{command!r} exited {proc.returncode}: {proc.stderr.strip()[:500]}"
        )
    return proc.stdout.splitlines()


def parse_kv_line(line: str) -> tuple[str, str]:
    """Hadoop Streaming's split: first tab separates key from value."""
    key, sep, value = line.partition("\t")
    return key, value


class StreamingMapper(Mapper):
    """Runs the mapper command over the split's input lines."""

    def __init__(self, command: list[str], timeout: float = 60.0) -> None:
        self.command = command
        self.timeout = timeout

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        if split.path is not None:
            lines = ctx.read_text(split.path).splitlines()
        elif isinstance(split.payload, (list, tuple)):
            lines = [str(x) for x in split.payload]
        else:
            lines = [str(split.payload)]
        for out_line in run_streaming_process(self.command, lines, self.timeout):
            key, value = parse_kv_line(out_line)
            ctx.emit(key, value)


class StreamingReducer(Reducer):
    """Buffers the sorted group stream and pipes it to the reducer command
    once per task (cleanup), emitting its output lines as final records."""

    def __init__(self, command: list[str], timeout: float = 60.0) -> None:
        self.command = command
        self.timeout = timeout
        self._lines: list[str] = []

    def setup(self, ctx: TaskContext) -> None:
        self._lines = []

    def reduce(self, ctx: TaskContext, key: Any, values: Iterable[Any]) -> None:
        for value in values:
            self._lines.append(f"{key}\t{value}")

    def cleanup(self, ctx: TaskContext) -> None:
        for out_line in run_streaming_process(self.command, self._lines, self.timeout):
            key, value = parse_kv_line(out_line)
            ctx.emit(key, value)


def streaming_job(
    name: str,
    input_paths: list[str],
    mapper_command: list[str],
    reducer_command: list[str] | None = None,
    *,
    num_reduce_tasks: int = 1,
    timeout: float = 60.0,
    retry: RetryPolicy = RetryPolicy(),
) -> JobConf:
    """Build a JobConf equivalent to ``hadoop jar hadoop-streaming.jar
    -input ... -mapper ... -reducer ...``."""
    if not input_paths:
        raise ValueError("streaming job needs at least one input path")
    splits = [InputSplit(index=i, path=p) for i, p in enumerate(input_paths)]
    return JobConf(
        name=name,
        mapper_factory=lambda: StreamingMapper(mapper_command, timeout),
        reducer_factory=(
            (lambda: StreamingReducer(reducer_command, timeout))
            if reducer_command
            else None
        ),
        splits=splits,
        num_reduce_tasks=num_reduce_tasks if reducer_command else 0,
        retry=retry,
    )
