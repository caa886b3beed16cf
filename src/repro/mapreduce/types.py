"""Core value types for the MapReduce engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class TaskKind(enum.Enum):
    MAP = "map"
    REDUCE = "reduce"


@dataclass(frozen=True)
class JobId:
    """Identifier of one job within a runtime, Hadoop-style ``job_0007``."""

    value: int

    def __str__(self) -> str:
        return f"job_{self.value:04d}"


@dataclass(frozen=True)
class TaskId:
    """Identifier of one logical task (map or reduce) within a job."""

    job: JobId
    kind: TaskKind
    index: int

    def __str__(self) -> str:
        tag = "m" if self.kind is TaskKind.MAP else "r"
        return f"{self.job}_{tag}_{self.index:06d}"


@dataclass(frozen=True)
class TaskAttemptId:
    """One execution attempt of a task; retries increment ``attempt``."""

    task: TaskId
    attempt: int
    #: ``str(self)``, formatted once: the attempt's span, trace and staging
    #: tag all carry it.
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", f"{self.task}_{self.attempt}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InputSplit:
    """The unit of work assigned to one mapper.

    The paper's jobs use tiny control files whose content is a single worker
    index (Section 5.1); ``payload`` carries that index (or any other
    pickleable description of the split, e.g. a row range).
    """

    index: int
    payload: Any = None
    path: str | None = None


@dataclass
class TaskTrace:
    """Resource usage recorded by one task attempt.

    These records feed the cluster simulator (``repro.cluster``): simulated
    task duration is computed from ``flops`` and the byte counters, which is
    how executed small-scale runs are replayed at paper scale.
    """

    attempt: str
    kind: TaskKind
    flops: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_shuffled: int = 0
    wall_seconds: float = 0.0
    node: int | None = None


@dataclass
class JobResult:
    """Outcome of one job: counters, per-attempt traces, and reduce outputs."""

    job_id: JobId
    name: str
    succeeded: bool
    map_traces: list[TaskTrace] = field(default_factory=list)
    reduce_traces: list[TaskTrace] = field(default_factory=list)
    counters: Any = None  # repro.mapreduce.counters.Counters
    reduce_outputs: dict[int, list[tuple[Any, Any]]] = field(default_factory=dict)
    attempts_launched: int = 0
    attempts_failed: int = 0
    #: attempts abandoned because they exceeded the RetryPolicy deadline
    #: (a subset of ``attempts_failed``).
    attempts_timed_out: int = 0
    #: total wall-clock time the tracker slept between retry waves.
    backoff_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: task index -> number of extra attempts that ran before success
    #: (Section 7.4's failed-and-rescheduled mappers; the cluster simulator
    #: schedules these as occupied slots).
    map_retries: dict[int, int] = field(default_factory=dict)
    reduce_retries: dict[int, int] = field(default_factory=dict)
    #: Final DFS paths the winning attempts published under the two-phase
    #: output commit (empty when the job ran with ``output_commit=False``).
    published_paths: list[str] = field(default_factory=list)

    @property
    def traces(self) -> list[TaskTrace]:
        return self.map_traces + self.reduce_traces
