"""Fault injection for the MapReduce engine.

Section 7.4 of the paper reports a run where "one mapper computing the inverse
of a triangular matrix failed and ... did not restart until one of the other
mappers finished", demonstrating MapReduce's fault tolerance.  These policies
let tests and the Section 7.4 experiment inject exactly that kind of failure
deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from .types import TaskAttemptId, TaskKind


class InjectedTaskFailure(RuntimeError):
    """Raised inside a task attempt when a fault policy triggers."""


class FaultPolicy:
    """Base policy: never fails anything."""

    def note_job(self, job_id, name: str) -> None:
        """Register ``name`` as the job running under ``job_id``.

        The master calls this at phase start so name-scoped policies
        (``job_substring`` matching) resolve each attempt against *its own*
        job's name via :meth:`job_name_for`.  Under the dataflow scheduler
        several jobs run concurrently, so a single mutable ``job_name``
        slot would race; the per-job map does not.  No lock: the write and
        every read for one ``job_id`` happen in (or are fenced by) the
        thread driving that job's phases.
        """
        # __dict__ directly: works for plain and frozen policy classes.
        names = self.__dict__.setdefault("_job_names", {})
        names[job_id] = name

    def job_name_for(self, attempt: TaskAttemptId) -> str:
        """The name :meth:`note_job` registered for the job ``attempt``
        belongs to (``""`` if none)."""
        return self.__dict__.get("_job_names", {}).get(attempt.task.job, "")

    def should_fail(self, attempt: TaskAttemptId) -> bool:
        return False

    def should_fail_at(self, attempt: TaskAttemptId, node: int | None) -> bool:
        """Node-aware hook; the default ignores placement.  Override to model
        faults tied to a machine rather than a task (crashed tracker, bad
        disk) — the scenarios node blacklisting exists for."""
        return self.should_fail(attempt)

    def maybe_fail(self, attempt: TaskAttemptId, node: int | None = None) -> None:
        if self.should_fail_at(attempt, node):
            raise InjectedTaskFailure(f"injected failure of {attempt} on node {node}")

    def plan(
        self, attempt: TaskAttemptId, node: int | None = None
    ) -> "ScriptedFault":
        """Pre-compute this attempt's fault directive for out-of-process
        dispatch.

        Stateful policies (RNG draws, fire-once sets) consume their state
        *here, driver-side* — exactly once per attempt, matching what
        :meth:`maybe_fail` would have consumed in-process — and the worker
        receives only the frozen, picklable :class:`ScriptedFault` verdict.
        Shipping the policy object itself would fork its state per worker
        (a retried :class:`FailRandomly` would repeat the same draw every
        wave, turning a flaky task into a permanently failing one).
        """
        if self.should_fail_at(attempt, node):
            return ScriptedFault(
                fail=True,
                message=f"injected failure of {attempt} on node {node}",
            )
        return ScriptedFault()


@dataclass(frozen=True)
class ScriptedFault(FaultPolicy):
    """A frozen, picklable fault directive computed by the driver.

    This is the only fault object that crosses the process boundary: the
    master calls :meth:`FaultPolicy.plan` at dispatch and ships the verdict
    — an optional hang followed by an optional failure — so workers never
    hold locks, RNGs, or fire-once state.
    """

    delay_seconds: float = 0.0
    fail: bool = False
    message: str = ""

    def maybe_fail(self, attempt: TaskAttemptId, node: int | None = None) -> None:
        if self.delay_seconds > 0:
            time.sleep(self.delay_seconds)
        if self.fail:
            raise InjectedTaskFailure(
                self.message
                or f"injected failure of {attempt} on node {node}"
            )

    def plan(
        self, attempt: TaskAttemptId, node: int | None = None
    ) -> "ScriptedFault":
        return self


@dataclass
class FailNever(FaultPolicy):
    """Explicit no-op policy."""


@dataclass
class FailOnce(FaultPolicy):
    """Fail specific task attempts exactly once (attempt 0 by default).

    Attempt ``failing_attempt`` of task ``(kind, task_index)`` fails in every
    job whose name contains ``job_substring`` (so callers can target "the
    final inversion job" without knowing exact generated names); retries
    succeed, reproducing the paper's "mapper failed, was rescheduled, job
    completed" scenario.
    """

    job_substring: str
    kind: TaskKind
    task_index: int
    failing_attempt: int = 0
    _fired: set[str] = field(default_factory=set)  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def should_fail(self, attempt: TaskAttemptId) -> bool:
        if attempt.task.kind is not self.kind:
            return False
        if attempt.task.index != self.task_index:
            return False
        if attempt.attempt != self.failing_attempt:
            return False
        if self.job_substring not in self.job_name_for(attempt):
            return False
        with self._lock:
            tag = str(attempt)
            if tag in self._fired:
                return False
            self._fired.add(tag)
        return True


@dataclass
class FailAlways(FaultPolicy):
    """Fail every attempt of one task — drives the job to permanent failure,
    exercising the max-attempts path."""

    kind: TaskKind
    task_index: int

    def should_fail(self, attempt: TaskAttemptId) -> bool:
        return attempt.task.kind is self.kind and attempt.task.index == self.task_index


@dataclass
class FailRandomly(FaultPolicy):
    """Fail each attempt independently with probability ``rate`` (seeded)."""

    rate: float
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def should_fail(self, attempt: TaskAttemptId) -> bool:
        with self._lock:
            return self._rng.random() < self.rate


@dataclass
class FailOnNode(FaultPolicy):
    """Fail every attempt scheduled onto one node — a sick machine.

    Any single task retried onto the same node would fail again; the
    JobTracker's health tracker notices the consecutive failures, blacklists
    the node, and routes retries elsewhere (Hadoop's
    ``mapred.max.tracker.failures`` behaviour).  ``kind``/``job_substring``
    optionally narrow the blast radius.
    """

    node_id: int
    kind: TaskKind | None = None
    job_substring: str = ""

    def should_fail_at(self, attempt: TaskAttemptId, node: int | None) -> bool:
        if node != self.node_id:
            return False
        if self.kind is not None and attempt.task.kind is not self.kind:
            return False
        return self.job_substring in self.job_name_for(attempt)


@dataclass
class DelayAttempt(FaultPolicy):
    """Hang matching attempts for ``seconds`` instead of failing them.

    This is the fault class retry-on-exception cannot handle: the attempt
    never raises, it just stops making progress.  Paired with a
    :class:`~repro.mapreduce.retry.RetryPolicy` attempt deadline it exercises
    the timeout → failover path; without a deadline it reproduces the
    pre-hardening stalled-wave behaviour (in miniature — the delay is finite
    so tests terminate).
    """

    seconds: float
    kind: TaskKind | None = None
    task_index: int | None = None
    #: only attempts numbered strictly below this hang; retries run clean.
    attempts_below: int = 1
    job_substring: str = ""

    def should_delay(self, attempt: TaskAttemptId) -> bool:
        if self.kind is not None and attempt.task.kind is not self.kind:
            return False
        if self.task_index is not None and attempt.task.index != self.task_index:
            return False
        if attempt.attempt >= self.attempts_below:
            return False
        return self.job_substring in self.job_name_for(attempt)

    def maybe_fail(self, attempt: TaskAttemptId, node: int | None = None) -> None:
        if self.should_delay(attempt):
            time.sleep(self.seconds)

    def plan(
        self, attempt: TaskAttemptId, node: int | None = None
    ) -> ScriptedFault:
        if self.should_delay(attempt):
            return ScriptedFault(delay_seconds=self.seconds)
        return ScriptedFault()


class ComposedFaults(FaultPolicy):
    """Apply several fault policies in order (chaos schedules compose faults).

    :meth:`note_job` fans out to every child policy, preserving the
    master's name-scoping protocol.
    """

    def __init__(self, *policies: FaultPolicy) -> None:
        self.policies = list(policies)

    def note_job(self, job_id, name: str) -> None:
        super().note_job(job_id, name)
        for policy in self.policies:
            policy.note_job(job_id, name)

    def maybe_fail(self, attempt: TaskAttemptId, node: int | None = None) -> None:
        for policy in self.policies:
            policy.maybe_fail(attempt, node)

    def plan(
        self, attempt: TaskAttemptId, node: int | None = None
    ) -> ScriptedFault:
        # Mirror maybe_fail's order: delays accumulate until the first
        # policy that would raise; later policies never get consulted
        # in-process either, so their state is not consumed here.
        delay = 0.0
        for policy in self.policies:
            directive = policy.plan(attempt, node)
            delay += directive.delay_seconds
            if directive.fail:
                return ScriptedFault(
                    delay_seconds=delay, fail=True, message=directive.message
                )
        return ScriptedFault(delay_seconds=delay)
