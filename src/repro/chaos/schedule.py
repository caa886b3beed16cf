"""Built-in chaos schedules: named, seeded, reproducible fault scenarios.

A :class:`FaultSchedule` bundles everything a chaos run injects — cluster
events fired between jobs (:mod:`repro.chaos.events`), task-granular fault
policies (:mod:`repro.mapreduce.faults`), and the retry/deadline knobs the
engine should defend itself with.  ``builtin_schedules`` is the campaign's
standard battery; every scenario is deterministic under its seed so a
failing run can be replayed bit-for-bit with ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..mapreduce.faults import (
    ComposedFaults,
    DelayAttempt,
    FailOnNode,
    FailRandomly,
    FaultPolicy,
)
from ..mapreduce.retry import RetryPolicy
from .events import (
    CorruptReplicas,
    CrashAtWrite,
    CrashDriver,
    FaultEvent,
    KillDatanode,
    ReviveDatanode,
    TornWrite,
)

#: Injected hangs sleep this long; the attempt deadline is well below it so a
#: hung attempt is reliably timed out, and well above scheduler noise so a
#: healthy attempt never is.  Both are small enough that the full battery
#: stays in CI-friendly wall time.
HANG_SECONDS = 0.25
ATTEMPT_DEADLINE = 0.05

#: Backoff used by retry-heavy schedules: real sleeps, kept tiny — the point
#: is to exercise the backoff code path and its counters, not to wait.
FAST_BACKOFF = RetryPolicy(base_delay=0.002, max_delay=0.02, jitter=0.5)

#: Backoff plus a per-attempt deadline and a deeper attempt budget: the full
#: hardening configuration.
DEADLINE_RETRY = RetryPolicy(
    max_attempts=6,
    base_delay=0.002,
    max_delay=0.02,
    jitter=0.5,
    attempt_deadline=ATTEMPT_DEADLINE,
)


@dataclass(frozen=True)
class FaultSchedule:
    """One named chaos scenario.

    ``task_faults`` is a factory (seed -> policy) rather than a policy
    instance because several policies carry mutable state (fired-sets,
    RNGs) — each run must get a fresh one.
    """

    name: str
    description: str
    events: tuple[FaultEvent, ...] = ()
    retry: RetryPolicy = RetryPolicy()
    task_faults: Callable[[int], FaultPolicy] | None = None

    @property
    def crashes_driver(self) -> bool:
        """Whether the scenario includes an injected driver crash (the
        campaign then resumes the run and checks the combined outcome)."""
        return any(isinstance(e, (CrashDriver, CrashAtWrite)) for e in self.events)

    def make_task_faults(self, seed: int) -> FaultPolicy | None:
        return self.task_faults(seed) if self.task_faults is not None else None


def builtin_schedules(seed: int = 0) -> tuple[FaultSchedule, ...]:
    """The standard battery, ordered mild to vicious.

    Job indices assume the campaign's default geometry (n=48, nb=16, m0=4:
    a depth-2 plan, so jobs 0..4 = partition, three LU jobs, final invert).
    Events pinned past the last job simply never fire, so the battery also
    runs — less interestingly — at other sizes.
    """
    return (
        FaultSchedule(
            name="baseline",
            description="no faults — the control run every invariant must pass",
        ),
        FaultSchedule(
            name="datanode-kill",
            description=(
                "a datanode dies after partitioning; auto-repair re-replicates "
                "from surviving copies and the pipeline never notices"
            ),
            events=(KillDatanode(at_job=1, node=1),),
        ),
        FaultSchedule(
            name="kill-revive-corrupt",
            description=(
                "a datanode bounces and replicas rot mid-run; checksums route "
                "reads around the damage and the scrub drops bad copies"
            ),
            events=(
                KillDatanode(at_job=1, node=2),
                ReviveDatanode(at_job=2, node=2),
                CorruptReplicas(at_job=2, count=2),
                CorruptReplicas(at_job=3, count=1),
            ),
        ),
        FaultSchedule(
            name="flaky-tasks",
            description=(
                "every task attempt fails with 15% probability; backoff plus a "
                "deep attempt budget grinds through"
            ),
            retry=replace(FAST_BACKOFF, max_attempts=8),
            task_faults=lambda seed: FailRandomly(rate=0.15, seed=seed),
        ),
        FaultSchedule(
            name="sick-node",
            description=(
                "one worker fails every attempt scheduled onto it; the health "
                "tracker blacklists it and retries land elsewhere"
            ),
            retry=replace(FAST_BACKOFF, max_attempts=6),
            task_faults=lambda seed: FailOnNode(node_id=1),
        ),
        FaultSchedule(
            name="hung-task",
            description=(
                "first attempts of the LU jobs hang instead of failing; the "
                "attempt deadline times them out and failover completes the job"
            ),
            retry=DEADLINE_RETRY,
            task_faults=lambda seed: DelayAttempt(
                seconds=HANG_SECONDS, job_substring="lu:", attempts_below=1
            ),
        ),
        FaultSchedule(
            name="combined",
            description=(
                "datanode death, hung tasks, and a driver crash in one run; "
                "repair + timeouts + DFS-persisted resume still converge"
            ),
            events=(
                KillDatanode(at_job=1, node=1),
                CrashDriver(at_job=3),
            ),
            retry=DEADLINE_RETRY,
            task_faults=lambda seed: ComposedFaults(
                DelayAttempt(
                    seconds=HANG_SECONDS, job_substring="lu:", attempts_below=1
                ),
            ),
        ),
        FaultSchedule(
            name="torn-write",
            description=(
                "a writer dies mid-write leaving torn pending files, then the "
                "driver itself crashes inside a job's output; resume-time fsck "
                "rolls the debris back and the commit protocol re-runs only "
                "the uncommitted steps"
            ),
            events=(
                TornWrite(at_job=1, path="/Root/OUT/A1/OUT/l.bin"),
                CrashAtWrite(at_job=2, nth=2, op="create"),
            ),
        ),
    )


def schedule_by_name(name: str, seed: int = 0) -> FaultSchedule:
    for schedule in builtin_schedules(seed):
        if schedule.name == name:
            return schedule
    known = ", ".join(s.name for s in builtin_schedules(seed))
    raise KeyError(f"unknown chaos schedule {name!r} (known: {known})")


__all__ = [
    "ATTEMPT_DEADLINE",
    "DEADLINE_RETRY",
    "FAST_BACKOFF",
    "FaultSchedule",
    "HANG_SECONDS",
    "builtin_schedules",
    "schedule_by_name",
]
