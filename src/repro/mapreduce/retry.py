"""Retry policy: exponential backoff, deterministic jitter, attempt deadlines.

Hadoop retries a failed task attempt immediately on whatever tracker has a
free slot; in practice (and in every production scheduler since) retries are
spaced by exponential backoff so a systemic fault — an overloaded datanode, a
flapping network — is not hammered by the whole wave at once.  A
:class:`RetryPolicy` is everything the JobTracker's wave loop needs to know
about retrying one job's tasks:

* ``max_attempts`` — the per-task attempt budget (Hadoop's
  ``mapred.map.max.attempts``); a task that exhausts it fails the job;
* ``base_delay`` / ``max_delay`` — capped exponential backoff between retry
  waves, doubling per retry;
* ``jitter`` — the fraction of each delay that is randomized.  Jitter is
  *deterministic*: it is derived by hashing ``(task key, attempt)``, so two
  runs of the same pipeline sleep for identical durations — a requirement
  for reproducible chaos campaigns (:mod:`repro.chaos`);
* ``attempt_deadline`` — a wall-clock limit per task attempt.  An attempt
  that exceeds it is abandoned with a
  :class:`~repro.mapreduce.backends.TaskTimeoutError`, counted as a failure,
  and retried (as two hedged copies) elsewhere — the defence against
  *hung* tasks, which plain failure-retry cannot see.

The default policy is the degenerate one — four attempts, retried
immediately, no deadline (Hadoop's defaults) — so "no policy" needs no
separate representation anywhere in the engine.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff and deadline configuration for task-attempt retries.

    Attributes
    ----------
    max_attempts:
        Attempts a task may make before the job fails permanently.
    base_delay:
        Seconds to wait before the first retry wave (0 disables backoff);
        each further retry waits twice as long.
    max_delay:
        Upper bound on any single backoff sleep.
    jitter:
        Fraction in ``[0, 1]`` of each delay that is randomized (subtracted),
        decorrelating retries without sacrificing determinism.
    attempt_deadline:
        Per-attempt wall-clock limit in seconds; ``None`` means attempts may
        run forever (the pre-hardening behaviour).
    """

    max_attempts: int = 4
    base_delay: float = 0.0
    max_delay: float = 30.0
    jitter: float = 0.0
    attempt_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.attempt_deadline is not None and self.attempt_deadline <= 0:
            raise ValueError("attempt_deadline must be positive")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff sleep before launching attempt number ``attempt``.

        Attempt 0 (the first try) is free.  ``key`` identifies the task so
        that different tasks jitter differently.
        """
        if attempt <= 0 or self.base_delay <= 0:
            return 0.0
        raw = min(self.base_delay * 2.0 ** (attempt - 1), self.max_delay)
        if self.jitter > 0:
            # Every jitter delay hangs on this exact string; the retry tests
            # pin the delays it yields.
            digest = zlib.crc32(f"0:{key}:{attempt}".encode())
            raw *= 1.0 - self.jitter * (digest / 0xFFFFFFFF)
        return raw


__all__ = ["RetryPolicy"]
