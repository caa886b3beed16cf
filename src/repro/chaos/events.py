"""Composable fault events and the nemesis that fires them.

A chaos schedule is a list of :class:`FaultEvent` values, each pinned to a
position in the pipeline's job launch sequence (``at_job``).  The
:class:`Nemesis` is registered as a ``before_job`` hook on the
:class:`~repro.mapreduce.runtime.MapReduceRuntime` and fires every event
whose turn has come — so faults land *between* pipeline stages, at
deterministic points, under a seeded RNG.  Task-granular faults (failed or
hung attempts) are injected separately through the engine's
:class:`~repro.mapreduce.faults.FaultPolicy` machinery; the two compose.

Following the Jepsen nemesis pattern, events mutate the live system only
through its public fault hooks (``kill_datanode``, ``corrupt_replica``,
driver crash), never through private state — what the campaign proves is the
behaviour of the same code paths production would take.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..dfs.blocks import BlockInfo
from ..dfs.commit import staging_path
from ..dfs.filesystem import DFS
from ..mapreduce.job import JobConf


class DriverCrashError(RuntimeError):
    """Injected driver death: the pipeline is abandoned mid-run.

    The campaign runner catches this and re-invokes the inversion with
    ``resume=True``, exercising the Section 5 persistence argument — every
    intermediate lives in the DFS, so a new driver can pick up where the
    dead one stopped.
    """

    #: A crash is not a task failure: the engine must never retry it.  The
    #: master re-raises fatal outcomes immediately, skipping loser-attempt
    #: cleanup — exactly what a real process death would leave behind.
    fatal = True


def arm_crash(dfs: DFS, nth: int, *, op: str = "", match: str = "") -> None:
    """Arm a one-shot driver crash on ``dfs``'s ``fault_hooks``: the hook
    lets ``nth`` matching create/publish operations through (only ``op``
    ones if given, only paths containing ``match`` if given), then removes
    itself and raises :class:`DriverCrashError` at the next — so the resumed
    driver's identical write goes through."""
    remaining = nth

    def hook(kind: str, path: str) -> None:
        nonlocal remaining
        if (op and kind != op) or (match and match not in path):
            return
        if remaining > 0:
            remaining -= 1
            return
        dfs.fault_hooks.remove(hook)
        raise DriverCrashError(f"injected driver crash at {kind} {path}")

    dfs.fault_hooks.append(hook)


@dataclass
class ChaosContext:
    """State shared by a schedule's events: the victim DFS, a seeded RNG,
    and a human-readable log of what was done."""

    dfs: DFS
    rng: random.Random
    log: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class FaultEvent:
    """One fault, fired just before the ``at_job``-th job launch (0-based)."""

    at_job: int

    def apply(self, ctx: ChaosContext) -> str:
        """Inject the fault; returns a description for the campaign log."""
        raise NotImplementedError


@dataclass(frozen=True)
class KillDatanode(FaultEvent):
    """Stop a datanode: its replicas become unreachable until revival."""

    node: int = 0

    def apply(self, ctx: ChaosContext) -> str:
        ctx.dfs.blocks.kill_datanode(self.node)
        return f"killed datanode {self.node}"


@dataclass(frozen=True)
class ReviveDatanode(FaultEvent):
    """Bring a dead datanode back (its stale replicas reappear)."""

    node: int = 0

    def apply(self, ctx: ChaosContext) -> str:
        ctx.dfs.blocks.revive_datanode(self.node)
        return f"revived datanode {self.node}"


@dataclass(frozen=True)
class CorruptReplicas(FaultEvent):
    """Flip bytes in ``count`` randomly chosen replicas (seeded).

    Victim blocks are picked only among those with at least two healthy
    replicas, so the event models silent bit-rot that checksums must catch
    and repair must scrub — not unrecoverable data loss (use
    :class:`KillDatanode` stacking for that).
    """

    count: int = 1

    def apply(self, ctx: ChaosContext) -> str:
        blocks = ctx.dfs.blocks
        namenode = ctx.dfs.namenode
        infos: list[BlockInfo] = [
            info
            for path in namenode.walk_files("/")
            for info in namenode.get_file(path).blocks
        ]
        ctx.rng.shuffle(infos)
        corrupted = 0
        for info in infos:
            if corrupted >= self.count:
                break
            healthy = [n for n, s in blocks.replica_status(info) if s == "healthy"]
            if len(healthy) < 2:
                continue
            node = healthy[ctx.rng.randrange(len(healthy))]
            if blocks.corrupt_replica(info, node):
                corrupted += 1
        return f"corrupted {corrupted} replica(s)"


@dataclass(frozen=True)
class CrashDriver(FaultEvent):
    """Kill the driver process between jobs (crash-and-resume scenario)."""

    def apply(self, ctx: ChaosContext) -> str:
        raise DriverCrashError(f"injected driver crash before job {self.at_job}")


@dataclass(frozen=True)
class CrashAtWrite(FaultEvent):
    """Kill the driver at an exact DFS write or publish point.

    Firing arms a one-shot hook on the DFS's ``fault_hooks``: the hook
    counts subsequent matching operations and raises
    :class:`DriverCrashError` at the ``nth`` one (0-based), disarming
    itself first so the resumed driver's identical write goes through.
    Unlike :class:`CrashDriver` — which dies *between* jobs, when nothing
    is half-written — this lands the crash in the middle of a step's
    output, which is precisely what the two-phase commit must survive.
    """

    #: Crash on the nth matching DFS operation after arming (0-based).
    nth: int = 0
    #: Substring the operation's path must contain (empty = any path).
    match: str = ""
    #: Restrict to ``"create"`` or ``"publish"`` (empty = either).
    op: str = ""

    def apply(self, ctx: ChaosContext) -> str:
        arm_crash(ctx.dfs, self.nth, op=self.op, match=self.match)
        kind = self.op or "create/publish"
        target = f" touching {self.match!r}" if self.match else ""
        return f"armed one-shot crash at {kind} #{self.nth}{target}"


@dataclass(frozen=True)
class TornWrite(FaultEvent):
    """Plant the debris a writer killed mid-write would leave behind.

    Two pending (unsealed) files appear: a partial copy in the ``/_tmp``
    staging namespace and a half-length torso at the final ``path`` itself.
    Neither is visible to readers; both must be detected and rolled back by
    ``fsck`` on resume.  The bytes go through the staging ledger
    (``stage_bytes``) so the staged/published/discarded conservation term
    still balances after the rollback.
    """

    path: str = "/Root/torn.bin"
    nbytes: int = 256

    def apply(self, ctx: ChaosContext) -> str:
        data = bytes(ctx.rng.randrange(256) for _ in range(self.nbytes))
        ctx.dfs.stage_bytes(staging_path("torn-writer", self.path), data)
        ctx.dfs.stage_bytes(self.path, data[: self.nbytes // 2])
        return f"planted torn-write debris at {self.path}"


class Nemesis:
    """``before_job`` hook that fires schedule events at their job index.

    Each event fires exactly once: a crash event consumed before raising does
    not re-fire when the driver resumes, and events scheduled for job indices
    the resumed (shorter) pipeline skips past still fire at the next launch.
    """

    def __init__(self, events: tuple[FaultEvent, ...], dfs: DFS, seed: int) -> None:
        self.pending = sorted(events, key=lambda e: e.at_job)
        self.ctx = ChaosContext(dfs=dfs, rng=random.Random(seed))
        self.jobs_seen = 0

    def __call__(self, conf: JobConf) -> None:
        index = self.jobs_seen
        self.jobs_seen += 1
        while self.pending and self.pending[0].at_job <= index:
            event = self.pending.pop(0)
            try:
                description = event.apply(self.ctx)
            except DriverCrashError:
                self.ctx.log.append(
                    f"before job {index} ({conf.name}): injected driver crash"
                )
                raise
            self.ctx.log.append(f"before job {index} ({conf.name}): {description}")


__all__ = [
    "ChaosContext",
    "CorruptReplicas",
    "CrashAtWrite",
    "CrashDriver",
    "DriverCrashError",
    "FaultEvent",
    "KillDatanode",
    "Nemesis",
    "ReviveDatanode",
    "TornWrite",
    "arm_crash",
]
