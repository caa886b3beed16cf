"""DFS health monitoring: detect and repair replication damage.

HDFS's namenode continuously tracks block reports and, when a datanode dies,
schedules re-replication of every block the node held; corrupt replicas found
by reads or the background scrubber are invalidated and replaced the same
way.  The seed engine had the *mechanism* (``BlockStore.rereplicate``) but no
*monitor* — nothing invoked it automatically, so a datanode death silently
eroded replication until reads started failing.

:class:`HealthMonitor` closes that gap:

* :meth:`HealthMonitor.scan` walks the namespace and classifies every block's
  replicas (healthy / dead node / missing payload / corrupt);
* :meth:`HealthMonitor.repair` scrubs corrupt replicas and drives
  :meth:`~repro.dfs.blocks.BlockStore.rereplicate` to convergence, looping
  until no block is under-replicated or no further progress is possible.
  Blocks with no surviving healthy source are reported as unrecoverable, not
  raised — a half-repaired cluster is still better than an aborted repair
  (the read path raises for the specific block when it is actually needed).

Repair traffic is surfaced through the existing
:class:`~repro.dfs.iostats.IOStats` plumbing (``repair_copies``,
``corrupt_replicas_dropped``, plus the copied bytes in
``bytes_written``/``bytes_transferred``).

:class:`~repro.mapreduce.runtime.MapReduceRuntime` runs a repair pass
automatically before each job whenever the cluster topology changed since the
last check, which is what lets the chaos
campaigns kill datanodes mid-pipeline and still finish with full replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .blocks import BlockInfo, BlockMissingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .filesystem import DFS


@dataclass(frozen=True)
class HealthReport:
    """Outcome of one namespace scan."""

    blocks_total: int
    under_replicated: int
    corrupt_replicas: int
    dead_replicas: int
    missing_replicas: int
    unreadable_blocks: tuple[str, ...] = ()

    @property
    def healthy(self) -> bool:
        return self.under_replicated == 0 and not self.unreadable_blocks


@dataclass
class RepairReport:
    """Outcome of one repair pass (possibly several convergence rounds)."""

    rounds: int = 0
    copies_made: int = 0
    bytes_copied: int = 0
    corrupt_replicas_dropped: int = 0
    #: blocks with no healthy source replica left; repair cannot recover
    #: them and reads will raise :class:`~repro.dfs.blocks.BlockMissingError`.
    unrecoverable: list[str] = field(default_factory=list)

    @property
    def fully_repaired(self) -> bool:
        return not self.unrecoverable

    def merge(self, other: "RepairReport") -> None:
        self.rounds += other.rounds
        self.copies_made += other.copies_made
        self.bytes_copied += other.bytes_copied
        self.corrupt_replicas_dropped += other.corrupt_replicas_dropped
        self.unrecoverable.extend(
            b for b in other.unrecoverable if b not in self.unrecoverable
        )


class HealthMonitor:
    """Scans a DFS for replication damage and repairs it to convergence."""

    def __init__(self, dfs: "DFS") -> None:
        self.dfs = dfs

    def _all_blocks(self) -> list[BlockInfo]:
        namenode = self.dfs.namenode
        return [
            info
            for path in namenode.walk_files("/")
            for info in namenode.get_file(path).blocks
        ]

    def scan(self) -> HealthReport:
        """Classify every block's replicas without mutating anything."""
        blocks = self.dfs.blocks
        target_cap = sum(dn.alive for dn in blocks.datanodes)
        total = under = corrupt = dead = missing = 0
        unreadable: list[str] = []
        for info in self._all_blocks():
            total += 1
            statuses = blocks.replica_status(info)
            healthy = sum(1 for _, s in statuses if s == "healthy")
            corrupt += sum(1 for _, s in statuses if s == "corrupt")
            dead += sum(1 for _, s in statuses if s == "dead")
            missing += sum(1 for _, s in statuses if s == "missing")
            if healthy < min(blocks.replication, target_cap):
                under += 1
            if healthy == 0:
                unreadable.append(str(info.block_id))
        return HealthReport(
            blocks_total=total,
            under_replicated=under,
            corrupt_replicas=corrupt,
            dead_replicas=dead,
            missing_replicas=missing,
            unreadable_blocks=tuple(unreadable),
        )

    def repair(self, max_rounds: int = 8) -> RepairReport:
        """Scrub corrupt replicas and re-replicate until convergence.

        Each round drops corrupt replicas and re-replicates every block that
        is below target; rounds repeat while progress is being made (a revive
        mid-repair, or repair freeing a slot, can unlock further copies) up
        to ``max_rounds``.  Never raises for individual blocks: unrecoverable
        ones are listed on the report.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        from ..telemetry.spans import SpanKind, current_tracer

        with current_tracer().span("dfs-repair", SpanKind.DFS_REPAIR) as span:
            report = self._repair(max_rounds)
            span.set(
                rounds=report.rounds,
                copies_made=report.copies_made,
                bytes_copied=report.bytes_copied,
                corrupt_replicas_dropped=report.corrupt_replicas_dropped,
                unrecoverable=len(report.unrecoverable),
            )
            return report

    def _repair(self, max_rounds: int) -> RepairReport:
        blocks = self.dfs.blocks
        report = RepairReport()
        for _ in range(max_rounds):
            report.rounds += 1
            round_copies = 0
            round_dropped = 0
            round_bytes = 0
            unrecoverable: list[str] = []
            for info in self._all_blocks():
                round_dropped += blocks.drop_corrupt_replicas(info)
                try:
                    made = blocks.rereplicate(info)
                except BlockMissingError:
                    unrecoverable.append(str(info.block_id))
                    continue
                round_copies += made
                round_bytes += made * info.length
            report.copies_made += round_copies
            report.corrupt_replicas_dropped += round_dropped
            report.bytes_copied += round_bytes
            report.unrecoverable = unrecoverable
            if round_copies:
                self.dfs.stats.record_repair(copies=round_copies, nbytes=round_bytes)
            if round_dropped:
                self.dfs.stats.record_repair(corrupt_dropped=round_dropped)
            if round_copies == 0 and round_dropped == 0:
                break
        return report


__all__ = ["HealthMonitor", "HealthReport", "RepairReport"]
