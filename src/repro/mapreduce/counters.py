"""Hierarchical job counters, mirroring Hadoop's counter groups.

Counters are the engine's public accounting surface: the framework maintains
the ``FileSystemCounters`` and ``TaskCounters`` groups, and user map/reduce
code can increment arbitrary custom counters through its context.
"""

from __future__ import annotations

import threading
from collections import defaultdict

# Framework counter groups / names (subset of Hadoop's, same semantics).
FILESYSTEM_GROUP = "FileSystemCounters"
TASK_GROUP = "TaskCounters"

BYTES_READ = "BYTES_READ"
BYTES_WRITTEN = "BYTES_WRITTEN"
MAP_OUTPUT_RECORDS = "MAP_OUTPUT_RECORDS"
COMBINE_INPUT_RECORDS = "COMBINE_INPUT_RECORDS"
COMBINE_OUTPUT_RECORDS = "COMBINE_OUTPUT_RECORDS"
REDUCE_INPUT_RECORDS = "REDUCE_INPUT_RECORDS"
REDUCE_INPUT_GROUPS = "REDUCE_INPUT_GROUPS"
REDUCE_OUTPUT_RECORDS = "REDUCE_OUTPUT_RECORDS"
SHUFFLE_BYTES = "SHUFFLE_BYTES"
LAUNCHED_MAPS = "LAUNCHED_MAPS"
LAUNCHED_REDUCES = "LAUNCHED_REDUCES"
FAILED_MAPS = "FAILED_MAPS"
FAILED_REDUCES = "FAILED_REDUCES"
TIMED_OUT_MAPS = "TIMED_OUT_MAPS"
TIMED_OUT_REDUCES = "TIMED_OUT_REDUCES"


class Counters:
    """Thread-safe two-level counter map: group -> name -> int."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._groups: dict[str, dict[str, int]] = defaultdict(  # guarded-by: _lock
            lambda: defaultdict(int)
        )

    def __getstate__(self) -> dict[str, dict[str, int]]:
        """Pickle as a plain nested dict: the lock (unpicklable) and the
        defaultdict factories are reconstructed on load, so counter objects
        can cross the process boundary in task results."""
        return self.as_dict()

    def __setstate__(self, state: dict[str, dict[str, int]]) -> None:
        self.__init__()
        with self._lock:
            for group, names in state.items():
                for name, value in names.items():
                    self._groups[group][name] = value

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        with self._lock:
            self._groups[group][name] += amount

    def value(self, group: str, name: str) -> int:
        with self._lock:
            return self._groups.get(group, {}).get(name, 0)

    def group(self, group: str) -> dict[str, int]:
        with self._lock:
            return dict(self._groups.get(group, {}))

    def merge(self, other: "Counters") -> None:
        with other._lock:
            items = [
                (g, n, v)
                for g, names in other._groups.items()
                for n, v in names.items()
            ]
        for g, n, v in items:
            self.increment(g, n, v)

    def as_dict(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {g: dict(names) for g, names in self._groups.items()}

    def format(self) -> str:
        """Hadoop-style human-readable dump."""
        lines: list[str] = []
        for group in sorted(self.as_dict()):
            lines.append(group)
            for name, value in sorted(self.group(group).items()):
                lines.append(f"    {name}={value}")
        return "\n".join(lines)
