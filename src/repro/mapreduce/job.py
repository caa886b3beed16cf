"""Job configuration and the user-facing Mapper/Reducer programming model.

The programming model mirrors Hadoop's:

* a :class:`Mapper` consumes one :class:`~repro.mapreduce.types.InputSplit`
  and emits ``(key, value)`` pairs through its context;
* emitted pairs are hash-partitioned, sorted, optionally combined, and fed to
  a :class:`Reducer` as ``(key, [values...])`` groups;
* both sides may also perform side-effect I/O against the DFS through the
  context — the paper's jobs write their real output (matrix blocks) straight
  to HDFS and emit only small control pairs (Section 5.1, Figure 5).

Per-task resource usage (flops, bytes) is recorded on the context's
:class:`~repro.mapreduce.types.TaskTrace` so runs can be replayed on the
simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfs.commit import CommitScope

from ..dfs import formats
from ..dfs.filesystem import DFS
from .counters import (
    BYTES_READ,
    BYTES_WRITTEN,
    FILESYSTEM_GROUP,
    Counters,
)
from .retry import RetryPolicy
from .types import InputSplit, TaskAttemptId, TaskTrace


def default_partitioner(key: Any, num_partitions: int) -> int:
    """Hash partitioner; stable across processes (no PYTHONHASHSEED effects
    for the common key types used by the pipeline)."""
    if isinstance(key, (int, np.integer)):
        h = int(key)
    elif isinstance(key, str):
        h = sum((i + 1) * b for i, b in enumerate(key.encode("utf-8")))
    else:
        h = hash(key)
    return h % num_partitions


class AccountedIO:
    """DFS I/O with byte accounting and commit-scope routing.

    The one implementation behind a task attempt's :class:`TaskContext` and
    the master phases' :class:`~repro.inversion.driver.MasterIO`, so scope
    routing and cache accounting cannot drift apart between the two.
    Subclasses only say *where* the bytes are accounted
    (:meth:`_account_read` / :meth:`_account_write`).
    """

    def __init__(self, dfs: DFS, scope: "CommitScope | None" = None) -> None:
        self.dfs = dfs
        #: Two-phase output commit: when set, every write is staged under
        #: this scope's private ``/_tmp`` directory as a pending file, to be
        #: published (the winning attempt's, or the phase's) at commit.
        self.scope = scope

    def _account_read(self, nbytes: int) -> None:
        raise NotImplementedError

    def _account_write(self, nbytes: int) -> None:
        raise NotImplementedError

    def read_bytes(self, path: str) -> bytes:
        data = self.dfs.read_bytes(path)
        self._account_read(len(data))
        return data

    def write_bytes(self, path: str, data: bytes) -> None:
        if self.scope is not None:
            self.scope.stage_bytes(path, data)
        else:
            self.dfs.write_bytes(path, data)
        self._account_write(len(data))

    def read_text(self, path: str) -> str:
        data = self.read_bytes(path)
        return data.decode("utf-8")

    def write_text(self, path: str, text: str) -> None:
        self.write_bytes(path, text.encode("utf-8"))

    def read_matrix(self, path: str) -> np.ndarray:
        """Read a binary matrix file, served from the worker-shared decoded
        cache when one is attached to the DFS.

        Either way the caller is accounted the file's full logical size;
        only *physical* DFS traffic disappears on a hit.  The result is
        read-only — copy before mutating.
        """
        cache = self.dfs.cache
        if cache is None:
            return formats.decode_matrix(self.read_bytes(path))
        m, nbytes = cache.read_through(self.dfs, path)
        self.dfs.stats.record_cache_request(nbytes)
        self._account_read(nbytes)
        return m

    def write_matrix(self, path: str, matrix: np.ndarray) -> None:
        self.write_bytes(path, formats.encode_matrix(matrix))

    def read_rows(self, path: str, r1: int, r2: int) -> np.ndarray:
        m = formats.read_rows(self.dfs, path, r1, r2)
        self._account_read(m.nbytes)
        return m

    def list_dir(self, path: str) -> list[str]:
        return self.dfs.list_dir(path)

    def exists(self, path: str) -> bool:
        return self.dfs.exists(path)


class TaskContext(AccountedIO):
    """Execution context handed to mapper/reducer code.

    Wraps the shared DFS with per-task byte accounting (on the trace, added
    to the counters by :meth:`count_io` when the attempt ends) and carries
    the emit buffer, counters, and the job's parameter dictionary.
    """

    def __init__(
        self,
        dfs: DFS,
        attempt_id: TaskAttemptId,
        params: dict[str, Any],
        trace: TaskTrace,
        counters: Counters,
        scope: "CommitScope | None" = None,
    ) -> None:
        super().__init__(dfs, scope)
        self.attempt_id = attempt_id
        self.params = params
        self.trace = trace
        self.counters = counters
        self._emitted: list[tuple[Any, Any]] = []

    # -- emit ----------------------------------------------------------------

    def emit(self, key: Any, value: Any) -> None:
        self._emitted.append((key, value))

    @property
    def emitted(self) -> list[tuple[Any, Any]]:
        return self._emitted

    # -- counters ------------------------------------------------------------

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        self.counters.increment(group, name, amount)

    def report_flops(self, flops: float) -> None:
        """Declare floating-point work done outside the I/O helpers."""
        self.trace.flops += flops

    # -- accounting hooks of AccountedIO ----------------------------------------

    def _account_read(self, nbytes: int) -> None:
        self.trace.bytes_read += nbytes

    def _account_write(self, nbytes: int) -> None:
        self.trace.bytes_written += nbytes

    def count_io(self) -> None:
        """Add the attempt's traced bytes to its counters: once, when the
        attempt's code is done, not on every read and write."""
        for name, nbytes in ((BYTES_READ, self.trace.bytes_read),
                             (BYTES_WRITTEN, self.trace.bytes_written)):
            if nbytes:
                self.counters.increment(FILESYSTEM_GROUP, name, nbytes)


class Mapper:
    """Base mapper.  Override :meth:`map`, called once per input split."""

    def setup(self, ctx: TaskContext) -> None:  # noqa: B027 - intentional hook
        pass

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        raise NotImplementedError

    def cleanup(self, ctx: TaskContext) -> None:  # noqa: B027
        pass


class Reducer:
    """Base reducer.  Override :meth:`reduce`, called once per key group."""

    def setup(self, ctx: TaskContext) -> None:  # noqa: B027
        pass

    def reduce(self, ctx: TaskContext, key: Any, values: Iterable[Any]) -> None:
        raise NotImplementedError

    def cleanup(self, ctx: TaskContext) -> None:  # noqa: B027
        pass


@dataclass
class JobConf:
    """Everything needed to run one MapReduce job.

    ``mapper_factory``/``reducer_factory`` are zero-argument callables so each
    task attempt gets a fresh, state-free instance (Hadoop instantiates per
    task the same way).  ``params`` is the equivalent of Hadoop's job
    configuration key/value payload, available on every context.
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    splits: list[InputSplit]
    reducer_factory: Callable[[], Reducer] | None = None
    combiner_factory: Callable[[], Reducer] | None = None
    num_reduce_tasks: int = 1
    params: dict[str, Any] = field(default_factory=dict)
    #: Attempt budget, backoff and per-attempt deadline (:class:`RetryPolicy`);
    #: the default retries immediately, up to four attempts, with no
    #: deadline, as Hadoop does.
    retry: RetryPolicy = RetryPolicy()
    #: Two-phase output commit (on by default): task attempts stage their
    #: DFS writes under ``/_tmp/attempt-<id>/`` and the master atomically
    #: publishes only the winning attempt's files — crashed, losing, and
    #: zombie attempts never touch the final namespace.
    output_commit: bool = True

    def __post_init__(self) -> None:
        if not self.splits:
            raise ValueError(f"job {self.name!r} has no input splits")
        if self.reducer_factory is None:
            self.num_reduce_tasks = 0
        elif self.num_reduce_tasks < 1:
            raise ValueError("num_reduce_tasks must be >= 1 when a reducer is set")

    @property
    def is_map_only(self) -> bool:
        return self.reducer_factory is None


def splits_for_workers(num_workers: int) -> list[InputSplit]:
    """The paper's control-file inputs: split *i* carries integer *i*
    (Section 5.1), telling mapper *i* which role to play."""
    if num_workers < 1:
        raise ValueError("need at least one worker split")
    return [InputSplit(index=i, payload=i) for i in range(num_workers)]


@dataclass(frozen=True)
class TaskFactory:
    """A picklable zero-argument factory: ``cls`` bound to ``args``.

    The lambda-free replacement for ``lambda: SomeMapper(layout)`` in job
    confs — lambdas cannot cross the process boundary, so every pipeline
    factory uses this instead.  Instantiates a fresh object per call, same
    as Hadoop's per-task instantiation contract.
    """

    cls: type
    args: tuple = ()

    def __call__(self):
        return self.cls(*self.args)


class FnMapper(Mapper):
    """Adapter turning a plain function ``fn(ctx, split)`` into a Mapper."""

    def __init__(self, fn: Callable[[TaskContext, InputSplit], None]) -> None:
        self._fn = fn

    def map(self, ctx: TaskContext, split: InputSplit) -> None:
        self._fn(ctx, split)


class FnReducer(Reducer):
    """Adapter turning a plain function ``fn(ctx, key, values)`` into a Reducer."""

    def __init__(self, fn: Callable[[TaskContext, Any, Iterator[Any]], None]) -> None:
        self._fn = fn

    def reduce(self, ctx: TaskContext, key: Any, values: Iterable[Any]) -> None:
        self._fn(ctx, key, values)
