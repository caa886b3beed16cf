"""Outside-in tracing of ``repro``'s layers for the traced benchmark pass.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer` rebinds
the public functions named in :data:`TRACE_POINTS` to timing wrappers, the
benchmark runs one ``repro.invert``, and :meth:`LayerTracer.uninstall` puts
every original back.  Each call records one span (id, parent, row, function,
thread, start, end); a span's *self time* is its duration minus the durations
of its direct children, so every second of a thread is charged to exactly one
row and the rows sum to the time the wrapped calls covered.

Parents are tracked per thread.  Work a backend runs on another thread shows
up as root spans of that thread, and work in forked worker processes is
recorded into the child's copy of the span list and lost: the parent sees it
only as the self time of the backend's ``run_all``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

#: ``(module, attribute path, row)``: the row is ``<layer>.<name>`` and is
#: reported as ``<row>_s`` (summed self time) and ``<row>_calls``.  A dotted
#: attribute path names a method, rebound on its class.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    # repro.linalg -- BLAS/LAPACK kernels and the pivot bookkeeping
    ("repro.linalg.lu", "lu_decompose", "linalg.lu"),
    ("repro.linalg.triangular", "invert_lower_columns", "linalg.tri_inv"),
    ("repro.linalg.triangular", "invert_upper_rows", "linalg.tri_inv"),
    ("repro.linalg.triangular", "blocked_forward_substitute", "linalg.tri_solve"),
    ("repro.linalg.triangular", "blocked_back_substitute", "linalg.tri_solve"),
    ("repro.linalg.permutation", "identity", "linalg.perm"),
    ("repro.linalg.permutation", "is_permutation", "linalg.perm"),
    ("repro.linalg.permutation", "apply_rows", "linalg.perm"),
    ("repro.linalg.permutation", "apply_columns", "linalg.perm"),
    ("repro.linalg.permutation", "invert", "linalg.perm"),
    ("repro.linalg.permutation", "compose", "linalg.perm"),
    ("repro.linalg.permutation", "augment", "linalg.perm"),
    ("repro.linalg.permutation", "to_matrix", "linalg.perm"),
    # repro.dfs -- block store (CRC32), codec, namespace ops, commit, cache
    ("repro.dfs.blocks", "BlockStore.write_block", "dfs.block"),
    ("repro.dfs.blocks", "BlockStore.read_block", "dfs.block"),
    ("repro.dfs.formats", "encode_matrix", "dfs.codec"),
    ("repro.dfs.formats", "decode_matrix", "dfs.codec"),
    ("repro.dfs.filesystem", "DFS.read_bytes", "dfs.read"),
    ("repro.dfs.filesystem", "DFS.read_range", "dfs.read"),
    ("repro.dfs.filesystem", "DFS.write_bytes", "dfs.write"),
    ("repro.dfs.filesystem", "DFS.stage_bytes", "dfs.write"),
    ("repro.dfs.filesystem", "DFS.create", "dfs.write"),
    ("repro.dfs.filesystem", "DFS.publish", "dfs.commit"),
    ("repro.dfs.commit", "CommitScope.publish", "dfs.commit"),
    ("repro.dfs.commit", "CommitLog.record", "dfs.commit"),
    ("repro.dfs.filesystem", "DFS.exists", "dfs.meta"),
    ("repro.dfs.filesystem", "DFS.delete", "dfs.meta"),
    ("repro.dfs.filesystem", "DFS.glob", "dfs.meta"),
    ("repro.dfs.filesystem", "DFS.list_dir", "dfs.meta"),
    ("repro.dfs.filesystem", "DFS.discard_staging", "dfs.meta"),
    ("repro.dfs.cache", "BlockCache.read_through", "dfs.cache"),
    # repro.mapreduce -- runtime life cycle, backends, tracker, pipeline, shuffle
    ("repro.mapreduce.runtime", "MapReduceRuntime.__init__", "mapreduce.runtime_up"),
    ("repro.mapreduce.runtime", "MapReduceRuntime.shutdown", "mapreduce.runtime_down"),
    ("repro.mapreduce.backends", "SerialExecutor.run_all", "mapreduce.backend_wait"),
    ("repro.mapreduce.backends", "ThreadPoolBackend.run_all", "mapreduce.backend_wait"),
    ("repro.mapreduce.backends", "ProcessPoolBackend.run_all", "mapreduce.backend_wait"),
    ("repro.mapreduce.task", "run_map_attempt", "mapreduce.attempt"),
    ("repro.mapreduce.task", "run_reduce_attempt", "mapreduce.attempt"),
    ("repro.mapreduce.master", "JobTracker.run_job", "mapreduce.tracker"),
    ("repro.mapreduce.pipeline", "Pipeline.run_job", "mapreduce.pipeline"),
    ("repro.mapreduce.pipeline", "Pipeline.execute_job", "mapreduce.pipeline"),
    ("repro.mapreduce.pipeline", "Pipeline.commit_job", "mapreduce.pipeline"),
    ("repro.mapreduce.pipeline", "Pipeline.master_phase", "mapreduce.pipeline"),
    ("repro.mapreduce.pipeline", "Pipeline.execute_phase", "mapreduce.pipeline"),
    ("repro.mapreduce.pipeline", "Pipeline.commit_phase", "mapreduce.pipeline"),
    ("repro.mapreduce.shuffle", "partition_pairs", "mapreduce.shuffle"),
    ("repro.mapreduce.shuffle", "sort_and_group", "mapreduce.shuffle"),
    ("repro.mapreduce.shuffle", "run_combiner", "mapreduce.shuffle"),
    ("repro.mapreduce.shuffle", "shuffle_size_bytes", "mapreduce.shuffle"),
    ("repro.mapreduce.shuffle", "merge_map_outputs", "mapreduce.shuffle"),
    ("repro.mapreduce.scheduler", "DataflowScheduler.run", "mapreduce.scheduler"),
    # repro.inversion -- task bodies, factor assembly, the driver itself
    ("repro.inversion.lu_jobs", "PartitionMapper.map", "inversion.tasks_self"),
    ("repro.inversion.lu_jobs", "LUJobMapper.map", "inversion.tasks_self"),
    ("repro.inversion.lu_jobs", "LUJobReducer.reduce", "inversion.tasks_self"),
    ("repro.inversion.invert_job", "InvertMapper.map", "inversion.tasks_self"),
    ("repro.inversion.invert_job", "InvertReducer.reduce", "inversion.tasks_self"),
    ("repro.inversion.factors", "read_lower", "inversion.factors"),
    ("repro.inversion.factors", "read_upper", "inversion.factors"),
    ("repro.inversion.factors", "read_perm", "inversion.factors"),
    ("repro.inversion.factors", "write_leaf_factors", "inversion.factors"),
    ("repro.inversion.invert_job", "read_final_inverse", "inversion.assemble"),
    ("repro.inversion.driver", "MatrixInverter.invert", "inversion.driver"),
    # repro.analysis -- the static pre-flight every run pays
    ("repro.analysis", "preflight_check", "analysis.preflight"),
    ("repro.analysis.purity", "analyze_job", "analysis.preflight"),
)

ROWS: tuple[str, ...] = tuple(dict.fromkeys(row for _, _, row in TRACE_POINTS))


class Span(NamedTuple):
    sid: int
    parent: int | None
    row: str
    func: str
    thread: int
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on the parent's thread, one after another, so
    the time they cover is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


def row_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per row: summed self time and call count (every row present)."""
    table = {row: {"self_s": 0.0, "calls": 0} for row in ROWS}
    own = self_times(spans)
    for s in spans:
        cell = table[s.row]
        cell["self_s"] += own[s.sid]
        cell["calls"] += 1
    return table


def write_jsonl(spans: list[Span], path: str, run_id: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"run": run_id, **s._asdict()}) + "\n")


class LayerTracer:
    """Installs, collects from and removes the timing wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(namespace, key, original)`` for every binding replaced.
        self.patched: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn: Callable[..., Any], row: str, func: str) -> Callable[..., Any]:
        local = self._local
        ids = self._ids
        record = self.spans.append
        clock = time.perf_counter
        thread_id = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(Span(sid, parent, row, func, thread_id(), start, end))

        return traced

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name, _, _ in TRACE_POINTS]
        # The tree uses ``from x import f``: a function is rebound under every
        # name that holds it in any loaded repro module, found through this
        # index of object id -> [(module, name)].
        holders: dict[int, list[tuple[Any, str]]] = defaultdict(list)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "repro" or name.startswith("repro.")):
                for key, value in vars(module).items():
                    holders[id(value)].append((module, key))
        try:
            for module, (module_name, path, row) in zip(modules, TRACE_POINTS):
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                wrapper = self.wrap(original, row, f"{module_name}.{path}")
                # a method is rebound on the class that defines it
                sites = [(owner, attr)] if owner_name else holders[id(original)]
                for namespace, key in sites:
                    setattr(namespace, key, wrapper)
                    self.patched.append((namespace, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.patched:
            namespace, key, original = self.patched.pop()
            setattr(namespace, key, original)
