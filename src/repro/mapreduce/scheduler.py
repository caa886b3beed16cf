"""The pipeline's schedulable units and the two runners that execute them:
:func:`run_in_order` (the paper's barrier sequence, the degenerate schedule)
and the dependency-driven :class:`DataflowScheduler`.

The paper runs the recursion's ``2^d + 1`` jobs as a strictly
barrier-synchronized sequence; the block-level dataflow analyzer
(:mod:`repro.analysis.dataflow`) proves those barriers are not load-bearing —
every true dependency is a point-to-point block edge, and sibling LU subtrees
exchange no blocks at all (``DF001``).  :class:`DataflowScheduler` is the
runtime counterpart of that analysis: it consumes the same ground truth
(:meth:`~repro.analysis.model.PipelineModel.block_dag`) and launches each
pipeline unit the moment its DFS input blocks are *published* (sealed, per
the two-phase commit protocol) instead of when the previous step finishes.

Readiness is keyed on sealed blocks only:

* the scheduler registers a :attr:`~repro.dfs.filesystem.DFS.publish_listeners`
  hook, so a unit becomes ready exactly when the last of its input paths is
  atomically published — a downstream unit can never observe a pending
  (staged, unsealed) block, and a discarded speculative loser (whose staging
  is thrown away, never published) can never trigger readiness;
* combined with the master's per-task streaming publishes
  (:meth:`~repro.mapreduce.backends.ExecutionBackend.run_all`'s
  ``on_outcome``), a downstream unit whose inputs are a *subset* of an
  upstream job's outputs starts while the upstream job's unrelated
  partitions are still running.

Commit ordering stays deterministic: units publish their data blocks the
moment they finish (that is the whole point), but ``record.steps`` appends
and ``job:``/``phase:`` manifest writes are *deferred to plan order* by the
scheduler's flusher.  Manifests therefore form a plan-order prefix of the
completed work — a crash mid-schedule resumes exactly like a barrier-mode
crash, re-running (idempotently) anything published but not yet manifested.

The scheduler runs no analysis of its own: the driver's pre-flight
(:func:`repro.analysis.preflight_check`) has already linted the model whose
``unit_needs`` it is handed, including the rules whose violation would make
block-keyed scheduling unsound — ``DF002`` (write-before-read hazard),
``DF006`` (dependency cycle), ``DF007`` (generation-order violation).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..dfs.filesystem import DFS
from ..telemetry import spans as _spans


@dataclass
class UnitSpec:
    """One schedulable unit of the pipeline, in plan order.

    A unit is either a whole MapReduce job (its map and reduce phases —
    intra-job dataflow is the JobTracker's business) or one serial master
    phase.  ``run(wait_seconds)`` executes the unit and returns an opaque
    completion payload; ``commit(payload)`` appends the pipeline record
    entry and writes the manifest.  ``done`` marks units already committed
    by a previous run (resume): they are skipped entirely.  That is all
    :func:`run_in_order` uses.  :class:`DataflowScheduler` also reads
    ``needs``, the unit's external read set — every DFS path it reads that
    it does not write itself: ``run`` starts (on a unit thread) once all of
    it is published, ``commit`` waits for plan order, and a ``done`` unit's
    sealed outputs satisfy dependents via the initial scan.
    """

    name: str
    kind: str  # "job" | "phase" (also the prefix of the unit's manifest key)
    run: Callable[[float], Any]
    commit: Callable[[Any], None]
    needs: frozenset[str] = frozenset()
    done: bool = False


def run_in_order(units: list[UnitSpec]) -> None:
    """The barrier schedule: plan order, one unit in flight, each committed
    before the next starts (the paper's strictly synchronized sequence).
    Plan order satisfies every dependency, so no threads, no listeners, no
    readiness scan — and no need for the output-commit protocol."""
    for unit in units:
        if not unit.done:
            unit.commit(unit.run(0.0))


@dataclass
class SchedulerReport:
    """What one dataflow run actually did — the evidence for the tests.

    ``triggers[u]`` is the published path whose seal released unit ``u``
    (``""`` when the unit was ready at the initial scan — all inputs already
    on the DFS).  The dynamic dependency edges derived from it are the
    scheduler's observed counterpart of the static DAG's block edges.
    """

    launch_order: list[str] = field(default_factory=list)
    waits: dict[str, float] = field(default_factory=dict)
    triggers: dict[str, str] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)

    def dynamic_edges(self, dag) -> list[tuple[str, str]]:
        """Observed (producer stage → released unit) edges, launch order."""
        out: list[tuple[str, str]] = []
        for name in self.launch_order:
            path = self.triggers.get(name, "")
            if not path:
                continue
            producer = dag.producers.get(path)
            if producer is not None:
                out.append((producer, name))
        return out


class SchedulerStallError(RuntimeError):
    """No unit is ready or running yet the schedule is incomplete.

    Either the dependency structure has a cycle (the driver's pre-flight
    rejects one unless ``preflight=False``) or a unit depends on a path
    nothing publishes — the diagnostic lists every stuck unit with its
    missing blocks.
    """


class DataflowScheduler:
    """Launch pipeline units on block availability; commit in plan order.

    One scheduler drives one pipeline run.  The driving thread owns the
    launch loop and the plan-order flusher; each launched unit runs on its
    own thread (at most ``min(32, max(4, len(units)))`` at once), where the
    real parallelism comes from the execution backend underneath.  All
    shared state is guarded by ``_cond``; the publish listener and unit
    threads only flip state and notify — blocking work (unit execution,
    commits, joins) stays outside the lock.
    """

    def __init__(self, *, dfs: DFS, units: list[UnitSpec]) -> None:
        names = [u.name for u in units]
        if len(set(names)) != len(names):
            raise ValueError("unit names must be unique")
        self._dfs = dfs
        self._units = list(units)
        self._by_name = {u.name: u for u in units}
        self._plan_index = {u.name: i for i, u in enumerate(units)}
        self._max_inflight = min(32, max(4, len(units)))
        self._cond = threading.Condition()
        # -- state below is guarded-by: _cond --------------------------------
        self._needs_left: dict[str, set[str]] = {}  # guarded-by: _cond
        self._waiters: dict[str, set[str]] = {}  # guarded-by: _cond
        self._ready: deque[str] = deque()  # guarded-by: _cond
        self._ready_at: dict[str, float] = {}  # guarded-by: _cond
        self._running: set[str] = set()  # guarded-by: _cond
        self._completed: dict[str, Any] = {}  # guarded-by: _cond
        self._failures: list[tuple[int, BaseException]] = []  # guarded-by: _cond
        self._flush_idx = 0  # guarded-by: _cond
        # Resolved here, in the constructing (driving) thread, where the
        # run's ambient tracer is still visible — unit threads start with
        # fresh contextvars and could not resolve it themselves.
        self._tracer = _spans.current_tracer()
        self.report = SchedulerReport()

    # -- readiness -------------------------------------------------------------

    def _install_units(self) -> None:
        """Register every unit's full need set (before any exists probe)."""
        with self._cond:
            for unit in self._units:
                if unit.done:
                    self._completed[unit.name] = None
                    self.report.skipped.append(unit.name)
                    continue
                left = set(unit.needs)
                self._needs_left[unit.name] = left
                if not left:
                    self._mark_ready_locked(unit.name, trigger="")
                    continue
                for path in left:
                    self._waiters.setdefault(path, set()).add(unit.name)

    def _mark_ready_locked(self, name: str, trigger: str) -> None:
        self._ready.append(name)
        self._ready_at[name] = time.perf_counter()
        self.report.triggers[name] = trigger
        self._cond.notify_all()

    def _satisfy(self, path: str, *, initial: bool = False) -> None:
        """Mark ``path`` sealed; release any unit it was the last input of.

        ``initial`` distinguishes the startup exists-scan from live publish
        events: scan releases record an empty trigger (the input predated
        the schedule), so ``report.triggers`` only credits real dynamic
        edges.
        """
        with self._cond:
            for name in self._waiters.pop(path, ()):
                left = self._needs_left.get(name)
                if left is None:
                    continue
                left.discard(path)
                if not left:
                    del self._needs_left[name]
                    self._mark_ready_locked(
                        name, trigger="" if initial else path
                    )

    def _on_publish(self, paths: list[str]) -> None:
        """DFS publish listener — fires *after* the atomic seal, from
        whatever thread published.  Must not raise."""
        for path in paths:
            self._satisfy(path)

    # -- unit execution --------------------------------------------------------

    def _unit_thread(self, name: str, wait_seconds: float) -> None:
        # Unit threads start with fresh contextvars; activating the run's
        # tracer restores ambient span emission for the unit's own spans
        # and any work before them (before_job hooks, auto-repair).
        _spans.activate(self._tracer)
        unit = self._by_name[name]
        try:
            for path in sorted(unit.needs):
                # The invariant the whole design rests on: readiness was
                # keyed on publishes, so every input is sealed and visible
                # (dfs.exists excludes pending files by construction).
                if not self._dfs.exists(path):
                    raise SchedulerStallError(
                        f"scheduler invariant violated: unit {name!r} "
                        f"launched before input {path!r} was published"
                    )
            payload = unit.run(wait_seconds)
        except BaseException as exc:  # noqa: BLE001 - routed to the driver
            with self._cond:
                self._failures.append((self._plan_index[name], exc))
                self._running.discard(name)
                self._cond.notify_all()
            return
        with self._cond:
            self._completed[name] = payload
            self._running.discard(name)
            self._cond.notify_all()

    # -- plan-order flusher ----------------------------------------------------

    def _take_flushable_locked(self) -> list[tuple[UnitSpec, Any]]:
        """Advance the flush cursor over completed units, in plan order.

        Stops at the first unit that is not complete — so a failure (or a
        still-running sibling) freezes the manifest prefix exactly where
        barrier mode would have stopped.  Returns each unit with its
        completion payload, read here under the lock so the commit call
        itself can run outside it.
        """
        out: list[tuple[UnitSpec, Any]] = []
        while self._flush_idx < len(self._units):
            unit = self._units[self._flush_idx]
            if unit.name not in self._completed:
                break
            self._flush_idx += 1
            if not unit.done:  # resumed units are already durable
                out.append((unit, self._completed[unit.name]))
        return out

    # -- driving loop ----------------------------------------------------------

    def run(self) -> SchedulerReport:
        """Drive the schedule to completion; returns the achieved schedule.

        On unit failure: stop launching, let inflight units drain, flush
        the completed plan-order prefix, then re-raise the failure of the
        earliest unit in plan order (deterministic regardless of which
        thread lost the race).
        """
        self._dfs.publish_listeners.append(self._on_publish)
        threads: list[threading.Thread] = []
        try:
            self._install_units()
            # Initial scan — after listener registration, so a publish
            # racing the scan is delivered either way (both paths converge
            # on the idempotent _satisfy).
            needed = set()
            with self._cond:
                for left in self._needs_left.values():
                    needed |= left
            for path in sorted(needed):
                if self._dfs.exists(path):
                    self._satisfy(path, initial=True)

            while True:
                with self._cond:
                    to_launch: list[tuple[str, float]] = []
                    if not self._failures:
                        while (
                            self._ready
                            and len(self._running) < self._max_inflight
                        ):
                            name = self._ready.popleft()
                            self._running.add(name)
                            wait = time.perf_counter() - self._ready_at[name]
                            to_launch.append((name, wait))
                    to_flush = self._take_flushable_locked()
                    finished = self._flush_idx == len(self._units)
                    drained = not self._running and not to_launch
                    failed = bool(self._failures)
                    stalled = (
                        not failed
                        and not finished
                        and drained
                        and not to_flush
                        and not self._ready
                    )
                    if stalled:
                        raise SchedulerStallError(self._stall_diagnosis())
                for unit, payload in to_flush:
                    unit.commit(payload)
                for name, wait in to_launch:
                    self.report.launch_order.append(name)
                    self.report.waits[name] = wait
                    thread = threading.Thread(
                        target=self._unit_thread,
                        args=(name, wait),
                        name=f"repro-sched-{name}",
                        daemon=True,
                    )
                    threads.append(thread)
                    thread.start()
                if finished:
                    return self.report
                if failed and drained:
                    break
                with self._cond:
                    launchable = self._ready and not self._failures and (
                        len(self._running) < self._max_inflight
                    )
                    if (
                        self._running
                        and not launchable
                        and not self._flushable_now_locked()
                    ):
                        # Nothing actionable until a unit finishes; the
                        # timeout is a belt-and-braces hedge only.
                        self._cond.wait(timeout=0.5)  # lint: ignore[CN006]
        finally:
            # Whatever the exit path, the listener must not outlive the run
            # and no unit thread may still be mutating shared state.
            try:
                self._dfs.publish_listeners.remove(self._on_publish)
            except ValueError:  # pragma: no cover - already removed
                pass
            for thread in threads:
                thread.join()
        # Failure exit: every inflight unit has drained; raise the
        # plan-order-first failure so chaos runs are deterministic.
        with self._cond:
            index, exc = min(self._failures, key=lambda pair: pair[0])
        raise exc

    def _flushable_now_locked(self) -> bool:
        return (
            self._flush_idx < len(self._units)
            and self._units[self._flush_idx].name in self._completed
        )

    def _stall_diagnosis(self) -> str:
        # Only called from run()'s stall check, with _cond already held.
        stuck = {
            name: sorted(left)
            for name, left in self._needs_left.items()  # lint: ignore[CN001]
        }
        lines = [
            "dataflow schedule stalled: no unit ready, none running, "
            f"{len(stuck)} waiting"
        ]
        for name in sorted(stuck, key=lambda n: self._plan_index[n]):
            missing = ", ".join(stuck[name][:4])
            more = len(stuck[name]) - 4
            if more > 0:
                missing += f", ... +{more}"
            lines.append(f"  {name}: missing {missing}")
        return "\n".join(lines)


__all__ = [
    "DataflowScheduler",
    "SchedulerReport",
    "SchedulerStallError",
    "UnitSpec",
    "run_in_order",
]
