"""The chaos campaign: full inversions under fault schedules, with invariants.

For each :class:`~repro.chaos.schedule.FaultSchedule` the runner builds a
fresh simulated cluster, arms the schedule's nemesis and task faults, runs a
complete matrix inversion (resuming once if the schedule crashes the driver),
and then checks four end-to-end invariants:

``correctness``
    ``max |I - A·A⁻¹|`` is within tolerance and the result matches
    ``numpy.linalg.inv`` — faults may slow the pipeline down, never change
    its answer.
``job-accounting``
    The executed job sequence matches the static plan: exactly ``2^d + 1``
    jobs in the planned order (Table 3).  After a driver crash the re-run
    skips completed jobs, so the check relaxes to "the planned set, each at
    most twice, nothing unplanned".
``replication``
    Every surviving block converges back to full health — no
    under-replicated blocks, no corrupt replicas — once the
    :class:`~repro.dfs.health.HealthMonitor` has run.
``no-orphans``
    The files under the work root are exactly the live set: every file the
    static pipeline model (:func:`repro.analysis.build_model`) predicts,
    less those a committed manifest retires — crashes and retries leave no
    stray intermediates behind, and no dead one outlives its last reader.

The invariants are deliberately external: they consult the static model and
numpy, never the engine's own bookkeeping, so an engine bug cannot vouch for
itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..analysis import build_model
from ..dfs.filesystem import DFS
from ..dfs.fsck import fsck, orphaned_blocks, sound_manifests
from ..inversion.config import InversionConfig
from ..inversion.driver import InversionResult, MatrixInverter
from ..mapreduce.master import JobFailedError
from ..mapreduce.runtime import MapReduceRuntime
from ..telemetry.api import observe
from .events import DriverCrashError, Nemesis, arm_crash
from .schedule import FaultSchedule, builtin_schedules

#: ``max |I - A·A⁻¹|`` bound for the campaign's well-conditioned inputs.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class InvariantResult:
    """One checked invariant: name, verdict, and evidence either way."""

    name: str
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class ScheduleOutcome:
    """Everything one schedule's run produced."""

    schedule: str
    description: str
    invariants: list[InvariantResult] = field(default_factory=list)
    error: str | None = None
    #: Telemetry trace of the run (every campaign run is traced), and — when
    #: the error was a permanent job failure — the span of the failed job.
    trace_id: str | None = None
    error_span_id: str | None = None
    crashed_and_resumed: bool = False
    events_log: list[str] = field(default_factory=list)
    jobs_run: int = 0
    attempts_failed: int = 0
    attempts_timed_out: int = 0
    backoff_seconds: float = 0.0
    repair_copies: int = 0
    corrupt_dropped: int = 0
    blacklisted_nodes: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and all(inv.ok for inv in self.invariants)

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule,
            "description": self.description,
            "ok": self.ok,
            "error": self.error,
            "trace_id": self.trace_id,
            "error_span_id": self.error_span_id,
            "crashed_and_resumed": self.crashed_and_resumed,
            "invariants": [inv.to_dict() for inv in self.invariants],
            "events": list(self.events_log),
            "jobs_run": self.jobs_run,
            "attempts_failed": self.attempts_failed,
            "attempts_timed_out": self.attempts_timed_out,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "repair_copies": self.repair_copies,
            "corrupt_replicas_dropped": self.corrupt_dropped,
            "blacklisted_nodes": self.blacklisted_nodes,
            "wall_seconds": round(self.wall_seconds, 3),
        }


@dataclass
class CampaignReport:
    """Outcome of a full battery under one seed."""

    seed: int
    n: int
    nb: int
    m0: int
    outcomes: list[ScheduleOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "nb": self.nb,
            "m0": self.m0,
            "ok": self.ok,
            "schedules": [o.to_dict() for o in self.outcomes],
        }


def campaign_matrix(n: int, seed: int) -> np.ndarray:
    """A seeded, well-conditioned test input: random entries plus a dominant
    diagonal, so ``RESIDUAL_TOL`` is meaningful at every campaign size."""
    rng = np.random.RandomState(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n)


def _check_correctness(
    a: np.ndarray, result: InversionResult
) -> InvariantResult:
    residual = result.residual(a)
    matches = np.allclose(result.inverse, np.linalg.inv(a), atol=1e-8)
    ok = bool(residual <= RESIDUAL_TOL and matches)
    return InvariantResult(
        name="correctness",
        ok=ok,
        detail=(
            f"max|I - A·A⁻¹| = {residual:.3e} (tol {RESIDUAL_TOL:.0e}), "
            f"allclose(numpy.linalg.inv) = {matches}"
        ),
    )


def _check_job_accounting(
    runtime: MapReduceRuntime,
    result: InversionResult,
    crashed: bool,
) -> InvariantResult:
    planned = result.plan.job_schedule()
    if not crashed:
        executed = [job.name for job in result.record.job_results]
        ok = executed == planned
        return InvariantResult(
            name="job-accounting",
            ok=ok,
            detail=(
                f"{len(executed)} jobs = 2^d + 1 = {len(planned)}, "
                f"sequence {'matches' if ok else 'DIVERGES from'} the plan"
            ),
        )
    # Across crash + resume: runtime.history spans both runs.  Completed
    # jobs are skipped on resume, so each planned job runs once or twice
    # (twice only if the crash landed after launch but before completion
    # was recorded) and nothing off-plan ever runs.
    executed = [job.name for job in runtime.history]
    unplanned = sorted(set(executed) - set(planned))
    missing = sorted(set(planned) - set(executed))
    overrun = sorted(name for name in set(executed) if executed.count(name) > 2)
    ok = not (unplanned or missing or overrun)
    return InvariantResult(
        name="job-accounting",
        ok=ok,
        detail=(
            f"crash+resume ran {len(executed)} launches covering "
            f"{len(set(executed))}/{len(planned)} planned jobs"
            + (f"; unplanned={unplanned}" if unplanned else "")
            + (f"; missing={missing}" if missing else "")
            + (f"; >2 runs: {overrun}" if overrun else "")
        ),
    )


def _check_replication(dfs: DFS) -> InvariantResult:
    repair = dfs.health_monitor().repair()
    report = dfs.health_monitor().scan()
    ok = bool(
        report.under_replicated == 0
        and report.corrupt_replicas == 0
        and not repair.unrecoverable
    )
    return InvariantResult(
        name="replication",
        ok=ok,
        detail=(
            f"{report.blocks_total} blocks: {report.under_replicated} "
            f"under-replicated, {report.corrupt_replicas} corrupt replicas, "
            f"{len(repair.unrecoverable)} unrecoverable"
        ),
    )


def _check_no_orphans(dfs: DFS, config: InversionConfig, n: int) -> InvariantResult:
    model = build_model(n, config)
    predicted = model.all_writes()
    sound, _ = sound_manifests(dfs, config.root)
    retired = {path for _, paths in sound.values() for path in paths}
    actual = set(dfs.list_files(config.root))
    orphans = sorted(actual - predicted)
    undead = sorted(actual & retired)
    # Data files only: resume keys ingestion on the input file, so a crash
    # between its publish and its manifest leaves that manifest unwritten.
    missing = sorted(predicted - model.manifest_writes - retired - actual)
    problems = [
        f"{len(paths)} {what}: {paths[:5]}"
        for what, paths in (
            ("orphan file(s)", orphans),
            ("retired file(s) still present", undead),
            ("live file(s) missing", missing),
            ("orphaned block(s)", [str(info.block_id) for info in orphaned_blocks(dfs)]),
        )
        if paths
    ]
    return InvariantResult(
        name="no-orphans",
        ok=not problems,
        detail=(
            "; ".join(problems)
            or f"{len(actual)} files under {config.root}: exactly the "
            f"predicted set less {len(retired)} retired, no orphaned block"
        ),
    )


def run_schedule(
    schedule: FaultSchedule,
    *,
    seed: int = 0,
    n: int = 48,
    nb: int = 16,
    m0: int = 4,
    num_datanodes: int = 5,
    replication: int = 3,
    executor: str = "serial",
    scheduler: str = "barrier",
) -> ScheduleOutcome:
    """Run one full inversion under ``schedule`` and check every invariant.

    ``scheduler`` selects the inter-job scheduling mode ("barrier" or
    "dataflow") — the invariants must hold identically under both.
    """
    outcome = ScheduleOutcome(schedule=schedule.name, description=schedule.description)
    start = time.perf_counter()

    a = campaign_matrix(n, seed)
    dfs = DFS(num_datanodes=num_datanodes, replication=replication, seed=seed)
    config = InversionConfig(
        nb=nb, m0=m0, retry=schedule.retry, schedule=scheduler, executor=executor
    )
    inverter = MatrixInverter(
        config, dfs=dfs, fault_policy=schedule.make_task_faults(seed)
    )
    runtime = inverter.runtime
    nemesis = Nemesis(schedule.events, dfs, seed)
    # The nemesis legitimately holds the DFS handle: before_job hooks run
    # driver-side (the master process), never inside a worker, so the handle
    # does not cross a process boundary.
    runtime.before_job.append(nemesis)  # lint: ignore[PS002]
    # Deterministic trace ID: same schedule + seed must reproduce the same
    # outcome dict bit-for-bit (the campaign's determinism invariant).
    observation = observe(trace_id=f"chaos-{schedule.name}-seed{seed}")
    outcome.trace_id = observation.trace_id

    try:
        # One observation around the run and its resume, so both share one
        # trace tree.
        with observation:
            try:
                result = inverter.invert(a)
            except DriverCrashError:
                # The old driver is dead; a new one resumes from DFS state.
                outcome.crashed_and_resumed = True
                result = inverter.invert(a, resume=True)
    except Exception as exc:  # noqa: BLE001 - campaign reports, never raises
        outcome.error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, JobFailedError):
            outcome.error_span_id = exc.job_span_id
    else:
        outcome.invariants = [
            _check_correctness(a, result),
            _check_job_accounting(runtime, result, outcome.crashed_and_resumed),
            _check_replication(dfs),
            _check_no_orphans(dfs, config, n),
        ]
        outcome.jobs_run = len(runtime.history)
        outcome.attempts_failed = sum(j.attempts_failed for j in runtime.history)
        outcome.attempts_timed_out = sum(
            j.attempts_timed_out for j in runtime.history
        )
        outcome.backoff_seconds = sum(j.backoff_seconds for j in runtime.history)
        outcome.repair_copies = sum(r.copies_made for r in runtime.repair_log)
        outcome.corrupt_dropped = sum(
            r.corrupt_replicas_dropped for r in runtime.repair_log
        )
        outcome.blacklisted_nodes = len(runtime.node_health.blacklisted_nodes())
    finally:
        outcome.events_log = list(nemesis.ctx.log)
        outcome.wall_seconds = time.perf_counter() - start
        inverter.close()
    return outcome


def run_campaign(
    *,
    seed: int = 0,
    n: int = 48,
    nb: int = 16,
    m0: int = 4,
    schedules: tuple[FaultSchedule, ...] | None = None,
    executor: str = "serial",
    scheduler: str = "barrier",
) -> CampaignReport:
    """Run the full battery (or a custom one) and collect every outcome."""
    report = CampaignReport(seed=seed, n=n, nb=nb, m0=m0)
    for schedule in schedules if schedules is not None else builtin_schedules(seed):
        report.outcomes.append(
            run_schedule(
                schedule,
                seed=seed,
                n=n,
                nb=nb,
                m0=m0,
                executor=executor,
                scheduler=scheduler,
            )
        )
    return report


# -- exhaustive crash-point sweep --------------------------------------------
#
# The schedule battery crashes the driver at a handful of hand-picked spots.
# The sweep is the systematic version: enumerate *every* DFS create and
# publish a small clean run performs, then re-run the whole inversion once
# per point with a one-shot crash armed at exactly that operation, resume,
# and require the same end state every time.  If the two-phase commit has a
# window — a file visible before its seal, a step marked done before its
# outputs — some point in this sweep lands inside it.


@dataclass(frozen=True)
class CrashPoint:
    """One write/publish operation observed in the clean baseline run."""

    index: int
    op: str
    path: str

    def to_dict(self) -> dict:
        return {"index": self.index, "op": self.op, "path": self.path}


@dataclass
class CrashPointOutcome:
    """Verdict for one crash point: crash, resume, and every check after."""

    point: CrashPoint
    ok: bool
    crashed: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            **self.point.to_dict(),
            "ok": self.ok,
            "crashed": self.crashed,
            "detail": self.detail,
        }


@dataclass
class SweepReport:
    """Outcome of the full crash-point sweep under one seed."""

    seed: int
    n: int
    nb: int
    m0: int
    outcomes: list[CrashPointOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    @property
    def num_points(self) -> int:
        return len(self.outcomes)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "nb": self.nb,
            "m0": self.m0,
            "ok": self.ok,
            "num_points": self.num_points,
            "points": [o.to_dict() for o in self.outcomes],
        }

    def format(self) -> str:
        lines = [
            f"crash-point sweep: n={self.n} nb={self.nb} m0={self.m0} "
            f"seed={self.seed} — {self.num_points} points"
        ]
        for o in self.outcomes:
            mark = "ok" if o.ok else "FAIL"
            lines.append(
                f"  [{mark}] #{o.point.index:3d} {o.point.op:7s} "
                f"{o.point.path}: {o.detail}"
            )
        lines.append(f"sweep {'PASSED' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _sweep_cluster(
    config: InversionConfig, seed: int, num_datanodes: int, replication: int
) -> tuple[DFS, MatrixInverter]:
    """A fresh cluster and an inverter on it."""
    dfs = DFS(num_datanodes=num_datanodes, replication=replication, seed=seed)
    return dfs, MatrixInverter(config, dfs=dfs)


def _run_crash_point(
    point: CrashPoint,
    a: np.ndarray,
    config: InversionConfig,
    *,
    seed: int,
    n: int,
    num_datanodes: int,
    replication: int,
) -> CrashPointOutcome:
    """Fresh cluster, crash armed at ``point``, invert + resume, full audit."""
    dfs, inverter = _sweep_cluster(config, seed, num_datanodes, replication)
    arm_crash(dfs, point.index)
    crashed = False
    try:
        try:
            result = inverter.invert(a)
        except DriverCrashError:
            crashed = True
            result = inverter.invert(a, resume=True)
    except Exception as exc:  # noqa: BLE001 - the sweep reports, never raises
        return CrashPointOutcome(
            point=point,
            ok=False,
            crashed=crashed,
            detail=f"{type(exc).__name__}: {exc}",
        )
    finally:
        inverter.close()

    checks = [
        _check_correctness(a, result),
        _check_job_accounting(inverter.runtime, result, crashed),
        _check_no_orphans(dfs, config, n),
    ]
    audit = fsck(dfs, root=config.root, repair=False)
    checks.append(
        InvariantResult(
            name="fsck-clean",
            ok=audit.clean,
            detail=(
                f"{len(audit.issues)} issue(s)"
                if not audit.clean
                else f"{audit.files_checked} files clean"
            ),
        )
    )
    failed = [c for c in checks if not c.ok]
    if not crashed:
        # Every enumerated point comes from the deterministic baseline run,
        # so an armed crash that never fires means the replay diverged.
        return CrashPointOutcome(
            point=point, ok=False, crashed=False, detail="armed crash never fired"
        )
    if failed:
        detail = "; ".join(f"{c.name}: {c.detail}" for c in failed)
        return CrashPointOutcome(point=point, ok=False, crashed=True, detail=detail)
    return CrashPointOutcome(
        point=point,
        ok=True,
        crashed=True,
        detail="crashed, resumed, all invariants hold",
    )


def run_crash_point_sweep(
    *,
    seed: int = 0,
    n: int = 8,
    nb: int = 2,
    m0: int = 2,
    num_datanodes: int = 3,
    replication: int = 2,
    scheduler: str = "barrier",
) -> SweepReport:
    """Crash the driver at every write/publish point of a small run.

    Phase 1 runs a clean inversion with a recording hook to enumerate every
    DFS ``create`` and ``publish`` the workflow performs.  Phase 2 replays
    the inversion once per enumerated operation on a fresh cluster, with a
    one-shot :class:`DriverCrashError` armed at exactly that operation,
    resumes, and checks correctness, ``2^d + 1`` job accounting across
    crash + resume, the static-model no-orphans invariant, and a clean
    read-only :func:`~repro.dfs.fsck.fsck` audit.
    """
    a = campaign_matrix(n, seed)
    config = InversionConfig(nb=nb, m0=m0, schedule=scheduler)

    points: list[CrashPoint] = []
    dfs, inverter = _sweep_cluster(config, seed, num_datanodes, replication)

    def record_hook(op: str, path: str) -> None:
        points.append(CrashPoint(index=len(points), op=op, path=path))

    dfs.fault_hooks.append(record_hook)
    try:
        baseline = inverter.invert(a)
    finally:
        inverter.close()
    if baseline.residual(a) > RESIDUAL_TOL:
        raise RuntimeError(
            "crash-point sweep baseline run is not numerically clean; "
            "fix the geometry before sweeping"
        )

    report = SweepReport(seed=seed, n=n, nb=nb, m0=m0)
    for point in points:
        report.outcomes.append(
            _run_crash_point(
                point,
                a,
                config,
                seed=seed,
                n=n,
                num_datanodes=num_datanodes,
                replication=replication,
            )
        )
    return report


__all__ = [
    "RESIDUAL_TOL",
    "CampaignReport",
    "CrashPoint",
    "CrashPointOutcome",
    "InvariantResult",
    "ScheduleOutcome",
    "SweepReport",
    "campaign_matrix",
    "run_campaign",
    "run_crash_point_sweep",
    "run_schedule",
]
