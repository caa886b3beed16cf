"""End-to-end driver: ``A -> A^-1`` through the MapReduce pipeline.

Implements the workflow of Section 5 / Figure 2:

1. the master writes the input matrix and the ``MapInput/A.<j>`` control
   files to the DFS;
2. one map-only job partitions the input (Algorithm 3);
3. the recursion of Algorithm 2 runs as an in-order walk of the precomputed
   plan tree — leaves are LU-decomposed *on the master* (Algorithm 1),
   internal nodes run one MapReduce job each for ``L2'``/``U2``/Schur;
4. a final job inverts the triangular factors and multiplies them;
5. the master assembles ``A^-1`` from the reducers' block files, applying the
   pivot column permutation.

Everything the run did — job results, master phases, I/O, flops — is captured
in an :class:`InversionResult` so experiments can replay it on the simulated
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..dfs import formats
from ..dfs.commit import STAGING_ROOT, CommitLog
from ..dfs.filesystem import DFS
from ..dfs.fsck import fsck
from ..dfs.iostats import IOSnapshot
from ..linalg import verify
from ..linalg.lu import SingularMatrixError, lu_decompose, lu_flop_count
from ..mapreduce import (
    DataflowScheduler,
    JobConf,
    MapReduceRuntime,
    Pipeline,
    PipelineRecord,
    SchedulerReport,
    UnitSpec,
    run_in_order,
)
from ..mapreduce.faults import FaultPolicy
from ..mapreduce.job import AccountedIO
from ..telemetry.spans import SpanKind, current_tracer
from .config import InversionConfig
from .factors import (
    assemble,
    combine_factors,
    read_lower_and_perm,
    read_upper,
    write_leaf_factors,
)
from .invert_job import invert_job, read_final_inverse
from .layout import Layout
from .lu_jobs import lu_job, partition_job
from .plan import InversionPlan, PlanNode

if TYPE_CHECKING:  # repro.analysis imports this package; annotation only
    from ..analysis.model import PipelineModel
    from ..dfs.commit import CommitScope


class MasterIO(AccountedIO):
    """DFS adapter for master-side phases with byte accounting.

    The same accounted reader/writer as a task context
    (:class:`~repro.mapreduce.job.AccountedIO`), so the recursive factor
    assembly and Region reads work unchanged on the master; the bytes
    accumulate here until the phase drains them (:meth:`take_io`).
    """

    def __init__(self, dfs: DFS) -> None:
        super().__init__(dfs)
        self.bytes_read = 0
        self.bytes_written = 0

    # -- two-phase commit scoping (driven by Pipeline.execute_phase) ---------

    def begin_phase(self, scope: CommitScope) -> None:
        """Route subsequent writes into the phase's staging scope."""
        self.scope = scope

    def end_phase(self) -> None:
        self.scope = None

    def take_io(self) -> tuple[int, int]:
        """Return and reset the accumulated (read, written) byte counts."""
        r, w = self.bytes_read, self.bytes_written
        self.bytes_read = 0
        self.bytes_written = 0
        return r, w

    def _account_read(self, nbytes: int) -> None:
        self.bytes_read += nbytes

    def _account_write(self, nbytes: int) -> None:
        self.bytes_written += nbytes


@dataclass
class InversionResult:
    """Outcome of one pipeline run."""

    inverse: np.ndarray
    plan: InversionPlan
    layout: Layout
    record: PipelineRecord
    config: InversionConfig
    io: IOSnapshot = field(default_factory=IOSnapshot)
    #: Achieved schedule of a dataflow-mode run; ``None`` for barrier mode.
    scheduler_report: SchedulerReport | None = None

    @property
    def num_jobs(self) -> int:
        """MapReduce jobs launched (Table 3's "Number of Jobs")."""
        return self.record.num_jobs

    def residual(self, a: np.ndarray) -> float:
        """Section 7.2's ``max |I - A A^-1|``."""
        return verify.identity_residual(a, self.inverse)

    def total_flops(self) -> float:
        task_flops = sum(t.flops for t in self.record.all_traces())
        master_flops = sum(p.flops for p in self.record.master_phases)
        return task_flops + master_flops


@dataclass
class LUFactors:
    """Assembled distributed LU factorization: ``P A = L U``."""

    lower: np.ndarray
    upper: np.ndarray
    perm: np.ndarray
    plan: InversionPlan
    record: PipelineRecord


class MatrixInverter:
    """Public API: invert (or LU-decompose) matrices on a MapReduce runtime.

    Every inverter builds and owns its :class:`MapReduceRuntime`, so
    ``config`` is the one route from an inversion to its runtime: the
    backend is ``config.executor`` and the pool width (and simulated node
    count) ``config.num_workers``, or ``config.m0`` — one slot per compute
    node — when that is ``None``.

    Parameters
    ----------
    config:
        Pipeline tunables (:class:`InversionConfig`).  Defaults match the
        paper's setup scaled down (nb=64, m0=4, all optimizations on).
    dfs:
        The cluster's file system; a fresh :class:`~repro.dfs.filesystem.DFS`
        when omitted.  Bring one to choose its datanodes, replication or
        fault hooks, or to resume on the cluster an earlier inverter ran on.
    fault_policy:
        Optional task-level fault injection for every job this inverter runs.
    """

    def __init__(
        self,
        config: InversionConfig | None = None,
        *,
        dfs: DFS | None = None,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        self.config = config or InversionConfig()
        self.runtime = MapReduceRuntime(
            dfs,
            executor=self.config.executor,
            num_workers=self.config.num_workers or self.config.m0,
            fault_policy=fault_policy,
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self.runtime.shutdown()

    def __enter__(self) -> "MatrixInverter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ---------------------------------------------------------------

    def _configure_cache(self) -> None:
        """Attach/detach the decoded-block cache per ``config.block_cache_bytes``.

        Detaching when 0 (rather than leaving a previously attached cache)
        guarantees runs configured for paper-faithful accounting — the
        Figure-7 / Table-1 harnesses — never serve a byte from memory.
        """
        dfs = self.runtime.dfs
        if self.config.block_cache_bytes:
            dfs.attach_cache(self.config.block_cache_bytes)
        else:
            dfs.detach_cache()

    def _prepare(
        self,
        n: int,
        phase_name: str,
        input_bytes: Callable[[], bytes],
        *,
        resume: bool = False,
    ) -> tuple[Layout, Pipeline, MasterIO, PipelineModel]:
        """Precompute the pipeline for order ``n`` and put its input on the
        DFS (Section 5.1, step 1: the master writes ``input_bytes()`` and the
        control files).

        The plan is statically validated by the :mod:`repro.analysis`
        pre-flight first (raises :class:`~repro.analysis.PreflightError` on
        defects).  The pre-flight's model comes back too: every unit's
        ``needs`` and retired files come from it.  It is the one model of
        this ``(n, config)`` in the process, shared with every other run of
        the pair, so nothing here changes it or its layout.
        """
        self._configure_cache()
        cfg = self.config
        from ..analysis import preflight_check

        model = preflight_check(n, cfg)
        layout = model.layout
        layout.plan.validate()
        dfs = self.runtime.dfs
        # The run's manifest log (``None`` with the protocol off).
        log = CommitLog(dfs, cfg.root) if cfg.output_commit else None
        pipeline = Pipeline(self.runtime, commit_log=log)
        master = MasterIO(dfs)
        if resume:
            # Roll back any debris the crashed run left — orphaned staging,
            # unsealed files, broken manifests — before trusting DFS state.
            self._resume_fsck(dfs)
            if dfs.exists(layout.input_path):
                # Resuming a previous run of the same matrix: keep the DFS
                # state and skip the ingestion phase entirely.
                stored = formats.matrix_shape(dfs, layout.input_path)
                if stored != (n, n):
                    raise ValueError(
                        f"cannot resume: stored input is {stored}, new "
                        f"input is {(n, n)}"
                    )
                return layout, pipeline, master, model
        if dfs.exists(cfg.root):
            dfs.delete(cfg.root, recursive=True)
        # A from-scratch run must not inherit staging debris (or stale
        # manifests — those lived under root and are gone with it).
        dfs.discard_staging(STAGING_ROOT)

        def write_inputs() -> None:
            master.write_bytes(layout.input_path, input_bytes())
            for j in range(cfg.m0):
                master.write_bytes(layout.map_input_path(j), str(j).encode())

        pipeline.master_phase(phase_name, write_inputs, io=master)
        return layout, pipeline, master, model

    def _resume_fsck(self, dfs: DFS) -> None:
        """Repairing consistency check run before any resume decision."""
        with current_tracer().span("resume-fsck", SpanKind.DFS_REPAIR) as span:
            report = fsck(dfs, root=self.config.root, repair=True)
            span.set(
                issues=len(report.issues),
                files_checked=report.files_checked,
                manifests_checked=report.manifests_checked,
            )

    # -- the one step list ---------------------------------------------------------

    def _leaf_lu(self, layout: Layout, node: PlanNode, master: MasterIO) -> None:
        """Algorithm 1 on the master: LU-decompose one leaf block."""
        nl = layout.of(node)
        # Single-leaf plan (n <= nb): no partition job ran, so the master
        # reads the input file directly.
        if node is layout.plan.tree:
            block = master.read_matrix(layout.input_path)
        else:
            block = nl.matrix.read(master)
        try:
            lu = lu_decompose(block)
        except SingularMatrixError as e:
            raise SingularMatrixError(f"leaf {node.dir} (global row offset {node.row0}): {e}") from e
        write_leaf_factors(master, nl, lu, transpose_u=self.config.transpose_u)

    def _units(
        self,
        model: PipelineModel,
        pipeline: Pipeline,
        parent_span,
        resume: bool,
        final: bool,
    ) -> list[UnitSpec]:
        """The pipeline's schedulable units, in plan order — emitted once,
        for whichever runner ``config.schedule`` selects.

        The units are the static model's (:meth:`PipelineModel.units`), so
        the pre-flight linted exactly what runs: one unit per MapReduce job
        (map+reduce grouped: intra-job dataflow is the JobTracker's business)
        and one per master phase — the partition job (Algorithm 3),
        Algorithm 2's leaf decompositions, ``lu`` jobs and, for the Section
        6.1 ablation, ``combine`` phases, and the inversion job, which
        ``final`` off (``lu()``) stops before.  The ingestion phase (already
        run by ``_prepare``) and ``collect-output`` (runs after the units)
        are not units.

        A unit's ``run``/``commit`` halves are :class:`Pipeline`'s
        ``execute_*``/``commit_*``.  Its ``done`` flag is its manifest:
        every intermediate a later step reads lives in the DFS until that
        step commits, so the pipeline resumes after a *driver* failure, and
        a step counts as done only if its commit point was reached — a crash
        between two files of a multi-file write can never masquerade as
        completion.  Unit spans hang off
        ``parent_span`` (unit threads do not inherit the ambient span) and,
        in dataflow mode only, carry the schedule attributes.

        From the static model each unit takes its ``needs`` (the dataflow
        runner's readiness set) and the files it retires: those outside the
        run's outcome it is the last to read or write in plan order
        (:meth:`~repro.analysis.model.PipelineModel.retirements`), which its
        commit lists in its manifest and then deletes.  A matrix is held
        only while an uncommitted step still reads it.
        """
        dataflow = self.config.schedule == "dataflow"
        layout = model.layout
        needs = model.unit_needs()
        retirements = model.retirements()

        def stamp(wait: float) -> dict[str, Any] | None:
            if not dataflow:
                return None
            return {"schedule": "dataflow", "sched_wait_seconds": round(wait, 6)}

        units: list[UnitSpec] = []

        def add(kind: str, name: str, run, commit) -> None:
            done = resume and pipeline.commit_log.committed(f"{kind}:{name}")
            retired = retirements.get(name, ())
            units.append(
                UnitSpec(
                    name=name,
                    kind=kind,
                    run=run,
                    commit=lambda payload: commit(payload, retired),
                    needs=needs[name],
                    done=done,
                )
            )

        def add_job(conf: JobConf) -> None:
            add(
                "job",
                conf.name,
                lambda wait: pipeline.execute_job(
                    conf, parent_span=parent_span, span_attrs=stamp(wait)
                ),
                lambda result, retired: pipeline.commit_job(
                    conf.name, result, retired
                ),
            )

        def add_phase(name: str, node: PlanNode, body, flops: float = 0.0) -> None:
            def run(wait: float) -> tuple:
                # Per-unit MasterIO: phase scoping and byte counters are
                # mutable per-phase state, unshareable across unit threads.
                master = MasterIO(self.runtime.dfs)
                _, phase, published = pipeline.execute_phase(
                    name,
                    lambda: body(layout, node, master),
                    flops=flops,
                    io=master,
                    parent_span=parent_span,
                    span_attrs=stamp(wait),
                )
                return phase, published

            add(
                "phase",
                name,
                run,
                lambda p, retired: pipeline.commit_phase(name, *p, retired),
            )

        for step in model.units():
            node = step.node
            if step.job == "partition":
                add_job(partition_job(layout))
            elif step.job == "invert-final":
                if final:
                    add_job(invert_job(layout))
            elif step.job:
                add_job(lu_job(layout, node))
            elif node.is_leaf:
                add_phase(step.name, node, self._leaf_lu, lu_flop_count(node.n))
            else:
                # Section 6.1 ablation: serial combine on the master.
                add_phase(step.name, node, _combine)
        return units

    def _run(
        self,
        span_name: str,
        n: int,
        ingest: tuple[str, Callable[[], bytes]],
        *,
        resume: bool = False,
        final: bool = True,
        span_attrs: dict[str, Any] | None = None,
    ) -> InversionResult | LUFactors:
        """The one execution path behind ``invert``/``invert_path``/``lu``.

        Opens the run span, ingests the input (``ingest`` is the ingestion
        phase's name and the input file's bytes), emits the unit list and
        hands it to the runner ``config.schedule`` names; then, still inside
        the span, reads the outcome back: ``A^-1`` and the run's I/O with
        ``final``, else the assembled ``P A = L U``.
        """
        cfg = self.config
        if resume and not cfg.output_commit:
            raise ValueError(
                "resume requires output_commit: a step counts as done only "
                "if its commit manifest was written"
            )
        dataflow = cfg.schedule == "dataflow"
        dfs = self.runtime.dfs
        before = dfs.stats.snapshot()
        # Resolved once, here in the driving thread; everything below gets
        # the tracer ambiently (same thread, or a unit thread the scheduler
        # activates it on) and its parent span explicitly.
        tracer = current_tracer()
        with tracer.span(span_name, SpanKind.RUN) as run_span:
            run_span.set(n=n, nb=cfg.nb, m0=cfg.m0, **(span_attrs or {}))
            if dataflow:
                run_span.set(schedule="dataflow")
            layout, pipeline, master, model = self._prepare(n, *ingest, resume=resume)
            units = self._units(model, pipeline, run_span, resume, final)
            report = None
            if dataflow:
                report = DataflowScheduler(dfs=dfs, units=units).run()
            else:
                run_in_order(units)
            if not final:
                tree = layout.plan.tree
                lower, perm = read_lower_and_perm(layout, tree, master)
                return LUFactors(
                    lower=assemble(lower),
                    upper=assemble(read_upper(layout, tree, master)),
                    perm=perm,
                    plan=layout.plan,
                    record=pipeline.record,
                )
            # Step 5: collect the final job's blocks into A^-1 (column
            # permutation by the pivot array S, Section 4.3).
            inverse = pipeline.master_phase(
                "collect-output",
                lambda: read_final_inverse(layout, master),
                io=master,
            )
        io = dfs.stats.snapshot() - before
        if tracer.enabled:
            tracer.metrics.absorb_iostats(io)
        return InversionResult(
            inverse=inverse,
            plan=layout.plan,
            layout=layout,
            record=pipeline.record,
            config=cfg,
            io=io,
            scheduler_report=report,
        )

    # -- public operations ---------------------------------------------------------

    def invert(self, a: np.ndarray, *, resume: bool = False) -> InversionResult:
        """Invert ``a`` through the full MapReduce pipeline.

        ``resume=True`` continues a previous run of the same matrix on this
        runtime's DFS (e.g. after a driver crash): steps whose commit
        manifest was written are skipped (requires ``output_commit``).

        With ``config.schedule="dataflow"`` the same steps run under the
        block-availability scheduler (:mod:`repro.mapreduce.scheduler`)
        instead of the paper's barrier sequence; results and DFS end-state
        are identical, completion order is not.
        """
        a = _as_square(a)
        return self._run(
            "invert",
            a.shape[0],
            ("write-input", lambda: formats.encode_matrix(a)),
            resume=resume,
            span_attrs={"resume": resume},
        )

    def distributed_residual(self, result: InversionResult) -> float:
        """Section 7.2's check as a MapReduce job: ``max |I - A A^-1|``
        computed from the DFS state of a completed run (the input file and
        the final job's block files must still be present on this runtime)."""
        from .verify_job import verify_job

        job = self.runtime.run_job(verify_job(result.layout))
        (_, value), = job.reduce_outputs[0]
        result.record.steps.append(job)
        return float(value)

    def invert_path(self, path: str) -> InversionResult:
        """Invert a matrix that already lives on this runtime's DFS (binary
        format) — the Section 1 deployment story where "the input matrix to
        be inverted would be generated by a MapReduce job and stored in
        HDFS".  No driver-side ingestion: the file is copied into the work
        directory (HDFS has no hardlinks; a rename would destroy the
        caller's file) and the pipeline reads it where it lies.
        """
        dfs = self.runtime.dfs
        rows, cols = formats.matrix_shape(dfs, path)
        if rows != cols:
            raise ValueError(f"matrix at {path} is {rows}x{cols}, not square")
        return self._run(
            "invert-path",
            rows,
            ("link-input", lambda: dfs.read_bytes(path)),
            span_attrs={"path": path},
        )

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``A X = B``: invert ``A`` through the pipeline, then apply
        the assembled inverse on the driver (Section 1's linear-system
        application — invert once, serve many right-hand sides)."""
        a = _as_square(a)
        b = np.asarray(b, dtype=np.float64)
        one_d = b.ndim == 1
        if one_d:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError(
                f"rhs has shape {b.shape}, matrix is {a.shape[0]}x{a.shape[0]}"
            )
        # Checked before the inversion: a NaN/inf right-hand side would pay
        # for every job and come back as NaNs.
        _require_finite(b, "rhs")
        x = self.invert(a).inverse @ b
        return x[:, 0] if one_d else x

    def lu(self, a: np.ndarray) -> LUFactors:
        """Run only the LU stage and assemble ``P A = L U``."""
        a = _as_square(a)
        return self._run(
            "lu",
            a.shape[0],
            ("write-input", lambda: formats.encode_matrix(a)),
            final=False,
        )


def _combine(layout: Layout, node: PlanNode, master: MasterIO) -> None:
    combine_factors(layout, node, master, master)


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    # A NaN/inf entry would flow through every job and come back as a NaN
    # "inverse"; reject it before anything is written to the DFS.
    _require_finite(a, "matrix")
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        row, col = (int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(
            f"{what} has a non-finite entry {a[row, col]!r} at "
            f"(row {row}, col {col}); every entry must be finite"
        )


def invert(
    a: np.ndarray,
    config: InversionConfig | None = None,
) -> InversionResult:
    """One-call convenience: invert ``a`` on a fresh runtime."""
    with MatrixInverter(config) as inverter:
        return inverter.invert(a)
