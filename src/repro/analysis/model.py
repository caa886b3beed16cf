"""Static dataflow model of the inversion pipeline.

Section 5's structural claim — "the number of jobs in the pipeline and the
data movement between the jobs can be precisely determined before the start
of the computation" — means the *entire* read/write set of every step is a
pure function of ``(n, config)``.  :func:`build_model` computes it: the
step sequence of a run (master input write, partition job, in-order LU walk
with master-side leaf decompositions, final inversion job, master output
collection), with each MapReduce job split into its map and reduce phases so
that intra-job dataflow (mappers write ``L2``/``U2``, reducers read them) is
modeled too.

Nothing here touches a runtime or a DFS.  The model is the one description
of the pipeline: :mod:`repro.analysis.planlint` validates its dataflow ahead
of execution, the driver schedules its units
(:meth:`PipelineModel.units`), and tests corrupt a model (drop a write,
break the grid) and assert the linter catches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dfs.commit import manifest_path
from ..inversion.config import InversionConfig
from ..inversion.factors import (
    factor_read_paths,
    lower_read_paths,
    perm_read_paths,
    upper_read_paths,
)
from ..inversion.layout import Layout
from ..inversion.plan import InversionPlan, PlanNode


@dataclass
class StepModel:
    """One step of the predefined pipeline with its full DFS read/write set.

    ``kind`` is ``"master"`` for serial master-node phases, ``"map"`` /
    ``"reduce"`` for the two phases of a MapReduce job; ``job`` names the
    job a map/reduce phase belongs to (``None`` for master phases), so the
    model's job count is ``len({s.job for s in steps if s.job})``.
    ``node`` is the plan node the step runs on: the internal node of an
    ``lu`` job, the leaf of a ``master-lu`` phase, the node a ``combine``
    phase combines; ``None`` for the steps that span the whole pipeline.
    """

    name: str
    kind: str
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    job: str | None = None
    node: PlanNode | None = None

    @property
    def unit(self) -> str:
        """The schedulable unit this step belongs to: its job, or itself."""
        return self.job or self.name


@dataclass
class PipelineModel:
    """The precomputed pipeline of one inversion, ready for linting.

    Mutable by design: tests corrupt a model — remove a write, change
    :attr:`grid` — and assert the linter reports the seeded defect.
    """

    config: InversionConfig
    plan: InversionPlan
    layout: Layout
    grid: tuple[int, int]
    steps: list[StepModel]
    #: Commit manifests the driver writes under ``<root>/_commit/`` (one per
    #: job and per master phase) when the two-phase output commit is on.
    #: Kept out of :attr:`steps` — manifests are control metadata written by
    #: the commit protocol, not dataflow any step may read.
    manifest_writes: set[str] = field(default_factory=set)

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def job_names(self) -> list[str]:
        """Distinct job names in launch order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            if step.job is not None:
                seen.setdefault(step.job, None)
        return list(seen)

    @property
    def job_count(self) -> int:
        return len(self.job_names)

    def all_writes(self) -> set[str]:
        out: set[str] = set(self.manifest_writes)
        for step in self.steps:
            out |= step.writes
        return out

    def find_step(self, name: str) -> StepModel:
        for step in self.steps:
            if step.name == name:
                return step
        raise KeyError(name)

    def units(self) -> list[StepModel]:
        """The units a driver schedules, in plan order, each as its first
        step: every job (by its map step) and every master phase but
        ``write-input`` (the ingestion before them) and ``collect-output``
        (the read-back after them).  The driver runs exactly this list, so
        the pre-flight lints the steps that run."""
        seen: set[str] = {"write-input", "collect-output"}
        out: list[StepModel] = []
        for step in self.steps:
            if step.unit not in seen:
                seen.add(step.unit)
                out.append(step)
        return out

    def _unit_io(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Each unit's reads and writes, by unit name in plan order: a unit
        is one master phase or one whole job (map and reduce steps merge)."""
        reads: dict[str, set[str]] = {}
        writes: dict[str, set[str]] = {}
        for step in self.steps:
            reads.setdefault(step.unit, set()).update(step.reads)
            writes.setdefault(step.unit, set()).update(step.writes)
        return reads, writes

    def unit_needs(self) -> dict[str, frozenset[str]]:
        """Each unit's external read set: every path its steps read and do
        not write themselves."""
        reads, writes = self._unit_io()
        return {unit: frozenset(reads[unit] - writes[unit]) for unit in reads}

    def outcome(self) -> frozenset[str]:
        """The files a run keeps: the input and the ``MapInput`` control
        files (the verify job reads them) and what ``collect-output`` reads:
        ``FINAL/*`` and the perm files."""
        keep = {self.layout.input_path} | _control_paths(self.layout)
        return frozenset(keep | self.find_step("collect-output").reads)

    def retirements(self) -> dict[str, tuple[str, ...]]:
        """Per unit, the paths outside :meth:`outcome` it is the last to
        read or write in plan order — dead once it has committed.  Both
        runners commit in plan order, so under either every other reader has
        committed before it.  The final job retires its own ``INV/*`` files
        and the factors; a run without it (``lu``) keeps them."""
        keep = self.outcome()
        reads, writes = self._unit_io()
        last: dict[str, str] = {}
        for unit in reads:  # plan order
            for path in (reads[unit] | writes[unit]) - keep:
                last[path] = unit
        retired: dict[str, list[str]] = {}
        for path, unit in last.items():
            retired.setdefault(unit, []).append(path)
        return {unit: tuple(sorted(paths)) for unit, paths in retired.items()}

    def block_dag(self):
        """The block-granularity dependency DAG over this pipeline's steps
        (:class:`repro.analysis.dataflow.BlockDAG`) — every DFS block write
        edged to every step that reads it.  This is the public structure a
        dataflow scheduler consumes instead of the barrier schedule."""
        from .dataflow import build_block_dag

        return build_block_dag(self)


def _control_paths(layout: Layout) -> set[str]:
    """Section 5.1's ``MapInput/A.<j>`` control files (read by every job)."""
    return {layout.map_input_path(j) for j in range(layout.config.m0)}


def _invert_writes(layout: Layout) -> tuple[set[str], set[str]]:
    """(mapper writes, reducer writes) of the final inversion job."""
    from ..inversion.invert_job import reducer_indices

    cfg = layout.config
    n = layout.plan.tree.n
    map_writes = {layout.inv_l_path(j) for j in range(cfg.mhalf)} | {
        layout.inv_u_path(i) for i in range(cfg.m0 - cfg.mhalf)
    }
    reduce_writes: set[str] = set()
    for p in range(cfg.m0):
        rows, cols = reducer_indices(layout, p, n)
        if rows.size and cols.size:
            reduce_writes.add(layout.final_path(p))
    return map_writes, reduce_writes


def _decompose_steps(
    layout: Layout, node: PlanNode, steps: list[StepModel]
) -> None:
    """Algorithm 2 as an in-order walk of the plan tree: a ``master-lu``
    phase per leaf (LU-decomposed on the master), an ``lu`` job per internal
    node between its two subtrees and, for the Section 6.1 ablation
    (``separate_files`` off), a ``combine`` phase after them.  The one walk:
    the driver runs these steps (:meth:`PipelineModel.units`)."""
    cfg = layout.config
    nl = layout.of(node)
    if node.is_leaf:
        if node is layout.plan.tree:
            # Single-leaf plan: no partition job ran; the master reads the
            # input file directly.
            reads = {layout.input_path}
        else:
            assert nl.matrix is not None
            reads = set(nl.matrix.file_paths())
        steps.append(
            StepModel(
                name=f"master-lu:{node.dir}",
                kind="master",
                reads=reads,
                writes={nl.l_path, nl.u_path, nl.p_path},
                node=node,
            )
        )
        return

    assert node.child1 is not None and node.child2 is not None
    assert nl.a2 is not None and nl.a3 is not None and nl.a4 is not None
    assert nl.l2 is not None and nl.u2 is not None and nl.out is not None
    _decompose_steps(layout, node.child1, steps)
    job = f"lu:{node.dir}"
    # Map phase (Figure 5): L-side mappers solve L2' U1 = A3 reading U1 and
    # A3; U-side mappers solve L1 U2 = P1 A2 reading L1, P1, and A2.
    steps.append(
        StepModel(
            name=f"{job}[map]",
            kind="map",
            job=job,
            node=node,
            reads=(
                _control_paths(layout)
                | factor_read_paths(layout, node.child1)
                | set(nl.a3.file_paths())
                | set(nl.a2.file_paths())
            ),
            writes=set(nl.l2.file_paths()) | set(nl.u2.file_paths()),
        )
    )
    # Reduce phase: each reducer's block-wrap cell of B = A4 - L2' U2.
    steps.append(
        StepModel(
            name=f"{job}[reduce]",
            kind="reduce",
            job=job,
            node=node,
            reads=(
                set(nl.l2.file_paths())
                | set(nl.u2.file_paths())
                | set(nl.a4.file_paths())
            ),
            writes=set(nl.out.file_paths()),
        )
    )
    _decompose_steps(layout, node.child2, steps)

    if not cfg.separate_files:
        # Section 6.1 ablation: the master serially combines the factors.
        steps.append(
            StepModel(
                name=f"combine:{node.dir}",
                kind="master",
                reads=(
                    factor_read_paths(layout, node.child1)
                    | set(nl.l2.file_paths())
                    | set(nl.u2.file_paths())
                    | factor_read_paths(layout, node.child2)
                ),
                writes={nl.l_path, nl.u_path, nl.p_path},
                node=node,
            )
        )


def build_model(
    n: int, config: InversionConfig | None = None
) -> PipelineModel:
    """Compute the full pipeline model for an order-``n`` inversion.

    Pure precomputation — the steps :meth:`MatrixInverter.invert` runs,
    with no runtime, no DFS, and no matrix data.
    """
    cfg = config or InversionConfig()
    if n < 1 or cfg.nb < 1:
        raise ValueError("n and nb must be >= 1")
    plan = InversionPlan(n=n, nb=cfg.nb, m0=cfg.m0, root=cfg.root)
    layout = Layout(plan, cfg, n)
    tree = plan.tree
    steps: list[StepModel] = []

    # Step 1 (Section 5.1): the master writes the input and control files.
    steps.append(
        StepModel(
            name="write-input",
            kind="master",
            writes={layout.input_path} | _control_paths(layout),
        )
    )

    # Step 2 (Algorithm 3): the map-only partition job.
    if not tree.is_leaf:
        partition_writes: set[str] = set()
        for node in tree.input_nodes():
            nl = layout.of(node)
            if node.is_leaf:
                assert nl.matrix is not None
                partition_writes |= set(nl.matrix.file_paths())
            else:
                assert nl.a2 is not None and nl.a3 is not None
                assert nl.a4 is not None
                partition_writes |= set(nl.a2.file_paths())
                partition_writes |= set(nl.a3.file_paths())
                partition_writes |= set(nl.a4.file_paths())
        steps.append(
            StepModel(
                name="partition[map]",
                kind="map",
                job="partition",
                reads={layout.input_path} | _control_paths(layout),
                writes=partition_writes,
            )
        )

    # Step 3 (Algorithm 2): the LU recursion.
    _decompose_steps(layout, tree, steps)

    # Step 4 (Section 5.4): the final inversion job.
    map_writes, reduce_writes = _invert_writes(layout)
    steps.append(
        StepModel(
            name="invert-final[map]",
            kind="map",
            job="invert-final",
            reads=(
                _control_paths(layout)
                | lower_read_paths(layout, tree)
                | upper_read_paths(layout, tree)
            ),
            writes=map_writes,
        )
    )
    steps.append(
        StepModel(
            name="invert-final[reduce]",
            kind="reduce",
            job="invert-final",
            reads=set(map_writes),
            writes=reduce_writes,
        )
    )

    # Step 5: the master assembles A^-1 (pivot permutation applied).
    steps.append(
        StepModel(
            name="collect-output",
            kind="master",
            reads=set(reduce_writes) | perm_read_paths(layout, tree),
        )
    )

    # Commit manifests: one per master phase and one per job, written by
    # the commit protocol when the two-phase output commit is on.  The
    # driver names its units and phases after these steps, so the
    # manifests derived from them are the ones it writes.
    manifest_writes: set[str] = set()
    if cfg.output_commit:
        manifest_steps = [
            f"phase:{s.name}" for s in steps if s.kind == "master"
        ] + [f"job:{name}" for name in plan.job_schedule()]
        manifest_writes = {
            manifest_path(cfg.root, step) for step in manifest_steps
        }

    return PipelineModel(
        config=cfg,
        plan=plan,
        layout=layout,
        grid=cfg.grid,
        steps=steps,
        manifest_writes=manifest_writes,
    )
