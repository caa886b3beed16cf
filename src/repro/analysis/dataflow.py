"""Block-granularity dataflow DAG and the ``DF0xx`` rule family.

The pipeline model (:mod:`repro.analysis.model`) knows every DFS path each
step reads and writes.  This module turns those sets into the structure the
ROADMAP's "kill the inter-job barrier" item needs: a producer→consumer DAG
over *blocks* — every DFS file write, edged to every step that reads it —
so barrier removal becomes a checked property instead of a leap of faith.

What the DAG proves about the paper's schedule (Section 5 runs the
``2^d + 1`` jobs as a barrier-synchronized sequence):

* **The recursion is a dependency chain.**  The in-order job walk of
  Algorithm 2 is exactly the data-dependency order: every stage consumes
  the immediately preceding stage's output (child1 factors feed the node's
  job, the node's Schur complement feeds child2), so the static critical
  path threads through *all* stages.  No reordering of stages can shorten
  the pipeline — the slack is elsewhere:
* **Every global barrier is replaceable by its block edges.**  A barrier
  makes stage ``k`` wait for *everything* before it; the DAG shows each
  stage needs only its direct producers' blocks.  The critical path costs
  ``stages - 1`` point-to-point edges, strictly shorter than the barrier
  schedule's ``stages + (stages - 1)`` global synchronization points — a
  DAG scheduler keeps the stages and deletes every barrier.
* **Sibling LU subtrees exchange no blocks.**  For every internal tree
  node, the two child subtrees have zero direct edges between their step
  groups — all coupling flows through the parent's LU job — so the
  schedule-order barrier between the sibling groups carries no dataflow of
  its own (rule ``DF001`` reports each such pair).

Rules (catalog in :mod:`repro.analysis.findings`):

========  ========================================================
``DF001``  false barrier between sibling LU subtrees (info)
``DF002``  cross-stage write-before-read hazard (error)
``DF003``  dead block: written, never read, never published (warning)
``DF004``  redundant same-stage read of an own write (warning)
``DF005``  critical-path / barrier-slack summary (info)
``DF006``  cycle in the block dependency DAG (error)
``DF007``  generation-order violation inside one job (error)
``DF008``  observed read edge missing from the static DAG (error)
========  ========================================================

The DAG is the one replay of the step sequence: the plan rules
PL003–PL005 (:mod:`repro.analysis.planlint`) read its ``late_reads``,
``writers`` and ``consumers`` too.

``DF008`` is the static-vs-dynamic cross-check: :func:`replay_spans`
replays a telemetry span export (``repro trace --jsonl``) against the DAG
and flags any DFS read the model did not predict — the gate that makes the
model trustworthy enough to drive a scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..dfs.commit import COMMIT_DIR, STAGING_ROOT
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..inversion.plan import PlanNode
    from ..telemetry.spans import Span
    from .model import PipelineModel

#: Cap on the paths quoted per aggregated finding — keeps a corrupt model
#: from flooding the report while still naming concrete evidence.
_MAX_PATHS_QUOTED = 3


def _quote_paths(paths: Iterable[str]) -> str:
    ordered = sorted(paths)
    shown = ", ".join(ordered[:_MAX_PATHS_QUOTED])
    extra = len(ordered) - _MAX_PATHS_QUOTED
    return shown if extra <= 0 else f"{shown} (+{extra} more)"


@dataclass(frozen=True)
class BlockEdge:
    """All blocks flowing from one producing step to one consuming step."""

    src: str
    dst: str
    paths: tuple[str, ...]


#: Depth-first colours of :meth:`BlockDAG.find_cycle`.
_WHITE, _GREY, _BLACK = 0, 1, 2


def _cycle_from(
    node: str,
    successors: dict[str, set[str]],
    color: dict[str, int],
    parent: dict[str, str],
) -> list[str] | None:
    """Depth-first search from ``node`` for a back edge; the cycle it
    closes as ``[a, b, ..., a]``.  Module level, not a closure in
    ``find_cycle``: a nested function that calls itself is a reference cycle
    through its own cell."""
    color[node] = _GREY
    for succ in sorted(successors.get(node, ())):
        if color.get(succ, _WHITE) == _GREY:
            cycle = [succ, node]
            cur = node
            while cur != succ:
                cur = parent[cur]
                cycle.append(cur)
            return list(reversed(cycle))
        if color.get(succ, _WHITE) == _WHITE:
            parent[succ] = node
            found = _cycle_from(succ, successors, color, parent)
            if found:
                return found
    color[node] = _BLACK
    return None


@dataclass
class BlockDAG:
    """The block-granularity dependency DAG of one pipeline.

    Nodes are the model's steps (one per barrier stage, in schedule order);
    an edge ``src → dst`` exists for every DFS path ``src`` writes and
    ``dst`` reads.  Exposed as :meth:`PipelineModel.block_dag` — the public
    API a dataflow scheduler consumes instead of the barrier schedule.
    """

    #: Step names in barrier-schedule order (one stage per step).
    stages: list[str]
    #: path -> name of the earliest step that writes it.
    producers: dict[str, str]
    #: path -> names of every step that writes it, in stage order (more
    #: than one breaks Section 5.2's single-writer rule).
    writers: dict[str, list[str]]
    #: path -> names of the steps that read it, in stage order.
    consumers: dict[str, list[str]]
    #: step -> names of the steps producing its reads (direct dependencies).
    deps: dict[str, set[str]]
    #: step -> {path: producer} for each read no earlier stage writes: the
    #: producer is ``None`` (nothing writes it), the step itself, or a step
    #: at a later stage.  Empty for a well-formed pipeline.
    late_reads: dict[str, dict[str, str | None]]
    #: Paths read by some step but written by none (external inputs; empty
    #: for a well-formed pipeline — the master writes the input file too).
    external_reads: set[str]
    #: step -> parallel task slots inside the stage (m0 for job phases,
    #: 1 for master phases).
    task_counts: dict[str, int]
    _stage_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._stage_index:
            self._stage_index = {name: i for i, name in enumerate(self.stages)}

    # -- structure queries -------------------------------------------------------

    def stage_of(self, step: str) -> int:
        return self._stage_index[step]

    def edges(self) -> list[BlockEdge]:
        """Aggregated producer→consumer edges in stage order."""
        grouped: dict[tuple[str, str], set[str]] = {}
        for path, src in self.producers.items():
            for dst in self.consumers.get(path, []):
                if dst != src:
                    grouped.setdefault((src, dst), set()).add(path)
        return [
            BlockEdge(src=src, dst=dst, paths=tuple(sorted(paths)))
            for (src, dst), paths in sorted(
                grouped.items(),
                key=lambda kv: (
                    self._stage_index.get(kv[0][0], -1),
                    self._stage_index.get(kv[0][1], -1),
                ),
            )
        ]

    def edge_paths(self, src: str, dst: str) -> set[str]:
        """Blocks flowing from ``src`` to ``dst`` (empty set if no edge)."""
        return {
            path
            for path, producer in self.producers.items()
            if producer == src and dst in self.consumers.get(path, [])
        }

    def forward_deps(self, step: str) -> set[str]:
        """Direct producers of ``step`` that run at an earlier stage — the
        schedule-consistent subgraph ASAP/critical-path analysis uses (a
        corrupted model's backward edges are DF002's business, not ours)."""
        mine = self._stage_index[step]
        return {
            d
            for d in self.deps.get(step, set())
            if self._stage_index.get(d, mine) < mine
        }

    # -- schedule analysis -------------------------------------------------------

    def asap(self) -> dict[str, int]:
        """Earliest stage each step could run at with barriers replaced by
        block edges: ``asap(s) = 1 + max(asap of producers)``."""
        levels: dict[str, int] = {}
        for name in self.stages:  # stage order topologically sorts fwd edges
            producer_levels = [levels[d] for d in self.forward_deps(name)]
            levels[name] = 1 + max(producer_levels, default=-1)
        return levels

    def critical_path(self) -> list[str]:
        """One longest dependency chain, as step names in stage order."""
        levels = self.asap()
        best: str | None = None
        for name in self.stages:
            if best is None or levels[name] > levels[best]:
                best = name
        if best is None:
            return []
        chain = [best]
        while True:
            prevs = self.forward_deps(chain[-1])
            if not prevs:
                break
            chain.append(max(prevs, key=lambda d: (levels[d], -self._stage_index[d])))
        return list(reversed(chain))

    def max_width(self) -> int:
        """Most task slots runnable concurrently under the ASAP leveling."""
        levels = self.asap()
        width: dict[int, int] = {}
        for name, level in levels.items():
            width[level] = width.get(level, 0) + self.task_counts.get(name, 1)
        return max(width.values(), default=0)

    def find_cycle(self) -> list[str] | None:
        """One dependency cycle as ``[a, b, ..., a]``, or ``None``."""
        color = {name: _WHITE for name in self.stages}
        parent: dict[str, str] = {}
        successors = self._successors()
        for name in self.stages:
            if color[name] == _WHITE:
                found = _cycle_from(name, successors, color, parent)
                if found:
                    return found
        return None

    def _successors(self) -> dict[str, set[str]]:
        succ: dict[str, set[str]] = {}
        for step, producers in self.deps.items():
            for p in producers:
                succ.setdefault(p, set()).add(step)
        return succ


def build_block_dag(model: "PipelineModel") -> BlockDAG:
    """Derive the block DAG from a pipeline model's read/write sets — the
    one replay of the step sequence the PL and DF rules both read."""
    stages = [step.name for step in model.steps]
    stage = {name: i for i, name in enumerate(stages)}
    writers: dict[str, list[str]] = {}
    for step in model.steps:
        for path in step.writes:
            writers.setdefault(path, []).append(step.name)
    producers = {path: names[0] for path, names in writers.items()}
    consumers: dict[str, list[str]] = {}
    deps: dict[str, set[str]] = {name: set() for name in stages}
    late_reads: dict[str, dict[str, str | None]] = {}
    for i, step in enumerate(model.steps):
        for path in sorted(step.reads):
            consumers.setdefault(path, []).append(step.name)
            producer = producers.get(path)
            if producer is None or stage[producer] >= i:
                late_reads.setdefault(step.name, {})[path] = producer
            if producer is not None and producer != step.name:
                deps[step.name].add(producer)
    return BlockDAG(
        stages=stages,
        producers=producers,
        writers=writers,
        consumers=consumers,
        deps=deps,
        late_reads=late_reads,
        external_reads={p for p in consumers if p not in producers},
        task_counts={
            step.name: 1 if step.kind == "master" else model.config.m0
            for step in model.steps
        },
    )


# -- sibling-subtree independence (DF001) ------------------------------------------


@dataclass(frozen=True)
class SiblingReport:
    """Block coupling between the two child subtrees of one internal node."""

    #: Directory of the internal node whose children are compared.
    parent_dir: str
    #: The LU job mediating all coupling between the subtrees.
    parent_job: str
    #: Tree depth of the sibling subtree roots (root children are depth 1).
    depth: int
    child1_dir: str
    child2_dir: str
    #: Steps of each subtree group, in stage order.
    child1_steps: tuple[str, ...]
    child2_steps: tuple[str, ...]
    #: Direct block edges crossing between the groups (either direction).
    cross_edges: tuple[BlockEdge, ...]

    @property
    def independent(self) -> bool:
        return not self.cross_edges


def _step_dir(name: str) -> str | None:
    """The tree directory a step name refers to, if any."""
    for prefix in ("master-lu:", "combine:"):
        if name.startswith(prefix):
            return name[len(prefix):]
    if name.startswith("lu:"):
        return name[len("lu:"):].split("[", 1)[0]
    return None


def _subtree_steps(dag: BlockDAG, root_dir: str) -> tuple[str, ...]:
    out = []
    for name in dag.stages:
        d = _step_dir(name)
        if d is not None and (d == root_dir or d.startswith(root_dir + "/")):
            out.append(name)
    return tuple(out)


def sibling_reports(model: "PipelineModel", dag: BlockDAG | None = None) -> list[SiblingReport]:
    """One report per internal tree node: do its child subtrees exchange
    blocks directly, or only through the node's own LU job?"""
    dag = dag or build_block_dag(model)
    reports: list[SiblingReport] = []

    def visit(node: "PlanNode", depth: int) -> None:
        if node.is_leaf:
            return
        assert node.child1 is not None and node.child2 is not None
        group1 = _subtree_steps(dag, node.child1.dir)
        group2 = _subtree_steps(dag, node.child2.dir)
        in1, in2 = set(group1), set(group2)
        cross = tuple(
            edge
            for edge in dag.edges()
            if (edge.src in in1 and edge.dst in in2)
            or (edge.src in in2 and edge.dst in in1)
        )
        reports.append(
            SiblingReport(
                parent_dir=node.dir,
                parent_job=f"lu:{node.dir}",
                depth=depth + 1,
                child1_dir=node.child1.dir,
                child2_dir=node.child2.dir,
                child1_steps=group1,
                child2_steps=group2,
                cross_edges=cross,
            )
        )
        visit(node.child1, depth + 1)
        visit(node.child2, depth + 1)

    visit(model.plan.tree, 0)
    return reports


# -- the DF rule checks ------------------------------------------------------------


def _check_write_before_read(dag: BlockDAG) -> list[Finding]:
    """DF002: a stage reads a block first written at the same or a later
    stage — the barrier schedule would execute the read against nothing."""
    findings: list[Finding] = []
    for name in dag.stages:
        late: dict[str, set[str]] = {}
        for path, producer in dag.late_reads.get(name, {}).items():
            if producer is not None and producer != name:
                late.setdefault(producer, set()).add(path)
        for producer, paths in sorted(late.items()):
            findings.append(
                Finding.of(
                    "DF002",
                    f"{name} (stage {dag.stage_of(name)}) reads "
                    f"{_quote_paths(paths)} first written by {producer} "
                    f"(stage {dag.stage_of(producer)})",
                    location=name,
                    hint="a consumer must run at a strictly later stage than "
                    "its producer under the barrier schedule",
                )
            )
    return findings


def _check_dead_blocks(model: "PipelineModel", dag: BlockDAG) -> list[Finding]:
    """DF003: blocks written but never read and never published (a commit
    manifest is the only legitimate write-only path)."""
    findings: list[Finding] = []
    for step in model.steps:
        dead = {
            path
            for path in step.writes
            if not dag.consumers.get(path)
            and path not in model.manifest_writes
        }
        if dead:
            findings.append(
                Finding.of(
                    "DF003",
                    f"{step.name} writes {len(dead)} dead block(s) no step "
                    f"reads: {_quote_paths(dead)}",
                    location=step.name,
                    hint="drop the write or add the consumer the block was "
                    "meant for",
                )
            )
    return findings


def _check_redundant_reads(model: "PipelineModel", dag: BlockDAG) -> list[Finding]:
    """DF004: a stage reads a block it writes itself — either a dependency
    that belongs in an earlier stage or a redundant DFS round-trip of data
    the stage already holds in memory."""
    findings: list[Finding] = []
    for step in model.steps:
        own = step.reads & step.writes
        if own:
            findings.append(
                Finding.of(
                    "DF004",
                    f"{step.name} reads its own same-stage write(s): "
                    f"{_quote_paths(own)}",
                    location=step.name,
                    hint="split the producer into an earlier stage or keep "
                    "the data in memory instead of round-tripping the DFS",
                )
            )
    return findings


def _check_acyclic(dag: BlockDAG) -> list[Finding]:
    """DF006: the block DAG must be acyclic regardless of stage order."""
    cycle = dag.find_cycle()
    if cycle is None:
        return []
    return [
        Finding.of(
            "DF006",
            "block dependency cycle: " + " -> ".join(cycle),
            location=cycle[0],
            hint="no schedule (barrier or dataflow) can satisfy a cyclic "
            "read/write set; the model or the pipeline is corrupt",
        )
    ]


def _check_generation_order(model: "PipelineModel", dag: BlockDAG) -> list[Finding]:
    """DF007: inside one job, generations go map → reduce; a map phase
    reading its own job's reduce output inverts the shuffle."""
    findings: list[Finding] = []
    by_name = {step.name: step for step in model.steps}
    for edge in dag.edges():
        src, dst = by_name.get(edge.src), by_name.get(edge.dst)
        if src is None or dst is None or src.job is None:
            continue
        if src.job == dst.job and src.kind == "reduce" and dst.kind == "map":
            findings.append(
                Finding.of(
                    "DF007",
                    f"map phase of {dst.job} reads its own reduce phase's "
                    f"output: {_quote_paths(edge.paths)}",
                    location=dst.name,
                    hint="a job's generations are map -> shuffle -> reduce; "
                    "data flowing backwards needs a separate job",
                )
            )
    return findings


def _structural_findings(model: "PipelineModel", dag: BlockDAG) -> list[Finding]:
    """DF001 and DF005: the positive structure the barrier-removal refactor
    rides on, reported at info severity."""
    findings: list[Finding] = []
    for report in sibling_reports(model, dag):
        if report.independent and report.child1_steps and report.child2_steps:
            findings.append(
                Finding.of(
                    "DF001",
                    f"false barrier: depth-{report.depth} sibling subtrees "
                    f"{report.child1_dir} and {report.child2_dir} exchange "
                    "no direct block edges (all coupling flows through "
                    f"{report.parent_job}); the schedule-order barrier "
                    "between them carries no dataflow",
                    location=report.parent_dir,
                    hint="a DAG scheduler needs only the block edges through "
                    f"{report.parent_job}, not a global barrier",
                )
            )
    stages = len(dag.stages)
    cp_edges = max(len(dag.critical_path()) - 1, 0)
    barriers = max(stages - 1, 0)
    findings.append(
        Finding.of(
            "DF005",
            f"critical path {cp_edges} point-to-point edges vs barrier "
            f"schedule {stages} stages + {barriers} global barriers "
            f"({stages + barriers} sync points); max width "
            f"{dag.max_width()} tasks",
            location="schedule",
            hint="replacing each barrier with its block edges keeps every "
            "stage and deletes every global synchronization point",
        )
    )
    return findings


def lint_dataflow(
    model: "PipelineModel",
    dag: BlockDAG | None = None,
    *,
    structural: bool = False,
) -> list[Finding]:
    """All static DF checks over one model.

    ``structural=True`` additionally emits the info-severity structure
    reports (``DF001`` sibling independence, ``DF005`` barrier slack) that
    ``--dataflow`` mode prints; the defect rules alone run in the driver
    pre-flight, where a clean pipeline must stay silent.
    """
    dag = dag or build_block_dag(model)
    findings = _check_write_before_read(dag)
    findings += _check_dead_blocks(model, dag)
    findings += _check_redundant_reads(model, dag)
    findings += _check_acyclic(dag)
    findings += _check_generation_order(model, dag)
    if structural:
        findings += _structural_findings(model, dag)
    return findings


# -- static-vs-dynamic replay (DF008) ----------------------------------------------


@dataclass
class ReplayStats:
    """What a span-export replay saw and how it mapped onto the model."""

    total_reads: int = 0
    attributed: int = 0
    matched: int = 0
    commit_internal: int = 0
    export: int = 0
    unattributed: int = 0
    observed_edges: set[tuple[str, str]] = field(default_factory=set)

    def summary(self) -> str:
        return (
            f"{self.total_reads} dfs read(s): "
            f"{self.attributed} attributed to pipeline steps, "
            f"{self.matched} matched the static DAG, "
            f"{len(self.observed_edges)} distinct observed edge(s), "
            f"{self.commit_internal} commit-internal, "
            f"{self.export} process-pool export, "
            f"{self.unattributed} outside the pipeline"
        )


def _owning_step(span: "Span", by_id: dict[str, "Span"]) -> str | None:
    """The model step name a DFS read folded into ``span`` executed under,
    resolved by walking from ``span`` up its ancestor chain (task → job, or
    master phase)."""
    from ..telemetry.spans import SpanKind

    phase: str | None = None
    cur: "Span | None" = span
    while cur is not None:
        if cur.kind is SpanKind.TASK:
            phase = str(cur.attrs.get("phase", "")) or phase
        elif cur.kind is SpanKind.JOB:
            return f"{cur.name}[{phase}]" if phase else cur.name
        elif cur.kind is SpanKind.MASTER_PHASE:
            return cur.name
        elif cur.kind is SpanKind.DFS_REPAIR:
            return None
        cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
    return None


def replay_spans(
    model: "PipelineModel", spans: Sequence["Span"]
) -> tuple[list[Finding], ReplayStats]:
    """DF008: replay a recorded span export against the static DAG.

    Every observed DFS read record is attributed to its pipeline step via
    the span it was folded into (task → job, or master phase) and checked
    against that step's modeled read set.  An observed edge the model missed
    means the model under-approximates the real dataflow — exactly the
    failure a DAG scheduler must never inherit — and is an error.  Model
    reads never observed are fine: the model is a deliberate
    over-approximation (it unions all tasks of a step).  Reads of the commit
    protocol's own files, and the process pool's namespace export (``export``
    records: the driver reading what a wave's workers will map), are counted
    apart.
    """
    from ..telemetry.spans import READ_OPS

    by_id = {span.span_id: span for span in spans}
    step_names = {step.name for step in model.steps}
    reads_of = {step.name: step.reads for step in model.steps}
    commit_prefix = f"{model.config.root}/{COMMIT_DIR}/"

    stats = ReplayStats()
    missing: dict[tuple[str, str], int] = {}
    unmodeled: dict[str, int] = {}
    for span in spans:
        for op, path, _, _ in span.io:
            if op not in READ_OPS:
                continue
            stats.total_reads += 1
            if path.startswith(STAGING_ROOT + "/") or path.startswith(commit_prefix):
                stats.commit_internal += 1
                continue
            if op == "export":
                stats.export += 1
                continue
            step = _owning_step(span, by_id)
            if step is None:
                stats.unattributed += 1
                continue
            stats.attributed += 1
            if step not in step_names:
                unmodeled[step] = unmodeled.get(step, 0) + 1
                continue
            stats.observed_edges.add((step, path))
            if path in reads_of[step]:
                stats.matched += 1
            else:
                missing[(step, path)] = missing.get((step, path), 0) + 1

    findings: list[Finding] = []
    for step, count in sorted(unmodeled.items()):
        findings.append(
            Finding.of(
                "DF008",
                f"observed {count} read(s) under step {step!r}, which the "
                "static model has no stage for",
                location=step,
                hint="the model's step list has drifted from the driver; "
                "rebuild it from the same (n, config)",
            )
        )
    for (step, path), count in sorted(missing.items()):
        findings.append(
            Finding.of(
                "DF008",
                f"observed read edge missing from the static DAG: {step} "
                f"read {path} ({count} time(s))",
                location=step,
                hint="the model under-approximates the pipeline's dataflow; "
                "a scheduler driven by it would start this stage too early",
            )
        )
    return findings, stats


# -- the barrier-slack report ------------------------------------------------------


def barrier_slack_data(
    model: "PipelineModel", dag: BlockDAG | None = None
) -> dict:
    """The barrier-slack report as plain data (``--report --json``).

    Same numbers :func:`render_barrier_slack` prints, keyed for machines:
    the scheduler benchmark and tests consume ``sync_points`` and
    ``critical_path`` rather than re-deriving them.
    """
    dag = dag or build_block_dag(model)
    stages = len(dag.stages)
    barriers = max(stages - 1, 0)
    chain = dag.critical_path()
    cfg = model.config
    return {
        "n": model.n,
        "nb": cfg.nb,
        "m0": cfg.m0,
        "depth": model.plan.depth,
        "jobs": model.job_count,
        "stages": stages,
        "barriers": barriers,
        "sync_points": {
            # Barrier mode synchronizes at every stage boundary *and* start:
            # each of the `stages` steps plus the global barrier after each
            # non-final step.  Dataflow keeps only the per-stage completions.
            "barrier": stages + barriers,
            "dataflow": stages,
        },
        "critical_path": list(chain),
        "critical_path_edges": max(len(chain) - 1, 0),
        "max_width": dag.max_width(),
        "blocks": len(dag.producers),
        "block_edges": len(dag.edges()),
        "implied_orderings": stages * (stages - 1) // 2,
        "sibling_barriers": [
            {
                "depth": r.depth,
                "parent_dir": r.parent_dir,
                "parent_job": r.parent_job,
                "child1": r.child1_dir,
                "child2": r.child2_dir,
                "cross_block_edges": sum(len(e.paths) for e in r.cross_edges),
                "removable": r.independent,
            }
            for r in sorted(
                (
                    r
                    for r in sibling_reports(model, dag)
                    if r.child1_steps and r.child2_steps
                ),
                key=lambda r: (r.depth, r.parent_dir),
            )
        ],
    }


def render_barrier_slack(model: "PipelineModel", dag: BlockDAG | None = None) -> str:
    """Human-readable barrier-slack table for ``--dataflow --report``: the
    numbers of :func:`barrier_slack_data`, laid out for people."""
    r = barrier_slack_data(model, dag)
    chain = r["critical_path"]
    lines = [
        (
            f"barrier-slack report (n={r['n']} nb={r['nb']} m0={r['m0']} "
            f"d={r['depth']}, {r['jobs']} jobs = 2^d + 1)"
        ),
        (
            f"  barrier schedule : {r['stages']} stages + {r['barriers']} global "
            f"barriers = {r['sync_points']['barrier']} sync points"
        ),
        (
            f"  critical path    : {r['critical_path_edges']} point-to-point edges "
            f"(spans {len(chain)} stages) -- strictly shorter than the "
            "barrier schedule: every global barrier is replaced by block "
            "edges, none by a new stage"
        ),
        f"  max width        : {r['max_width']} tasks (m0 = {r['m0']})",
        (
            f"  block coupling   : {r['blocks']} blocks flow over "
            f"{r['block_edges']} step-pair edges; of the {r['implied_orderings']} "
            f"pairwise orderings the barriers impose, only {r['block_edges']} "
            "carry blocks directly"
        ),
    ]
    if r["sibling_barriers"]:
        lines.append("  removable sibling barriers (per depth):")
        for b in r["sibling_barriers"]:
            if b["removable"]:
                verdict = f"0 direct edges, coupled only via {b['parent_job']} -> removable"
            else:
                verdict = (
                    f"{b['cross_block_edges']} direct block edge(s) cross -> NOT removable"
                )
            lines.append(
                f"    depth {b['depth']}: {b['child1']} <-> {b['child2']}: {verdict}"
            )
    lines.append("  critical path chain:")
    lines.append("    " + " -> ".join(chain))
    return "\n".join(lines)


__all__ = [
    "BlockDAG",
    "BlockEdge",
    "ReplayStats",
    "SiblingReport",
    "barrier_slack_data",
    "build_block_dag",
    "lint_dataflow",
    "render_barrier_slack",
    "replay_spans",
    "sibling_reports",
]
