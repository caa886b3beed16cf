"""Plan/dataflow linter: validate a pipeline before any task runs.

The paper's pipeline is predefined (Section 5): job count, every
intermediate DFS file, and every read/write edge are pure functions of
``(n, config)``.  This module checks that precomputed structure for internal
consistency — the class of defect that otherwise only surfaces as a deep
runtime failure (a job reading a path nothing wrote) or a silently wrong
inverse (non-conformable block shapes):

``PL001``  job count disagrees with the closed form ``2^d + 1`` (Table 3);
``PL002``  block shapes not conformable across a job boundary;
``PL003``  a step reads a DFS path no earlier step writes;
``PL004``  a DFS path is written by more than one step (Section 5.2's
           single-writer-per-file invariant);
``PL005``  an intermediate is written but never read (orphan);
``PL006``  U-transposed storage inconsistent with the Section 6.3 flag;
``PL007``  block-wrap grid does not factor ``m0`` (``f1 * f2 != m0``);
``PL008``  separate-factor-file count disagrees with Section 6.1's
           ``N(d) = 2^d + (m0/2)(2^d - 1)``;
``PL009``  a step reads or writes the ``/_tmp`` staging namespace or the
           ``_commit`` manifest directory — both are private to the
           two-phase output commit; steps exchange data only through
           published final paths.

PL003–PL005 read the block DAG the DF rules read (:func:`lint_model` takes
one a caller already built), so the step sets are replayed once.
"""

from __future__ import annotations

from ..dfs.commit import COMMIT_DIR, STAGING_ROOT
from ..inversion.config import InversionConfig
from ..inversion.plan import (
    intermediate_file_count,
    is_full_tree,
    total_job_count,
)
from ..inversion.regions import Region
from .dataflow import BlockDAG, build_block_dag
from .findings import Finding
from .model import PipelineModel, build_model


def _check_job_count(model: PipelineModel) -> list[Finding]:
    """PL001: the model's launch sequence must match the plan's predefined
    schedule, and — for full recursion trees — the closed form."""
    findings: list[Finding] = []
    schedule = model.plan.job_schedule()
    if model.job_names != schedule:
        findings.append(
            Finding.of(
                "PL001",
                f"pipeline launches {model.job_count} job(s) "
                f"{model.job_names}, plan schedule is {len(schedule)} "
                f"job(s) {schedule}",
                location=f"n={model.n}, nb={model.config.nb}",
                hint="the model was corrupted or the driver walk and the "
                "plan tree disagree",
            )
        )
    if is_full_tree(model.n, model.config.nb):
        expected = total_job_count(model.n, model.config.nb)
        if model.job_count != expected:
            findings.append(
                Finding.of(
                    "PL001",
                    f"{model.job_count} jobs, closed form 2^d + 1 gives "
                    f"{expected} (d={model.plan.depth})",
                    location=f"n={model.n}, nb={model.config.nb}",
                )
            )
    return findings


def _region_shape_findings(
    name: str, region: Region | None, rows: int, cols: int, where: str
) -> list[Finding]:
    """Shape + tiling check of one layout region."""
    if region is None:
        return [Finding.of("PL002", f"{name} region missing", location=where)]
    findings: list[Finding] = []
    if (region.rows, region.cols) != (rows, cols):
        findings.append(
            Finding.of(
                "PL002",
                f"{name} region is {region.rows}x{region.cols}, "
                f"expected {rows}x{cols}",
                location=where,
            )
        )
    if not region.covered():
        findings.append(
            Finding.of(
                "PL002",
                f"{name} region {region.rows}x{region.cols} is not exactly "
                "tiled by its block files (gap or overlap)",
                location=where,
            )
        )
    for ref in region.blocks:
        if ref.file_rows <= 0 or ref.file_cols <= 0:
            continue
        # file_rows/file_cols are the file content's *logical* dims: when
        # ``transposed`` the disk layout is flipped, the coordinates not.
        if (
            ref.fr1 + ref.rows > ref.file_rows
            or ref.fc1 + ref.cols > ref.file_cols
        ):
            findings.append(
                Finding.of(
                    "PL002",
                    f"{name} block {ref.path} reads rows "
                    f"[{ref.fr1}, {ref.fr1 + ref.rows}) x cols "
                    f"[{ref.fc1}, {ref.fc1 + ref.cols}) of a "
                    f"{ref.file_rows}x{ref.file_cols} file",
                    location=where,
                )
            )
    return findings


def _check_shapes(model: PipelineModel) -> list[Finding]:
    """PL002: conformability of every job boundary in the recursion tree."""
    findings: list[Finding] = []
    layout = model.layout
    for node in model.plan.tree.preorder():
        nl = layout.of(node)
        where = node.dir
        if node.is_leaf:
            if node.kind == "input" or nl.matrix is not None:
                findings.extend(
                    _region_shape_findings(
                        "matrix", nl.matrix, node.n, node.n, where
                    )
                )
            continue
        assert node.child1 is not None and node.child2 is not None
        n1, n2 = node.n1, node.n2
        if n1 + n2 != node.n or node.child1.n != n1 or node.child2.n != n2:
            findings.append(
                Finding.of(
                    "PL002",
                    f"split {node.n} -> ({n1}, {n2}) disagrees with children "
                    f"({node.child1.n}, {node.child2.n})",
                    location=where,
                )
            )
        # Inputs of this node's job: L2' U1 = A3 needs A3 with n1 columns;
        # L1 U2 = P1 A2 needs A2 with n1 rows; B = A4 - L2' U2 needs
        # conformable (n2 x n1) @ (n1 x n2) against an n2 x n2 A4.
        findings.extend(_region_shape_findings("A2", nl.a2, n1, n2, where))
        findings.extend(_region_shape_findings("A3", nl.a3, n2, n1, where))
        findings.extend(_region_shape_findings("A4", nl.a4, n2, n2, where))
        findings.extend(_region_shape_findings("L2", nl.l2, n2, n1, where))
        findings.extend(_region_shape_findings("U2", nl.u2, n1, n2, where))
        findings.extend(_region_shape_findings("OUT", nl.out, n2, n2, where))
    return findings


def _check_block_flow(dag: BlockDAG) -> list[Finding]:
    """PL003/PL004/PL005, read off the block DAG: reads no earlier step
    writes, paths with a second writer, and writes no step reads."""
    findings: list[Finding] = []
    rewrites: dict[str, list[str]] = {}
    for path, names in dag.writers.items():
        for name in names[1:]:
            rewrites.setdefault(name, []).append(path)
    for name in dag.stages:
        for path in sorted(dag.late_reads.get(name, {})):
            findings.append(
                Finding.of(
                    "PL003",
                    f"step {name!r} reads {path}, which no earlier step writes",
                    location=name,
                    hint="a producing step is missing from the pipeline, "
                    "writes a different path, or the path is staged but "
                    "never published",
                )
            )
        for path in sorted(rewrites.get(name, [])):
            findings.append(
                Finding.of(
                    "PL004",
                    f"{path} written by both {dag.producers[path]!r} and "
                    f"{name!r}",
                    location=name,
                    hint="Section 5.2: no two writers may share a file; "
                    "give each task its own output path",
                )
            )
    for path, writer in sorted(dag.producers.items()):
        if path not in dag.consumers:
            findings.append(
                Finding.of(
                    "PL005",
                    f"{path} (written by {writer!r}) is never read by any "
                    "later step",
                    location=writer,
                    hint="dead intermediate: drop the write or wire up the "
                    "consumer",
                )
            )
    return findings


def _check_transpose(model: PipelineModel) -> list[Finding]:
    """PL006: the Section 6.3 flag must agree with file naming and with
    every U block ref's on-disk orientation."""
    findings: list[Finding] = []
    flag = model.config.transpose_u
    layout = model.layout
    for node in model.plan.tree.preorder():
        nl = layout.of(node)
        wants_ut = nl.u_path.endswith("ut.bin")
        if wants_ut != flag:
            findings.append(
                Finding.of(
                    "PL006",
                    f"factor file {nl.u_path} implies transpose_u={wants_ut}, "
                    f"config says {flag}",
                    location=node.dir,
                )
            )
        if nl.u2 is not None:
            for ref in nl.u2.blocks:
                if ref.transposed != flag:
                    findings.append(
                        Finding.of(
                            "PL006",
                            f"U2 block {ref.path} stored "
                            f"transposed={ref.transposed}, config says {flag}",
                            location=node.dir,
                        )
                    )
    return findings


def _check_grid(model: PipelineModel) -> list[Finding]:
    """PL007: block-wrap needs a true factorization m0 = f1 * f2."""
    f1, f2 = model.grid
    m0 = model.config.m0
    if f1 < 1 or f2 < 1 or f1 * f2 != m0:
        return [
            Finding.of(
                "PL007",
                f"grid ({f1}, {f2}) does not factor m0={m0} "
                f"(f1 * f2 = {f1 * f2})",
                location=f"m0={m0}",
                hint="Section 6.2 requires m0 = f1 * f2 with |f1 - f2| "
                "minimal; see repro.linalg.blockwrap.factor_grid",
            )
        ]
    return []


def _check_intermediate_count(model: PipelineModel) -> list[Finding]:
    """PL008: count the separate factor part files the pipeline writes and
    compare with Section 6.1's closed form (full trees, separate-files mode,
    every L2 chunk non-empty)."""
    cfg = model.config
    if not cfg.separate_files or not is_full_tree(model.n, cfg.nb):
        return []
    internals = model.plan.tree.internal_nodes()
    if any(node.n2 < cfg.mhalf for node in internals):
        return []  # empty chunks: the closed form assumes full chunk fan-out
    layout = model.layout
    all_writes = model.all_writes()
    leaf_files = {
        layout.of(leaf).l_path for leaf in model.plan.tree.leaves()
    }
    l2_files: set[str] = set()
    for node in internals:
        l2 = layout.of(node).l2
        assert l2 is not None
        l2_files |= set(l2.file_paths())
    actual = len(leaf_files & all_writes) + len(l2_files & all_writes)
    expected = intermediate_file_count(model.n, cfg.nb, cfg.m0)
    if actual != expected:
        return [
            Finding.of(
                "PL008",
                f"pipeline writes {actual} separate factor part files, "
                f"N(d) = 2^d + (m0/2)(2^d - 1) gives {expected} "
                f"(d={model.plan.depth}, m0={cfg.m0})",
                location=f"n={model.n}, nb={cfg.nb}",
            )
        ]
    return []


def _check_staging_isolation(model: PipelineModel) -> list[Finding]:
    """PL009: no step may touch the commit protocol's private namespaces.

    Staging paths (``/_tmp/...``) hold uncommitted attempt output that fsck
    may delete at any quiescent moment; manifests (``<root>/_commit/...``)
    are the committer's own done-markers.  A step depending on either would
    read data that is not crash-consistent.
    """
    findings: list[Finding] = []
    staging_prefix = STAGING_ROOT + "/"
    commit_prefix = f"{model.config.root}/{COMMIT_DIR}/"
    for step in model.steps:
        for verb, paths in (("reads", step.reads), ("writes", step.writes)):
            for path in sorted(paths):
                if path == STAGING_ROOT or path.startswith(staging_prefix):
                    kind = "staging"
                elif path.startswith(commit_prefix):
                    kind = "manifest"
                else:
                    continue
                findings.append(
                    Finding.of(
                        "PL009",
                        f"step {step.name!r} {verb} {kind} path {path}",
                        location=step.name,
                        hint="staging and manifests are private to the "
                        "two-phase output commit; steps exchange data only "
                        "through published final paths",
                    )
                )
    return findings


def lint_model(model: PipelineModel, dag: BlockDAG | None = None) -> list[Finding]:
    """Run every plan rule over a pipeline model (``dag``: its block DAG,
    when the caller already built it)."""
    findings: list[Finding] = []
    findings.extend(_check_job_count(model))
    findings.extend(_check_shapes(model))
    findings.extend(_check_block_flow(dag or build_block_dag(model)))
    findings.extend(_check_transpose(model))
    findings.extend(_check_grid(model))
    findings.extend(_check_intermediate_count(model))
    findings.extend(_check_staging_isolation(model))
    return findings


def lint_plan(
    n: int, config: InversionConfig | None = None
) -> tuple[list[Finding], PipelineModel]:
    """Build the model for ``(n, config)`` and lint it.

    Returns the findings together with the model so callers (CLI, driver
    pre-flight) can also report the validated job count.
    """
    model = build_model(n, config)
    return lint_model(model), model
