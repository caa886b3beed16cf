"""``python -m repro lint`` — pre-flight static analysis from the shell.

Five modes:

* **plan mode** (no paths): build the pipeline model for ``--n/--nb/--m0``
  and run the plan linter plus the purity checker over every task class the
  pipeline would launch — validating the whole workflow without executing a
  single job;
* **source mode** (paths given): purity-check every mapper/reducer defined
  in the files, and plan-lint any pipeline configuration statically
  resolvable from the source (literal ``InversionConfig``/``InversionPlan``
  arguments, including module-level integer constants);
* **concurrency mode** (``--concurrency``): run the lockset / lock-order
  analyzer (rules ``CN001``–``CN008``) over the given paths, or over the
  engine's threaded modules (``repro.mapreduce``, ``repro.dfs``,
  ``repro.telemetry``) when no paths are given;
* **process-safety mode** (``--procsafety``): run the closure-capture /
  escape / mutation analyzer (rules ``PS001``–``PS008``) over the given
  paths, or over the whole ``repro`` package when no paths are given —
  the static gate on what ``ProcessPoolBackend`` may be handed;
* **dataflow mode** (``--dataflow``): build the block-granularity
  dependency DAG for the plan and run the ``DF001``–``DF008`` rules —
  false barriers, write-before-read hazards, dead blocks, critical path
  vs the barrier schedule; ``--report`` adds the barrier-slack table and
  ``--replay spans.jsonl`` cross-checks a recorded trace against the DAG.

Exit status is nonzero iff any error-severity finding survives
``--ignore`` / inline suppressions, making the command scriptable in CI.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
from typing import Sequence

from ..inversion.config import InversionConfig
from ..inversion.plan import total_job_count
from .findings import (
    Finding,
    filter_ignored,
    has_errors,
    render_json,
    render_text,
)
from .concurrency import analyze_concurrency_files, default_threaded_files
from .dataflow import (
    build_block_dag,
    lint_dataflow,
    barrier_slack_data,
    render_barrier_slack,
    replay_spans,
)
from .procsafety import analyze_procsafety_files, default_procsafety_files
from .model import PipelineModel, build_model
from .planlint import lint_model, lint_plan
from .purity import analyze_job, analyze_module
from .source import ModuleSource


def pipeline_job_confs(layout) -> list:
    """One representative :class:`JobConf` per task class the pipeline
    launches (all LU jobs share their mapper/reducer classes)."""
    from ..inversion.invert_job import invert_job
    from ..inversion.lu_jobs import lu_job, partition_job

    confs = []
    tree = layout.plan.tree
    if not tree.is_leaf:
        confs.append(partition_job(layout))
        confs.append(lu_job(layout, tree))
    confs.append(invert_job(layout))
    return confs


def lint_pipeline(
    n: int, config: InversionConfig | None = None
) -> tuple[list[Finding], PipelineModel]:
    """All pipeline analyzers: plan rules, block-dataflow defect rules
    (DF002/3/4/6/7 — the structural DF001/DF005 reports are ``--dataflow``
    mode's business), and task purity.  One block DAG serves both rule
    families.  This is what the driver pre-flight runs."""
    model = build_model(n, config)
    dag = build_block_dag(model)
    findings = lint_model(model, dag) + lint_dataflow(model, dag)
    for conf in pipeline_job_confs(model.layout):
        findings.extend(analyze_job(conf))
    return findings, model


# -- source mode -----------------------------------------------------------------


def _module_int_constants(tree: ast.Module) -> dict[str, int]:
    """Module-level ``NAME = 42`` (and tuple-unpacked) integer constants."""
    consts: dict[str, int] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if (
                isinstance(target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
            ):
                consts[target.id] = stmt.value.value
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(stmt.value, ast.Tuple)
                and len(target.elts) == len(stmt.value.elts)
            ):
                for name_node, value_node in zip(target.elts, stmt.value.elts):
                    if (
                        isinstance(name_node, ast.Name)
                        and isinstance(value_node, ast.Constant)
                        and isinstance(value_node.value, int)
                    ):
                        consts[name_node.id] = value_node.value
    return consts


def _resolve_int(node: ast.AST, consts: dict[str, int]) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _plan_specs_from_source(
    tree: ast.Module,
) -> list[tuple[int | None, dict[str, int]]]:
    """Statically resolvable pipeline configurations in a module.

    Returns ``(n, {nb, m0, ...})`` tuples: ``InversionPlan(n=..., nb=...)``
    calls give a concrete order ``n``; ``InversionConfig(nb=..., m0=...)``
    calls give only the tunables (``n`` is runtime data), reported as
    ``None`` and linted at a representative full-tree order.
    """
    consts = _module_int_constants(tree)
    specs: list[tuple[int | None, dict[str, int]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = (
            node.func.id
            if isinstance(node.func, ast.Name)
            else getattr(node.func, "attr", "")
        )
        if name not in ("InversionConfig", "InversionPlan"):
            continue
        kwargs: dict[str, int] = {}
        for kw in node.keywords:
            if kw.arg is None:
                continue
            value = _resolve_int(kw.value, consts)
            if value is not None:
                kwargs[kw.arg] = value
        if name == "InversionPlan":
            specs.append((kwargs.pop("n", None), kwargs))
        else:
            specs.append((None, kwargs))
    return specs


def lint_source_file(path: str | pathlib.Path) -> list[Finding]:
    """Source mode for one file: purity of task callables plus plan lint of
    any statically resolvable pipeline configuration."""
    path = pathlib.Path(path)
    module = ModuleSource(path.read_text(encoding="utf-8"), str(path))
    findings = analyze_module(module)
    if module.tree is None:
        return findings  # analyze_module already reported it
    for n, kwargs in _plan_specs_from_source(module.tree):
        config_kwargs = {
            k: v for k, v in kwargs.items() if k in ("nb", "m0")
        }
        try:
            config = InversionConfig(**config_kwargs)
        except (TypeError, ValueError) as exc:
            findings.append(
                Finding.of(
                    "PL002",
                    f"invalid pipeline configuration {config_kwargs}: {exc}",
                    location=str(path),
                )
            )
            continue
        # Without a concrete order, validate at a representative full-tree
        # size (depth 3) — the layout rules are order-independent.
        order = n if n is not None else 8 * config.nb
        plan_findings, _ = lint_plan(order, config)
        findings.extend(plan_findings)
    return findings


# -- entry point ------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically validate inversion pipelines (plan dataflow "
        "+ mapper/reducer purity) without executing any job.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="source files to lint; when omitted, lint the plan for "
        "--n/--nb/--m0",
    )
    parser.add_argument("--n", type=int, default=4096)
    parser.add_argument("--nb", type=int, default=512)
    parser.add_argument("--m0", type=int, default=4)
    parser.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule ids to suppress (e.g. PL008,PU001)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON findings")
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run the lockset/lock-order analyzer (CN rules) over PATHS, or "
        "over the engine's threaded modules when no paths are given",
    )
    parser.add_argument(
        "--procsafety",
        action="store_true",
        help="run the process-safety/ownership analyzer (PS rules) over "
        "PATHS, or over the whole repro package when no paths are given",
    )
    parser.add_argument(
        "--dataflow",
        action="store_true",
        help="run the block-dataflow analyzer (DF rules) over the plan for "
        "--n/--nb/--m0: block DAG, false barriers, hazards, dead blocks, "
        "critical path vs the barrier schedule",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="with --dataflow, print the barrier-slack table (per-depth "
        "removable barriers, critical path, max width)",
    )
    parser.add_argument(
        "--replay",
        metavar="SPANS_JSONL",
        help="with --dataflow, replay a span export (repro trace --jsonl) "
        "against the static DAG and flag observed read edges the model "
        "missed (DF008)",
    )
    args = parser.parse_args(argv)

    if (args.report or args.replay) and not args.dataflow:
        print("--report/--replay require --dataflow", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    report = None  # --dataflow --report --json: the slack table, as data
    if args.dataflow:
        try:
            config = InversionConfig(nb=args.nb, m0=args.m0)
            model = build_model(args.n, config)
        except ValueError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
        dag = build_block_dag(model)
        findings = lint_dataflow(model, dag, structural=True)
        stats = None
        if args.replay:
            from ..telemetry.exporters import read_jsonl

            try:
                spans = read_jsonl(args.replay)
            except (OSError, ValueError) as exc:
                print(f"cannot read span export: {exc}", file=sys.stderr)
                return 2
            replay_findings, stats = replay_spans(model, spans)
            findings.extend(replay_findings)
        if not args.json:
            print(
                f"dataflow n={args.n} nb={args.nb} m0={args.m0}: "
                f"{len(model.steps)} stages, {model.job_count} jobs, "
                f"{len(dag.producers)} blocks, {len(dag.edges())} "
                "producer->consumer edges"
            )
            if args.report:
                print(render_barrier_slack(model, dag))
            if stats is not None:
                print(f"replay {args.replay}: {stats.summary()}")
        elif args.report:
            report = barrier_slack_data(model, dag)
    elif args.concurrency or args.procsafety:
        if args.concurrency:
            analyze, default_paths, label = (
                analyze_concurrency_files, default_threaded_files, "concurrency"
            )
        else:
            analyze, default_paths, label = (
                analyze_procsafety_files, default_procsafety_files, "procsafety"
            )
        paths = [pathlib.Path(p) for p in args.paths] or default_paths()
        try:
            findings = analyze(paths)
        except OSError as exc:
            print(f"cannot read sources: {exc}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"{label}: analyzed {len(paths)} module(s)")
    elif args.paths:
        for path in args.paths:
            try:
                findings.extend(lint_source_file(path))
            except OSError as exc:
                print(f"cannot read {path}: {exc}", file=sys.stderr)
                return 2
    else:
        try:
            config = InversionConfig(nb=args.nb, m0=args.m0)
            findings, model = lint_pipeline(args.n, config)
        except ValueError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
        if not args.json:
            closed_form = total_job_count(args.n, args.nb)
            print(
                f"plan n={args.n} nb={args.nb} m0={args.m0}: "
                f"depth {model.plan.depth}, {model.job_count} jobs "
                f"(closed form 2^d + 1 = {closed_form}), "
                f"{len(model.steps)} steps, "
                f"{len(model.all_writes())} DFS files"
            )

    findings = filter_ignored(findings, args.ignore.split(","))
    if report is not None:
        # Machine-readable --report: one object holding the slack table and
        # the findings (plain --json stays a bare findings array).
        print(
            json.dumps(
                {"report": report, "findings": json.loads(render_json(findings))},
                indent=2,
            )
        )
    else:
        print(render_json(findings) if args.json else render_text(findings))
    return 1 if has_errors(findings) else 0


def register_commands(registry) -> None:
    """Hook for the ``python -m repro`` subcommand registry."""
    registry.add_passthrough(
        "lint",
        main,
        help="statically validate pipelines without running them "
        "(plan dataflow + block DAG/barrier slack + mapper/reducer purity "
        "+ lock discipline + process safety); see python -m repro lint "
        "--help",
    )
