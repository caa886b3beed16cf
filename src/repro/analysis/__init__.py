"""Static analysis of the predefined MapReduce pipeline.

Because the paper's workflow is fully precomputable (Section 5: depth, job
count ``2^d + 1``, and every intermediate DFS file are functions of
``(n, nb, m0)`` alone), the entire dataflow can be validated *before* any
task executes.  This package does exactly that:

* :mod:`~repro.analysis.model` — the static dataflow model: every pipeline
  step with its full DFS read/write set, computed without a runtime;
* :mod:`~repro.analysis.planlint` — plan rules (``PL0xx``): job counts,
  shape conformability, read-before-write, single-writer files, orphaned
  intermediates, Section 6 optimization-flag consistency;
* :mod:`~repro.analysis.dataflow` — the block-granularity dependency DAG
  (every DFS block write edged to every reader) and the ``DF0xx`` rules:
  false barriers between sibling LU subtrees, write-before-read hazards,
  dead blocks, redundant reads, critical path vs the barrier schedule,
  acyclicity/generation order, and the telemetry-replay cross-check that
  proves the static DAG covers the observed dataflow;
* :mod:`~repro.analysis.purity` — mapper/reducer purity rules (``PU0xx``):
  closure/global mutation, input mutation, nondeterministic APIs — the
  hazard classes that break task retries and speculative execution;
* :mod:`~repro.analysis.concurrency` — lock-discipline rules (``CN0xx``):
  ``# guarded-by:`` lockset checking, lock-order deadlock cycles, locks
  held across blocking calls — proved over the threaded engine itself;
* :mod:`~repro.analysis.procsafety` — process-safety/ownership rules
  (``PS0xx``): closure-capture, escape, and borrowed-view mutation analysis
  over task-boundary code — the static gate on what may be handed to
  ``ProcessPoolBackend``;
* :mod:`~repro.analysis.cli` — ``python -m repro lint``.

The three source analyzers (``PU``/``CN``/``PS``) stand on one internal
source-walking core, :mod:`~repro.analysis.source`.

The driver runs :func:`preflight_check` once per run, before anything
launches; it is the run path's single call into this package, and it
covers the dataflow scheduler too.
"""

from .cli import lint_pipeline, lint_source_file
from .concurrency import (
    THREADED_MODULES,
    ConcurrencyAnalyzer,
    analyze_concurrency_files,
    analyze_concurrency_sources,
    default_threaded_files,
    missing_threaded_modules,
)
from .dataflow import (
    BlockDAG,
    BlockEdge,
    ReplayStats,
    SiblingReport,
    build_block_dag,
    lint_dataflow,
    barrier_slack_data,
    render_barrier_slack,
    replay_spans,
    sibling_reports,
)
from .findings import (
    RULES,
    Finding,
    PreflightError,
    RuleSpec,
    Severity,
    filter_ignored,
    has_errors,
    max_severity,
    render_json,
    render_text,
)
from .model import PipelineModel, StepModel, build_model
from .planlint import lint_model, lint_plan
from .procsafety import (
    ProcSafetyAnalyzer,
    analyze_procsafety_files,
    analyze_procsafety_sources,
    default_procsafety_files,
)
from .purity import analyze_callable, analyze_job, analyze_source

__all__ = [
    "BlockDAG",
    "BlockEdge",
    "ConcurrencyAnalyzer",
    "Finding",
    "PipelineModel",
    "PreflightError",
    "ProcSafetyAnalyzer",
    "RULES",
    "ReplayStats",
    "RuleSpec",
    "Severity",
    "SiblingReport",
    "StepModel",
    "THREADED_MODULES",
    "analyze_callable",
    "analyze_concurrency_files",
    "analyze_concurrency_sources",
    "analyze_job",
    "analyze_procsafety_files",
    "analyze_procsafety_sources",
    "analyze_source",
    "build_block_dag",
    "build_model",
    "default_procsafety_files",
    "default_threaded_files",
    "filter_ignored",
    "has_errors",
    "lint_dataflow",
    "lint_model",
    "lint_pipeline",
    "lint_plan",
    "lint_source_file",
    "max_severity",
    "missing_threaded_modules",
    "preflight_check",
    "barrier_slack_data",
    "render_barrier_slack",
    "render_json",
    "render_text",
    "replay_spans",
    "sibling_reports",
]


def preflight_check(n: int, config=None) -> "PipelineModel":
    """Validate a pipeline before running it; raise on error findings.

    Runs the pipeline analyzers (plan rules, block-dataflow defect rules
    over the :meth:`PipelineModel.block_dag`, task purity) for an
    order-``n`` inversion under ``config`` and raises
    :class:`PreflightError` if any error-severity finding is produced.
    Returns the validated model so the caller can reuse the precomputation.
    """
    findings, model = lint_pipeline(n, config)
    if has_errors(findings):
        raise PreflightError(findings)
    return model
