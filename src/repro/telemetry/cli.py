"""``python -m repro trace`` — run an inversion with telemetry and render it.

Examples::

    python -m repro trace --n 256 --nb 25          # timeline + reconciliation
    python -m repro trace --n 96 --nb 24 --tasks   # include per-task rows
    python -m repro trace --jsonl run.jsonl        # also dump spans as JSONL
    python -m repro trace --json                   # machine-readable summary

The command runs one end-to-end inversion inside :func:`repro.observe`,
prints the span-tree summary, the per-job Gantt timeline, the critical path,
and the reconciliation report (span totals vs Counters vs the DFS ledger vs
the Table-1 cost model).  Exit status is 0 iff every reconciliation check
passes — the CI gate behind ``make trace-demo``.
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..inversion.driver import InversionResult
    from .api import Observation
    from .reconcile import ReconciliationReport


def run_traced_inversion(
    *,
    n: int,
    nb: int,
    m0: int,
    seed: int = 0,
    executor: str = "serial",
    schedule: str = "barrier",
    jsonl: str | None = None,
    tolerance: float = 0.01,
) -> "tuple[Observation, InversionResult, ReconciliationReport]":
    """One observed inversion plus its reconciliation report."""
    from ..cluster.costmodel import BYTES_PER_ELEMENT, ours_lu_cost
    from ..inversion import InversionConfig, MatrixInverter
    from ..inversion.plan import is_full_tree, total_job_count
    from ..workloads.generators import random_dense
    from .api import observe
    from .reconcile import dfs_replication_factor, reconcile_run

    a = random_dense(n, seed=seed)
    inverter = MatrixInverter(
        InversionConfig(nb=nb, m0=m0, executor=executor, schedule=schedule)
    )
    obs = observe(jsonl=jsonl)
    try:
        with obs:
            result = inverter.invert(a)
    finally:
        inverter.close()

    expected = (
        total_job_count(n, nb) if is_full_tree(n, nb) else result.plan.num_jobs
    )
    cost = ours_lu_cost(n, m0)
    report = reconcile_run(
        obs.spans,
        result.record,
        io=result.io,
        root_io=obs.root_io,
        replication_factor=dfs_replication_factor(inverter.runtime.dfs),
        expected_job_count=expected,
        model_lu_cost=(
            cost.read * BYTES_PER_ELEMENT,
            cost.write * BYTES_PER_ELEMENT,
        ),
        tolerance=tolerance,
    )
    return obs, result, report


def _summary_dict(
    obs: "Observation", result: "InversionResult", report: "ReconciliationReport"
) -> dict[str, Any]:
    from .spans import SpanKind

    kinds = {kind.value: 0 for kind in SpanKind}
    for span in obs.spans:
        kinds[span.kind.value] += 1
    return {
        "trace_id": obs.trace_id,
        "ok": report.ok,
        "num_jobs": result.num_jobs,
        "job_spans": report.job_span_count,
        "expected_job_spans": report.expected_job_count,
        "span_counts": {k: v for k, v in kinds.items() if v},
        "jobs": [
            {
                "job_id": row.job_id,
                "name": row.name,
                "span_id": row.span_id,
                "bytes_read": row.span_bytes_read,
                "bytes_written": row.span_bytes_written,
                "read_delta": row.read_delta,
                "write_delta": row.write_delta,
            }
            for row in report.jobs
        ],
        "metrics": obs.metrics.to_dict(),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="run one inversion with telemetry enabled and render its "
        "span tree, per-job timeline, critical path, and the reconciliation "
        "of span totals against Counters, the DFS ledger, and Table 1",
    )
    parser.add_argument("--n", type=int, default=256, help="matrix order")
    parser.add_argument("--nb", type=int, default=25, help="bound value")
    parser.add_argument("--m0", type=int, default=4, help="workers per job")
    parser.add_argument("--seed", type=int, default=0, help="input matrix seed")
    parser.add_argument(
        "--executor", choices=("serial", "threads", "processes"), default="serial"
    )
    parser.add_argument(
        "--scheduler",
        choices=("barrier", "dataflow"),
        default="barrier",
        help="inter-job scheduling mode (dataflow launches steps on block "
        "availability; reconciliation must close either way)",
    )
    parser.add_argument(
        "--jsonl", metavar="PATH", help="also stream spans to PATH as JSON lines"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="relative reconciliation tolerance (default 1%%)",
    )
    parser.add_argument(
        "--tasks", action="store_true", help="show per-task rows in the tree"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable summary"
    )
    args = parser.parse_args(argv)

    obs, result, report = run_traced_inversion(
        n=args.n,
        nb=args.nb,
        m0=args.m0,
        seed=args.seed,
        executor=args.executor,
        schedule=args.scheduler,
        jsonl=args.jsonl,
        tolerance=args.tolerance,
    )

    if args.json:
        print(json.dumps(_summary_dict(obs, result, report), indent=2))
        return 0 if report.ok else 1

    print(
        f"trace {obs.trace_id}: n={args.n} nb={args.nb} m0={args.m0} "
        f"depth={result.plan.depth} jobs={result.num_jobs} "
        f"({len(obs.spans)} spans)"
    )
    print()
    print(obs.render_tree(max_depth=1 if not args.tasks else 3))
    print()
    print(obs.render_timeline())
    print()
    print(obs.render_critical_path())
    print()
    print(report.format())
    return 0 if report.ok else 1


def register_commands(registry: Any) -> None:
    """Hook for the ``python -m repro`` subcommand registry."""
    registry.add_passthrough(
        "trace",
        main,
        help="run an inversion with telemetry and render timeline + "
        "reconciliation; see python -m repro trace --help",
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
