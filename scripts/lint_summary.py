"""Run every static analyzer and print one summary table per rule family.

Usage:  PYTHONPATH=src python scripts/lint_summary.py

Five sweeps, one line each, and each rule family runs once:

* **PL** — plan rules over the acceptance configuration's model.
* **DF** — block-dataflow defect rules (write-before-read, dead blocks,
  redundant reads, cycles, generation order) over the same model's block
  DAG (built once, read by PL too).
* **PU** — task-purity rules over the pipeline's own job confs, the shipped
  examples and the experiment drivers (source mode, which also plan-lints
  any configuration a file spells out literally).
* **CN** — lock-discipline rules over the engine's threaded modules; a
  ``THREADED_MODULES`` entry that no longer exists on disk (a rename that
  missed the list would silently shrink the sweep) is an error here.
* **PS** — process-safety rules over the whole ``repro`` package.

Any finding is listed below its family's row.  Exit status 0 iff no
error-severity findings anywhere — the single gate ``make lint`` rides on.
"""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import (  # noqa: E402
    Finding,
    Severity,
    analyze_concurrency_files,
    analyze_job,
    analyze_procsafety_files,
    build_block_dag,
    build_model,
    default_procsafety_files,
    default_threaded_files,
    lint_dataflow,
    lint_model,
    lint_source_file,
    missing_threaded_modules,
)
from repro.analysis.cli import pipeline_job_confs  # noqa: E402


def main() -> int:
    rows = []
    all_findings = []

    t0 = time.perf_counter()
    model = build_model(4096)
    dag = build_block_dag(model)
    pl = lint_model(model, dag)
    rows.append(("PL", "pipeline n=4096 nb=512", 1, pl, time.perf_counter() - t0))

    t0 = time.perf_counter()
    df = lint_dataflow(model, dag)
    rows.append(("DF", "block DAG n=4096 nb=512", 1, df, time.perf_counter() - t0))

    source_paths = sorted((ROOT / "examples").glob("*.py"))
    source_paths += sorted((ROOT / "src" / "repro" / "experiments").glob("*.py"))
    t0 = time.perf_counter()
    pu = [f for conf in pipeline_job_confs(model.layout) for f in analyze_job(conf)]
    pu += [f for p in source_paths for f in lint_source_file(p)]
    rows.append(
        ("PU", "pipeline tasks + sources", 1 + len(source_paths), pu, time.perf_counter() - t0)
    )

    cn_paths = [p for p in default_threaded_files() if p.is_file()]
    t0 = time.perf_counter()
    # Reported like an unparseable module (CN007): the sweep cannot see it.
    cn = [
        Finding.of(
            "CN007",
            f"THREADED_MODULES entry {rel} is missing on disk (renamed "
            "without updating the list?)",
            location=f"src/repro/{rel}",
        )
        for rel in missing_threaded_modules()
    ]
    cn += analyze_concurrency_files(cn_paths)
    rows.append(("CN", "engine threaded modules", len(cn_paths), cn, time.perf_counter() - t0))

    ps_paths = default_procsafety_files()
    t0 = time.perf_counter()
    ps = analyze_procsafety_files(ps_paths)
    rows.append(("PS", "whole repro package", len(ps_paths), ps, time.perf_counter() - t0))

    header = f"{'family':<8}{'sweep':<26}{'modules':>8}{'errors':>8}{'warnings':>10}{'info':>6}{'secs':>8}"
    print(header)
    print("-" * len(header))
    for family, sweep, nmods, findings, secs in rows:
        errors = sum(1 for f in findings if f.severity == Severity.ERROR)
        warnings = sum(1 for f in findings if f.severity == Severity.WARNING)
        infos = len(findings) - errors - warnings
        print(
            f"{family:<8}{sweep:<26}{nmods:>8}{errors:>8}{warnings:>10}"
            f"{infos:>6}{secs:>8.2f}"
        )
        all_findings.extend(findings)

    if all_findings:
        print()
        for f in sorted(all_findings, key=lambda f: (f.rule, f.location or "")):
            loc = f" [{f.location}]" if f.location else ""
            print(f"  {f.rule} {f.severity.value}{loc}: {f.message}")
    else:
        print("\nall analyzers clean")

    n_errors = sum(1 for f in all_findings if f.severity == Severity.ERROR)
    return 1 if n_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
