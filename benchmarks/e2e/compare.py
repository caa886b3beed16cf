"""``run.py compare A.json B.json``: hold B to A within the benchmark's bounds.

One row per (end-to-end metric, workload).  The verdict is ``unresolved``
when either side's interquartile spread is wider than the metric's bound,
otherwise ``worse`` / ``better`` when B's median moved against / with the
metric's direction by more than the bound, otherwise ``same``.  Counts are
compared for exact equality and shown as counts, never as speed-ups.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from spec import EXACT_COUNTS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(samples: list[float]) -> tuple[float, float]:
    """First and third quartile (the sample itself when there is only one)."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def verdict(a: dict[str, Any], b: dict[str, Any], bound: float, better: str) -> str:
    for side in (a, b):
        if (side["q3"] - side["q1"]) / side["median"] > bound:
            return "unresolved"
    delta = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        delta = -delta
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"


def compare_docs(
    a: dict[str, Any], b: dict[str, Any], metrics: list[dict[str, Any]]
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Rows for the end-to-end metrics (and ``failed_share``), then rows for
    the exact counts, over the workloads both documents have."""
    rows, counts = [], []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in metrics:
            ma = wa["end_to_end"].get(metric["name"])
            mb = wb["end_to_end"].get(metric["name"])
            if ma is None or mb is None:
                continue
            rows.append({
                "workload": name,
                "metric": metric["name"],
                "unit": ma["unit"],
                "a": ma,
                "b": mb,
                "delta_of_a": (mb["median"] - ma["median"]) / ma["median"],
                "bound": metric["bound"],
                "verdict": verdict(ma, mb, metric["bound"], metric["better"]),
            })  # fmt: skip
        fa, fb = wa["failed_share"], wb["failed_share"]
        rows.append({
            "workload": name,
            "metric": "failed_share",
            "unit": "ratio",
            "a": {"median": fa, "q1": fa, "q3": fa, "samples": wa["attempted"]},
            "b": {"median": fb, "q1": fb, "q3": fb, "samples": wb["attempted"]},
            "delta_of_a": fb - fa,
            "bound": 0.0,
            "verdict": "worse" if fb > fa else "better" if fb < fa else "same",
        })  # fmt: skip
        for metric in EXACT_COUNTS:
            if metric in wa["racy_counts"] or metric in wb["racy_counts"]:
                continue
            va = wa["per_layer"][metric]["value"]
            vb = wb["per_layer"][metric]["value"]
            counts.append(
                {"workload": name, "metric": metric, "a": va, "b": vb, "equal": va == vb}
            )
    return rows, counts


def compare_main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if a["smoke"] != b["smoke"]:
        print("cannot compare a smoke run with a full run", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
    rows, counts = compare_docs(a, b, metrics)

    print(f"A = {argv[0]}\nB = {argv[1]}\ndelta is (B - A) / A; lower is better")
    head = (f"{'workload':<20}{'metric':<20}{'A median [q1, q3] n':<40}"
            f"{'B median [q1, q3] n':<40}{'delta':>8}{'bound':>7}  verdict")
    print(head)
    for row in rows:
        cells = [
            f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['samples']}"
            for s in (row["a"], row["b"])
        ]
        named = f"{row['metric']} [{row['unit']}]"
        print(f"{row['workload']:<20}{named:<20}{cells[0]:<40}{cells[1]:<40}"
              f"{row['delta_of_a']:>+8.1%}{row['bound']:>7.0%}  {row['verdict']}")
    differing = [c for c in counts if not c["equal"]]
    print(f"\ncounts: {len(counts) - len(differing)} of {len(counts)} identical")
    for c in differing:
        print(f"{c['workload']:<20}{c['metric']:<30}A {c['a']:>16}  B {c['b']:>16}  differs")
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(worse)} worse, {len(unresolved)} unresolved of {len(rows)} rows")
    return 1 if worse else 0
