"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
tier-1's ``testpaths``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from child import (
    CALIB_REF_S,
    at_ref_speed,
    calibrate,
    make_call,
    make_input,
    timed_reps,
    traced_pass,
)
from compare import compare_docs
from spec import BY_NAME, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS
from tracing import ROWS, LayerTracer, Span, row_table, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = BY_NAME["deep_n512_nb16"].smoke()


def test_self_time_of_a_nested_call_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3];  root -> b [5, 9];  other thread: d [0, 7]
    spans = [
        Span(2, 1, "dfs.read", "c", 1, 2.0, 3.0),
        Span(1, 0, "linalg.lu", "a", 1, 1.0, 4.0),
        Span(3, 0, "dfs.read", "b", 1, 5.0, 9.0),
        Span(0, None, "inversion.driver", "root", 1, 0.0, 10.0),
        Span(4, None, "linalg.lu", "d", 2, 0.0, 7.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 7.0}
    table = row_table(spans)
    assert table["inversion.driver"] == {"self_s": 3.0, "calls": 1}
    assert table["linalg.lu"] == {"self_s": 9.0, "calls": 2}
    assert table["dfs.read"] == {"self_s": 5.0, "calls": 2}
    assert set(table) == set(ROWS)
    # one thread's rows sum to the time its root span covers
    assert sum(self_times(spans[:4]).values()) == 10.0


def test_wrappers_come_off_and_leave_the_program_unchanged():
    a = make_input(SMALL, seed=3)
    call = make_call(SMALL)
    before = call(a)[0].inverse
    tracer = LayerTracer()
    tracer.install()
    bindings = list(tracer.patched)
    try:
        traced = call(a)[0].inverse
    finally:
        tracer.uninstall()
    assert len(bindings) >= len(ROWS)
    assert tracer.spans
    for namespace, key, original in bindings:
        assert vars(namespace)[key] is original, (namespace, key)
    spans_seen = len(tracer.spans)
    after = call(a)[0].inverse
    assert len(tracer.spans) == spans_seen, "a wrapper is still installed"
    assert before.tobytes() == traced.tobytes() == after.tobytes()


def test_layers_and_untraced_sum_to_the_traced_wall():
    a = make_input(SMALL, seed=4)
    table, spans, _ = traced_pass(make_call(SMALL), a)
    layers = sum(table[f"{row}_s"] for row in ROWS)
    assert layers + table["trace.untraced_s"] == pytest.approx(
        table["trace.wall_s"], rel=0.01
    )
    # serial backend: the outermost wrapped call covers nearly the whole run
    assert layers / table["trace.wall_s"] > 0.85
    assert table["mapreduce.scheduler_s"] == 0.0
    assert {s.row for s in spans} <= set(ROWS)


def test_singular_input_fails_every_call():
    run = timed_reps(make_call(SMALL), np.ones((SMALL.n, SMALL.n)), 0.0, 2)
    assert run["attempted"] == 2
    assert run["failed"] / run["attempted"] == 1.0


def test_correction_cancels_a_uniform_slowdown():
    quiet = at_ref_speed(1.0, 0.030, 0.034)
    assert at_ref_speed(1.4, 1.4 * 0.030, 1.4 * 0.034) == pytest.approx(quiet)
    # a host at the reference speed reads as the clock does
    assert at_ref_speed(1.0, CALIB_REF_S, CALIB_REF_S) == pytest.approx(1.0)
    assert calibrate() > 0.0


def test_timed_calls_keep_what_the_clock_read():
    run = timed_reps(make_call(SMALL), make_input(SMALL, seed=6), 0.0, 2)
    assert run["failed"] == 0
    corrected, raw = run["samples"]["invert_wall_s"], run["uncorrected"]
    assert len(corrected) == len(raw["invert_wall_s"]) == len(raw["calib_s"]) == 2


def test_benchmark_json_respects_the_contract_limits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    assert {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]} == END_TO_END
    assert {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]} == PER_LAYER
    assert set(EXACT_COUNTS) <= set(PER_LAYER)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_json_matches_benchmark_json(trace, key):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", SMALL.name,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {e["name"]: e["unit"] for e in BENCHMARK[key]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


def _doc(wall: list[float], failed_share: float = 0.0, jobs: int = 33) -> dict:
    q1, med, q3 = wall
    return {
        "workloads": {
            "w": {
                "attempted": 10,
                "failed_share": failed_share,
                "racy_counts": [],
                "end_to_end": {
                    "invert_wall_s": {
                        "median": med, "q1": q1, "q3": q3, "samples": 10, "unit": "s",
                    }
                },
                "per_layer": {
                    name: {"value": jobs if name == "mapreduce.jobs" else 1, "unit": unit}
                    for name, unit in EXACT_COUNTS.items()
                },
            }
        }
    }  # fmt: skip


@pytest.mark.parametrize(
    "b_wall, expected",
    [
        ([0.99, 1.02, 1.03], "same"),
        ([1.19, 1.20, 1.21], "worse"),
        ([0.79, 0.80, 0.81], "better"),
        ([0.90, 1.20, 1.30], "unresolved"),
    ],
)
def test_compare_verdicts(b_wall, expected):
    metrics = [{"name": "invert_wall_s", "better": "lower", "bound": 0.1}]
    rows, counts = compare_docs(_doc([0.99, 1.0, 1.01]), _doc(b_wall), metrics)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["invert_wall_s"]["verdict"] == expected
    assert by_metric["failed_share"]["verdict"] == "same"
    assert all(c["equal"] for c in counts)


def test_compare_flags_any_rise_in_failures_and_any_count_change():
    metrics = [{"name": "invert_wall_s", "better": "lower", "bound": 0.1}]
    a = _doc([0.99, 1.0, 1.01])
    b = _doc([0.99, 1.0, 1.01], failed_share=0.1, jobs=17)
    rows, counts = compare_docs(a, b, metrics)
    assert {r["metric"]: r["verdict"] for r in rows}["failed_share"] == "worse"
    assert [c["metric"] for c in counts if not c["equal"]] == ["mapreduce.jobs"]
