"""``scripts/bench_pairs.py --json``: the document a cited pairs run leaves.

Canned run results stand in for the harness, so nothing runs a benchmark:
the summary has, per metric, each side's median and quartiles, the delta of
the medians, each side's wins and every pair's values, and ``--json`` writes
exactly that with the run's parameters.
"""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [{"invert_wall_s": w, "peak_rss_mb": 100.0} for w in (0.40, 0.42, 0.42, 0.43)]
CHANGE = [{"invert_wall_s": w, "peak_rss_mb": 100.0} for w in (0.37, 0.38, 0.42, 0.36)]


def test_summary_shape(bench_pairs):
    summary = bench_pairs.summarize(PARENT, CHANGE)
    assert list(summary) == ["invert_wall_s", "peak_rss_mb"]
    wall = summary["invert_wall_s"]
    assert set(wall) == {"parent", "change", "delta", "wins", "pairs"}
    assert set(wall["parent"]) == set(wall["change"]) == {"median", "q1", "q3"}
    assert wall["parent"]["median"] == pytest.approx(0.42)
    assert wall["change"]["median"] == pytest.approx(0.375)
    assert wall["parent"]["q1"] <= wall["parent"]["median"] <= wall["parent"]["q3"]
    assert wall["delta"] == pytest.approx(0.375 / 0.42 - 1.0)
    assert wall["wins"] == {"parent": 0, "change": 3}  # the third pair is a tie
    assert wall["pairs"] == [[p["invert_wall_s"], c["invert_wall_s"]] for p, c in zip(PARENT, CHANGE)]
    assert summary["peak_rss_mb"]["wins"] == {"parent": 0, "change": 0}


def test_json_document_is_the_printed_summary(bench_pairs, monkeypatch, tmp_path, capsys):
    sides = {"parent": iter(PARENT), "change": iter(CHANGE)}

    def run_once(tree, workload, seed, seconds):
        return next(sides["change" if tree == bench_pairs.ROOT else "parent"])

    class Done:
        stdout = b""

    # no git archive, no tar, no harness: the canned runs above
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done())
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "strip_pycache", lambda tree: None)
    out = tmp_path / "pairs.json"
    argv = ["bench_pairs.py", "--workload", "kernel_n1536", "--parent", "HEAD",
            "--pairs", "4", "--json", str(out)]  # fmt: skip
    monkeypatch.setattr("sys.argv", argv)
    assert bench_pairs.main() == 0
    document = json.loads(out.read_text())
    assert document == {
        "workload": "kernel_n1536",
        "parent": "HEAD",
        "pairs": 4,
        "seconds": 12.0,
        "metrics": json.loads(json.dumps(bench_pairs.summarize(PARENT, CHANGE))),
    }
    assert "invert_wall_s" in capsys.readouterr().out


def test_same_process_summary(bench_pairs):
    """``--same-process``: the wall row of :func:`summarize`, each side's
    median minor faults per call, and the median of the pair ratios."""
    runs = {
        "parent": {"invert_wall_s": [r["invert_wall_s"] for r in PARENT], "minflt": [10, 12, 11, 13]},
        "change": {"invert_wall_s": [r["invert_wall_s"] for r in CHANGE], "minflt": [9, 9, 8, 30]},
    }
    row = bench_pairs.summarize_same_process(runs)
    wall = bench_pairs.summarize(PARENT, CHANGE)["invert_wall_s"]
    for side in ("parent", "change"):
        assert {k: v for k, v in row[side].items() if k != "minflt_median"} == wall[side]
    assert (row["parent"]["minflt_median"], row["change"]["minflt_median"]) == (11.5, 9)
    assert row["wins"] == wall["wins"] and row["pairs"] == wall["pairs"]
    assert row["pair_ratio"] == pytest.approx((0.38 / 0.42 + 0.37 / 0.40) / 2 - 1.0)
