"""Alternating parent/change pairs of one end-to-end benchmark workload.

Usage:  python scripts/bench_pairs.py --workload W --parent REV [--pairs 10] [--json PATH]
        make bench-pairs W=paper_n1024_m8 PARENT=HEAD~1 N=10 [JSON=PATH]

``git archive REV`` is unpacked into a temporary directory, ``__pycache__``
is stripped from that tree and from this one (a tree with ``.pyc`` files
imports ``repro`` ~0.1 s faster, which reads as a ``setup_s`` regression of
the other), and for seeds 1..N each tree runs its own

    benchmarks/e2e/run.py --workload W --seed s --seconds 12 --trace 0

the parent first on odd seeds, the change first on even ones.  Printed per
end-to-end metric: each side's median and quartiles, the relative change of
the medians, and how many pairs each side won (ties count for neither).
``--json PATH`` also writes those numbers, with every pair's values, as one
JSON document (``docs/perf/`` keeps the ones a change cites).

This only *invokes* the harness; nothing under ``benchmarks/e2e/`` is
written except its ignored ``out/`` directory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = pathlib.Path("benchmarks", "e2e", "run.py")

# the harness's own quartiles, so this table and `run.py compare` agree
sys.dont_write_bytecode = True  # nothing is written under benchmarks/e2e/
sys.path.insert(0, str(ROOT / RUN.parent))
from compare import quartiles  # noqa: E402


def strip_pycache(tree: pathlib.Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One harness run in ``tree``; metric name -> value from its last line."""
    argv = [
        sys.executable, str(tree / RUN), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed} failed: {result}")
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the relative
    change of the medians, the wins of each side (ties count for neither)
    and the ``[parent, change]`` value of every pair."""
    summary = {}
    for name in parent[0]:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        sides = {}
        for side, values in (("parent", a), ("change", b)):
            q1, q3 = quartiles(values)
            sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        summary[name] = {
            **sides,
            "delta": statistics.median(b) / statistics.median(a) - 1.0,
            "wins": {
                "parent": sum(x < y for x, y in zip(a, b)),
                "change": sum(y < x for x, y in zip(a, b)),
            },
            "pairs": [[x, y] for x, y in zip(a, b)],
        }
    return summary


def report(summary: dict) -> None:
    print(f"\n{'metric':<15}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'delta':>9}  wins parent/change")  # fmt: skip
    for name, row in summary.items():
        cells = [
            f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
            for side in ("parent", "change")
        ]
        wins = row["wins"]
        print(f"{name:<15}{cells[0]:>34}{cells[1]:>34}{row['delta']:>+9.1%}"
              f"  {wins['parent']}/{wins['change']}")  # fmt: skip


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--json", type=pathlib.Path, help="also write the table's numbers here")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = pathlib.Path(tmp)
        archive = subprocess.run(
            ["git", "archive", args.parent], cwd=ROOT, stdout=subprocess.PIPE, check=True
        )
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        strip_pycache(parent_tree)
        strip_pycache(ROOT)

        sides = {"parent": parent_tree, "change": ROOT}
        runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
            wall = {side: runs[side][-1]["invert_wall_s"] for side in sides}
            print(f"seed {seed}: invert_wall_s parent {wall['parent']:.4f}"
                  f"  change {wall['change']:.4f}", flush=True)  # fmt: skip
        print(f"\n{args.workload}: {args.pairs} alternating pairs against {args.parent}")
        summary = summarize(runs["parent"], runs["change"])
        report(summary)
    if args.json is not None:
        document = {
            "workload": args.workload,
            "parent": args.parent,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "metrics": summary,
        }
        args.json.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
