"""Alternating parent/change pairs of one end-to-end benchmark workload.

Usage:  python scripts/bench_pairs.py --workload W --parent REV [--pairs 10] [--json PATH]
        python scripts/bench_pairs.py --workload W --parent REV --same-process [--pairs 30]
        make bench-pairs W=paper_n1024_m8 PARENT=HEAD~1 N=10 [JSON=PATH] [SAME=1]

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

``--same-process`` measures in one interpreter instead: the parent's
``src/repro`` is unpacked as the package ``repro_parent`` (``src/`` imports
itself only relatively, so the two trees load side by side), and N pairs of
untraced calls alternate parent and change ABBA on the workload's config and
seed-0 input, after one warm-up call each.  Per side it prints the median
``invert_wall_s`` (raw seconds of one ``invert``, not scaled to the
harness's reference host), the pairs won and the median minor page faults
(``ru_minflt``) per call; then the change of the medians, the median of the
pairs' change/parent ratios, and whether the two trees gave identical
inverses.  ``peak_rss_mb`` and ``setup_s`` stay with the subprocess pairs:
one process cannot split them per tree.

This only *invokes* the harness (or imports its ``spec.py``); nothing under
``benchmarks/e2e/`` is written except its ignored ``out/`` directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

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


def unpack_parent_package(rev: str, into: pathlib.Path) -> None:
    """``src/repro`` of ``rev`` as the package ``repro_parent`` in ``into``."""
    archive = subprocess.run(
        ["git", "archive", rev, "src/repro"], cwd=ROOT, stdout=subprocess.PIPE, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    (into / "src" / "repro").rename(into / "repro_parent")
    strip_pycache(into)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def same_process_pairs(workload_name: str, rev: str, pairs: int) -> dict:
    """``pairs`` ABBA pairs of untraced calls, parent and change in this
    process; per side the wall seconds and minor page faults of each call,
    and whether the trees' inverses are identical."""
    from run import BLAS_PINS
    from spec import BY_NAME

    os.environ.update(BLAS_PINS)  # before numpy loads its BLAS
    import numpy as np

    workload = BY_NAME[workload_name]
    a = np.random.default_rng(0).standard_normal((workload.n, workload.n))

    def call(package) -> np.ndarray:
        config = package.InversionConfig(**workload.config)
        if workload.observed:
            with package.observe():
                return package.invert(a, config).inverse
        return package.invert(a, config).inverse

    # the parent's tree stays unpacked while it runs: it imports lazily
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        unpack_parent_package(rev, pathlib.Path(tmp))
        strip_pycache(ROOT / "src")
        sys.path[:0] = [str(ROOT / "src"), tmp]
        packages = {
            "parent": importlib.import_module("repro_parent"),
            "change": importlib.import_module("repro"),
        }
        inverses = {side: call(package) for side, package in packages.items()}  # warm-up
        runs = {side: {"invert_wall_s": [], "minflt": []} for side in packages}
        for i in range(pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                faults = minor_faults()
                start = time.perf_counter()
                call(packages[side])
                runs[side]["invert_wall_s"].append(time.perf_counter() - start)
                runs[side]["minflt"].append(minor_faults() - faults)
    return {
        "runs": runs,
        "identical": bool(np.array_equal(inverses["parent"], inverses["change"])),
    }


def summarize_same_process(runs: dict[str, dict[str, list[float]]]) -> dict:
    """:func:`summarize`'s row for ``invert_wall_s``, with each side's
    median minor page faults per call and the median of the pairs'
    change/parent ratios (the two calls of a pair share the host's speed of
    the moment, so the ratio drops a drift the medians keep)."""
    sides = ("parent", "change")
    walls = ([{"invert_wall_s": x} for x in runs[side]["invert_wall_s"]] for side in sides)
    row = summarize(*walls)["invert_wall_s"]
    for side in sides:
        row[side]["minflt_median"] = statistics.median(runs[side]["minflt"])
    row["pair_ratio"] = statistics.median(y / x for x, y in row["pairs"]) - 1.0
    return row


def report_same_process(row: dict) -> None:
    print(f"\n{'side':<8}{'invert_wall_s median [q1, q3]':>36}{'wins':>6}{'ru_minflt/call':>16}")
    for side in ("parent", "change"):
        cell = f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
        print(f"{side:<8}{cell:>36}{row['wins'][side]:>6}{row[side]['minflt_median']:>16,.0f}")
    print(f"delta of the medians: {row['delta']:+.1%}"
          f"   median of the pair ratios: {row['pair_ratio']:+.1%}")  # fmt: skip


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--json", type=pathlib.Path, help="also write the table's numbers here")
    parser.add_argument(
        "--same-process", action="store_true",
        help="alternate untraced calls of both trees in this process",
    )  # fmt: skip
    args = parser.parse_args()

    if args.same_process:
        measured = same_process_pairs(args.workload, args.parent, args.pairs)
        summary = summarize_same_process(measured["runs"])
        print(f"{args.workload}: {args.pairs} same-process ABBA pairs against {args.parent}, "
              f"inverses {'identical' if measured['identical'] else 'DIFFER'}")  # fmt: skip
        report_same_process(summary)
        if args.json is not None:
            document = {
                "workload": args.workload,
                "parent": args.parent,
                "pairs": args.pairs,
                "same_process": True,
                "identical": measured["identical"],
                "invert_wall_s": summary,
            }
            args.json.write_text(json.dumps(document, indent=1) + "\n")
        return 0 if measured["identical"] else 1

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
