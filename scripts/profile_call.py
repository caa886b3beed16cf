"""cProfile of one ``repro.invert`` call of an end-to-end benchmark workload.

Usage:  python scripts/profile_call.py --workload W [--smoke] [--top 25]
        make profile W=deep_n512_nb16

One warm-up call, then one profiled call of the workload exactly as
``benchmarks/e2e/child.py`` makes it (same input generator, same
``InversionConfig``).  Printed: total function calls, self time grouped by
source file (``src/repro/<package>/<file>``; everything else under its
top-level package), and the top rows by self time.

Call counts are deterministic for the serial workloads, so they are the
number to compare across revisions; ``tests/test_call_budget.py`` pins the
smoke shape of ``deep_n512_nb16``.  This only *imports* the harness's
``spec.py``; nothing under ``benchmarks/e2e/`` is written.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.dont_write_bytecode = True  # nothing is written under benchmarks/e2e/
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from spec import BY_NAME, Workload  # noqa: E402


def profile_workload(workload: Workload, seed: int = 0) -> pstats.Stats:
    """Warm up once, then profile one call; the profile of that call alone."""
    a = np.random.default_rng(seed).standard_normal((workload.n, workload.n))
    config = repro.InversionConfig(**workload.config)

    def call() -> None:
        if workload.observed:
            with repro.observe():
                repro.invert(a, config)
        else:
            repro.invert(a, config)

    call()
    profiler = cProfile.Profile()
    profiler.enable()
    call()
    profiler.disable()
    return pstats.Stats(profiler)


def source_group(filename: str) -> str:
    """``src/repro/<package>/<file>`` for this tree, else a coarse bucket."""
    if filename.startswith(("~", "<")):
        return "<built-in>"
    path = pathlib.Path(filename)
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        pass
    parts = path.parts
    if "site-packages" in parts:
        return parts[parts.index("site-packages") + 1]
    return "<stdlib>"


def self_time_by_file(stats: pstats.Stats) -> dict[str, tuple[float, int]]:
    """Group -> (self seconds, calls)."""
    groups: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.stats.items():  # type: ignore[attr-defined]
        cell = groups[source_group(filename)]
        cell[0] += tottime
        cell[1] += ncalls
    return {name: (cell[0], int(cell[1])) for name, cell in groups.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--smoke", action="store_true", help="quarter-order shape")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    stats = profile_workload(workload)
    total_s = stats.total_tt  # type: ignore[attr-defined]
    print(f"{workload.name}: n={workload.n} {workload.config}")
    print(f"total calls: {stats.total_calls}   self time: {total_s:.4f} s\n")  # type: ignore[attr-defined]
    print(f"{'file':<44}{'self_s':>9}{'share':>8}{'calls':>10}")
    by_file = sorted(self_time_by_file(stats).items(), key=lambda kv: -kv[1][0])
    for name, (seconds, calls) in by_file:
        if seconds / total_s >= 0.002:
            print(f"{name:<44}{seconds:>9.4f}{seconds / total_s:>8.1%}{calls:>10}")
    print()
    stats.sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
