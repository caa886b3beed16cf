"""Regenerate every table and figure in one run.

Usage:  python -m repro.experiments.run_all [--fast]

``--fast`` shrinks the sweeps (used by CI-style smoke runs); the default
settings match what EXPERIMENTS.md records.
"""

from __future__ import annotations

import sys
import time

from . import fig6, fig7, fig8, sec72, sec74, sec75, table1, table2, table3
from .harness import ExperimentHarness


def main(fast: bool = False) -> None:
    harness = ExperimentHarness()
    started = time.perf_counter()

    sections: list[tuple[str, callable]] = [
        ("Table 1", lambda: table1.format_result(table1.run(n=256, nb=32, m0=8))),
        (
            "Table 2",
            lambda: table2.format_result(
                table2.run(n=256, nb=32, m0=8, harness=harness)
            ),
        ),
        (
            "Table 3",
            lambda: table3.format_result(
                table3.run(execute=not fast, scale=128, harness=harness)
            ),
        ),
        (
            "Figure 6",
            lambda: fig6.format_result(
                fig6.run(
                    node_counts=(2, 4, 8) if fast else (2, 4, 8, 16, 32, 64),
                    matrices=("M5",) if fast else ("M1", "M2", "M3"),
                    scale=128,
                    harness=harness,
                )
            ),
        ),
        (
            "Figure 7",
            lambda: fig7.format_result(
                fig7.run(
                    node_counts=(4, 8) if fast else (4, 8, 16, 32, 64),
                    scale=128,
                    harness=harness,
                )
            ),
        ),
        (
            "Figure 8",
            lambda: fig8.format_result(
                fig8.run(measure_traffic=not fast, harness=harness)
            ),
        ),
        (
            "Section 7.2",
            lambda: sec72.format_result(
                sec72.run(
                    matrices=("M5",) if fast else ("M1", "M2", "M3", "M5"),
                    scale=128,
                    harness=harness,
                )
            ),
        ),
        (
            "Section 7.4",
            lambda: sec74.format_result(
                sec74.run(
                    scale=128,
                    m0_large=8 if fast else 128,
                    m0_medium=4 if fast else 64,
                    harness=harness,
                )
            ),
        ),
        (
            "Section 7.5",
            lambda: sec75.format_result(
                sec75.run(scale=128, m0=4 if fast else 8, harness=harness)
            ),
        ),
    ]

    for name, render in sections:
        t0 = time.perf_counter()
        output = render()
        dt = time.perf_counter() - t0
        print(f"\n{'=' * 72}\n{output}\n[{name} regenerated in {dt:.1f} s]")

    print(f"\ntotal: {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
