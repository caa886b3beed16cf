"""The paper's evaluation, one module per table/figure/section:

====================  ==========================================
``table1``            Table 1 — LU decomposition cost model
``table2``            Table 2 — inversion cost model
``table3``            Table 3 — the M1-M5 matrix suite
``fig6``              Figure 6 — strong scalability
``fig7``              Figure 7 — optimization ablations
``fig8``              Figure 8 — ScaLAPACK running-time ratio
``sec72``             Section 7.2 — numerical accuracy
``sec74``             Section 7.4 — the very large matrix + faults
``sec75``             Section 7.5 — ScaLAPACK head-to-head
``launch_overhead``   Section 7.2 — HaLoop / launch-cost study
====================  ==========================================

Each module exposes ``run(...) -> <Result>`` and ``format_result`` and can be
executed directly (``python -m repro.experiments.fig6``).
"""

from . import (
    fig6,
    fig7,
    fig8,
    launch_overhead,
    sec72,
    sec74,
    sec75,
    table1,
    table2,
    table3,
)
from .harness import ExperimentHarness

__all__ = [
    "ExperimentHarness",
    "fig6",
    "launch_overhead",
    "fig7",
    "fig8",
    "sec72",
    "sec74",
    "sec75",
    "table1",
    "table2",
    "table3",
]
