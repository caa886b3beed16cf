"""repro — reproduction of *Scalable Matrix Inversion Using MapReduce*
(Xiang, Meng, Aboulnaga; HPDC 2014).

The package implements the paper's contribution — recursive block-LU matrix
inversion as a pipeline of MapReduce jobs — together with every substrate it
runs on (a MapReduce engine, an HDFS-like DFS, a cluster simulator) and the
baseline it is evaluated against (a ScaLAPACK-style MPI implementation).

Quickstart
----------
>>> import numpy as np
>>> from repro import invert
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal((128, 128))
>>> result = invert(a)
>>> np.max(np.abs(np.eye(128) - a @ result.inverse)) < 1e-8
True

Observability
-------------
Wrap any of the above in :func:`observe` to capture a span tree, metrics,
and a per-job timeline of everything that ran (see ``docs/observability.md``)::

>>> from repro import observe
>>> with observe() as obs:
...     result = invert(a)
>>> print(obs.render_timeline())          # doctest: +SKIP
"""

from .inversion import InversionConfig, InversionResult, MatrixInverter, invert
from .linalg import lu_decompose, LUResult
from .mapreduce.counters import Counters
from .telemetry import (
    HistoryReport,
    MetricsRegistry,
    Observation,
    observe,
)

__version__ = "1.1.0"

__all__ = [
    "Counters",
    "HistoryReport",
    "InversionConfig",
    "InversionResult",
    "MatrixInverter",
    "LUResult",
    "MetricsRegistry",
    "Observation",
    "invert",
    "lu_decompose",
    "observe",
    "__version__",
]
