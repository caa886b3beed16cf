"""Memory budget: each matrix is held once, and only while a step reads it.

Two guards.  The traced allocation peak of one call at the smoke shape of
the ``kernel_n1536`` benchmark workload (``n=384, nb=48, m0=4``) stays under
its measured value plus 10 %: whole-file DFS blocks keep one copy of every
file (no split, no join, cache views into the stored payload), and each
intermediate is deleted once the last step reading it has committed.  And
after a run, the files under the work root are exactly the run's outcome set
(:meth:`repro.analysis.model.PipelineModel.outcome`) plus, with the output
commit on, one manifest per committed step.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.analysis import build_model
from repro.dfs.commit import COMMIT_DIR
from repro.inversion import MatrixInverter
from repro.mapreduce import MapReduceRuntime

#: Traced peak of one smoke-shape call, in units of one ``n x n`` float64
#: matrix, as measured when retirement landed (8.02 before it: the 1 MiB
#: block split plus every intermediate kept to the end).
MEASURED_PEAK_N2 = 6.56


def test_peak_of_one_call_stays_in_budget():
    n = 384
    config = InversionConfig(nb=48, m0=4)
    a = np.random.default_rng(0).standard_normal((n, n))
    invert(a, config)  # warm-up: lazy imports and analyzer caches
    gc.collect()
    tracemalloc.start()
    try:
        result = invert(a, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(result.inverse @ a, np.eye(n), atol=1e-8)
    assert peak / (8 * n * n) < MEASURED_PEAK_N2 * 1.10


def _data_files(dfs, root):
    return {path for path in dfs.list_files(root) if f"/{COMMIT_DIR}/" not in path}


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"separate_files": False},
        {"block_wrap": False, "transpose_u": False},
        {"output_commit": False, "preflight": False},
        {"schedule": "dataflow", "executor": "threads", "num_workers": 2},
    ],
    ids=["default", "combined", "naive", "no-commit", "dataflow"],
)
def test_invert_leaves_exactly_the_outcome_set(options):
    n = 48
    config = InversionConfig(nb=6, m0=4, **options)
    a = np.random.default_rng(1).standard_normal((n, n)) + n * np.eye(n)
    model = build_model(n, config)
    runtime = MapReduceRuntime()
    with MatrixInverter(config=config, runtime=runtime) as inverter:
        result = inverter.invert(a)
        assert np.allclose(result.inverse @ a, np.eye(n), atol=1e-8)
        dfs = runtime.dfs
        assert _data_files(dfs, config.root) == model.outcome()
        manifests = set(dfs.list_files(config.root)) - model.outcome()
        assert manifests == model.manifest_writes
        # Everything a finished run is asked for afterwards is still there.
        assert inverter.distributed_residual(result) < 1e-8
    runtime.shutdown()


def test_lu_keeps_the_factor_files():
    n = 48
    config = InversionConfig(nb=6, m0=4)
    a = np.random.default_rng(2).standard_normal((n, n)) + n * np.eye(n)
    model = build_model(n, config)
    final = {
        path
        for step in model.steps
        if step.job == "invert-final"
        for path in step.writes
    }
    runtime = MapReduceRuntime()
    with MatrixInverter(config=config, runtime=runtime) as inverter:
        factors = inverter.lu(a)
        files = _data_files(runtime.dfs, config.root)
    runtime.shutdown()
    assert files == model.outcome() - final
    lower, upper = factors.lower, factors.upper
    assert np.allclose(lower @ upper, a[factors.perm], atol=1e-8)
