"""Memory budget: each matrix is held once, and only while a step reads it.

Two guards.  The traced allocation peak of one call at the smoke shape of
the ``kernel_n1536`` benchmark workload (``n=384, nb=48, m0=4``) stays under
its measured value plus 10 %: whole-file DFS blocks keep one copy of every
file (no split, no join, cache views into the stored payload), and each
intermediate is deleted once the last step reading it has committed.  And
after a run, the files under the work root are exactly the run's outcome set
(:meth:`repro.analysis.model.PipelineModel.outcome`) plus, with the output
commit on, one manifest per committed step.  The final job retires its
``INV`` files and the factors at its commit, so it resumes by its manifest
like every other step; ``lu``, which has no final job, keeps the factors.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.analysis import build_model
from repro.chaos import DriverCrashError
from repro.dfs import DFS, fsck
from repro.dfs.commit import COMMIT_DIR
from repro.inversion import MatrixInverter, driver

#: Traced peak of one smoke-shape call, in units of one ``n x n`` float64
#: matrix, as measured when the triangular kernels started solving against
#: the factors' stored pieces instead of an assembled copy (5.21 before;
#: 6.56 before the final job's ``INV`` files became their nonzero panels;
#: 8.02 before retirement, with the 1 MiB block split and every
#: intermediate kept to the end).
MEASURED_PEAK_N2 = 4.97


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


def test_final_mappers_peak_below_the_final_reducers(monkeypatch):
    """The final mappers hold the factor pieces and their share of an
    inverse, never an assembled ``n x n`` factor: their phase peaks below
    the reducers', which hold the gathered panels and their block."""
    from repro.mapreduce.master import JobTracker

    n = 384
    config = InversionConfig(nb=48, m0=4)
    a = np.random.default_rng(0).standard_normal((n, n))
    peaks = {}
    run_phase = JobTracker._run_phase

    def traced(self, conf, kind, *args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return run_phase(self, conf, kind, *args, **kwargs)
        finally:
            peaks[f"{conf.name}[{kind.value}]"] = tracemalloc.get_traced_memory()[1]

    invert(a, config)
    gc.collect()
    monkeypatch.setattr(JobTracker, "_run_phase", traced)
    tracemalloc.start()
    try:
        invert(a, config)
    finally:
        tracemalloc.stop()
    assert peaks["invert-final[map]"] < peaks["invert-final[reduce]"]


def _data_files(dfs, root):
    return {path for path in dfs.list_files(root) if f"/{COMMIT_DIR}/" not in path}


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"separate_files": False},
        {"block_wrap": False, "transpose_u": False},
        {"output_commit": False},
        {"schedule": "dataflow", "executor": "threads", "num_workers": 2},
    ],
    ids=["default", "combined", "naive", "no-commit", "dataflow"],
)
def test_invert_leaves_exactly_the_outcome_set(options):
    n = 48
    config = InversionConfig(nb=6, m0=4, **options)
    a = np.random.default_rng(1).standard_normal((n, n)) + n * np.eye(n)
    model = build_model(n, config)
    with MatrixInverter(config) as inverter:
        result = inverter.invert(a)
        assert np.allclose(result.inverse @ a, np.eye(n), atol=1e-8)
        dfs = inverter.runtime.dfs
        assert _data_files(dfs, config.root) == model.outcome()
        manifests = set(dfs.list_files(config.root)) - model.outcome()
        assert manifests == model.manifest_writes
        # Everything a finished run is asked for afterwards is still there.
        assert inverter.distributed_residual(result) < 1e-8


def test_lu_keeps_the_factor_files():
    """The final job retires the factors; ``lu`` has no final job, so it
    leaves the outcome set less ``FINAL/*``, plus every factor file."""
    n = 48
    config = InversionConfig(nb=6, m0=4)
    a = np.random.default_rng(2).standard_normal((n, n)) + n * np.eye(n)
    model = build_model(n, config)
    final_map = model.find_step("invert-final[map]")
    final_reduce = model.find_step("invert-final[reduce]")
    assert set(model.retirements()["invert-final"]) >= final_map.reads - model.outcome()
    with MatrixInverter(config) as inverter:
        factors = inverter.lu(a)
        files = _data_files(inverter.runtime.dfs, config.root)
    assert files == (model.outcome() - final_reduce.writes) | final_map.reads
    lower, upper = factors.lower, factors.upper
    assert np.allclose(lower @ upper, a[factors.perm], atol=1e-8)


def _final_launches(runtime):
    return sum(job.name == "invert-final" for job in runtime.history)


def _resume_case():
    n = 48
    config = InversionConfig(nb=6, m0=4)
    a = np.random.default_rng(3).standard_normal((n, n)) + n * np.eye(n)
    return a, config, build_model(n, config), invert(a, config).inverse


def test_crash_after_the_final_manifest_resumes_without_rerunning_it(monkeypatch):
    """The final job is keyed on its manifest like every other unit: a
    driver crash in ``collect-output`` resumes from ``FINAL/*`` and the perm
    files alone, without a second ``invert-final``."""
    a, config, model, clean = _resume_case()
    real = driver.read_final_inverse

    def crash_once(layout, reader):
        monkeypatch.setattr(driver, "read_final_inverse", real)
        raise DriverCrashError("injected crash in collect-output")

    monkeypatch.setattr(driver, "read_final_inverse", crash_once)
    with MatrixInverter(config) as inverter:
        with pytest.raises(DriverCrashError):
            inverter.invert(a)
        # Committed: its INV files and the factors are already gone.
        assert _data_files(inverter.runtime.dfs, config.root) == model.outcome()
        result = inverter.invert(a, resume=True)
    assert _final_launches(inverter.runtime) == 1
    assert result.inverse.tobytes() == clean.tobytes()


def test_crash_between_the_final_manifest_and_its_deletes(monkeypatch):
    """A crash after the final job's manifest but before its deletes leaves
    what it retires — ``INV/*`` and the factors — as ``retired-file``
    debris, which the resume-time fsck removes."""
    a, config, model, clean = _resume_case()
    retired = set(model.retirements()["invert-final"])
    assert any("/INV/" in path for path in retired)
    dfs = DFS()
    real_delete = dfs.delete

    def crash_before_retiring(*paths, **kwargs):
        # The final job's retirements are one batched call: dying at its
        # entry deletes none of them.
        if retired & set(paths):
            monkeypatch.setattr(dfs, "delete", real_delete)
            raise DriverCrashError(f"injected crash before deleting {paths}")
        real_delete(*paths, **kwargs)

    monkeypatch.setattr(dfs, "delete", crash_before_retiring)
    with MatrixInverter(config, dfs=dfs) as inverter:
        with pytest.raises(DriverCrashError):
            inverter.invert(a)
        debris = fsck(dfs, root=config.root, repair=False).issues
        assert {issue.kind for issue in debris} == {"retired-file"}
        assert {issue.path for issue in debris} == retired
        result = inverter.invert(a, resume=True)
        assert _data_files(dfs, config.root) == model.outcome()
        assert fsck(dfs, root=config.root, repair=False).clean
    assert _final_launches(inverter.runtime) == 1
    assert result.inverse.tobytes() == clean.tobytes()
