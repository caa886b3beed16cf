"""The pre-flight's table of linted pipelines, one entry per ``(n, config)``.

The plan and DF rules judge ``(n, config)`` alone, so the first call of a
pair in a process runs them and keeps the model that passed; later calls
reuse it and run only the purity rules, which judge code.  A warm call must
do exactly what a cold one does, a defect must be reported on every call,
and the table must stay bounded and safe to fill from two threads.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

import repro
import repro.analysis as analysis
import repro.analysis.cli as analysis_cli
from repro.analysis import PLAN_TABLE_SIZE, PreflightError, preflight_check
from repro.inversion import MatrixInverter
from repro.inversion.lu_jobs import LUJobMapper

from conftest import spec_workloads

#: The ledger counters that repeat on every workload; the rest of the read
#: half depends on thread interleaving where a workload's reads are racy.
WRITE_COUNTERS = (
    "bytes_written",
    "files_created",
    "write_ops",
    "files_deleted",
    "bytes_staged",
    "bytes_published",
    "bytes_discarded",
    "files_published",
    "files_discarded",
)


@pytest.fixture
def empty_table(monkeypatch) -> OrderedDict:
    """A fresh table for this test: earlier tests may have filled the
    process's with the pairs used here."""
    table: OrderedDict = OrderedDict()
    monkeypatch.setattr(analysis, "_plans", table)
    return table


def _call(workload, a):
    config = repro.InversionConfig(**workload.config)
    if workload.observed:
        with repro.observe():
            return repro.invert(a, config)
    return repro.invert(a, config)


def _steps(result) -> list[tuple[str, str]]:
    return [(type(step).__name__, step.name) for step in result.record.steps]


@pytest.mark.parametrize("workload", spec_workloads(), ids=lambda w: w.name)
def test_a_warm_call_does_what_a_cold_call_does(empty_table, workload):
    w = workload.smoke()
    a = np.random.default_rng(0).standard_normal((w.n, w.n))
    cold = _call(w, a)
    assert len(empty_table) == 1
    warm = _call(w, a)
    assert warm.inverse.tobytes() == cold.inverse.tobytes()
    assert _steps(warm) == _steps(cold)
    if w.racy_counts:
        for name in WRITE_COUNTERS:
            assert getattr(warm.io, name) == getattr(cold.io, name), name
    else:
        assert warm.io == cold.io


def _corrupt_grid(model):
    model.grid = (3, 3)  # PL007: the block-wrap grid no longer factors m0


def _corrupt_order(model):
    # An LU job's map step moved before the partition job that writes its
    # input: DF002 (and PL003).
    lu = next(i for i, s in enumerate(model.steps) if s.name.startswith("lu:"))
    model.steps.insert(1, model.steps.pop(lu))


@pytest.mark.parametrize(
    "corrupt, rule", [(_corrupt_grid, "PL007"), (_corrupt_order, "DF002")]
)
def test_a_defect_is_reported_on_every_call(empty_table, monkeypatch, corrupt, rule):
    build = analysis_cli.build_model

    def defective(n, config=None):
        model = build(n, config)
        corrupt(model)
        return model

    monkeypatch.setattr(analysis_cli, "build_model", defective)
    config = repro.InversionConfig(nb=8, m0=4)
    for _ in range(2):
        with pytest.raises(PreflightError) as excinfo:
            preflight_check(64, config)
        assert rule in {f.rule for f in excinfo.value.findings}
    assert len(empty_table) == 0


def test_an_impure_task_after_a_warm_call_is_caught(empty_table, monkeypatch):
    config = repro.InversionConfig(nb=4, m0=2)
    a = np.eye(16) * 4.0
    repro.invert(a, config)
    assert len(empty_table) == 1

    def impure_map(self, ctx, split):
        ctx.emit(split.index, random.random())

    monkeypatch.setattr(LUJobMapper, "map", impure_map)
    with MatrixInverter(config) as inverter:
        with pytest.raises(PreflightError) as excinfo:
            inverter.invert(a)
        assert inverter.runtime.jobs_run() == 0
    assert "PU002" in {f.rule for f in excinfo.value.findings}


def test_the_table_keeps_at_most_its_bound(empty_table):
    config = repro.InversionConfig(nb=2, m0=2)
    orders = range(4, 4 + PLAN_TABLE_SIZE + 3)
    for n in orders:
        preflight_check(n, config)
        assert len(empty_table) <= PLAN_TABLE_SIZE
    # The least recently used pairs went first.
    assert list(empty_table) == [(n, config) for n in orders[-PLAN_TABLE_SIZE:]]
    first_kept = orders[-PLAN_TABLE_SIZE]
    preflight_check(first_kept, config)
    assert list(empty_table)[-1] == (first_kept, config)


def test_racing_first_calls_of_one_pair_share_one_model(empty_table):
    """More threads than cores make the first call of one pair at once,
    switching often: every call succeeds with the same inverse, and all of
    them run on the one model the table kept."""
    config = repro.InversionConfig(nb=8, m0=4)
    a = np.random.default_rng(5).standard_normal((64, 64))
    threads_n = 4
    start = threading.Barrier(threads_n)
    results: list = [None] * threads_n
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            start.wait(timeout=60)
            results[i] = repro.invert(a, config)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for result in results[1:]:
        assert result.inverse.tobytes() == results[0].inverse.tobytes()
        assert result.io == results[0].io
        assert result.layout is results[0].layout
    assert list(empty_table) == [(64, config)]
