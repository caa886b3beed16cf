"""The driver runs the static model's units: the pipeline is described once.

``build_model`` walks Algorithm 2 and the pre-flight lints that walk; the
driver schedules :meth:`PipelineModel.units` instead of walking the plan
again.  On every benchmark configuration (at its smoke order), with the
Section 6.1 ablation and for ``lu()``, the units handed to the runner are
the model's: the same names, kinds and order.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import InversionConfig, MatrixInverter
from repro.analysis.model import build_model
from repro.inversion import driver

from conftest import spec_workloads


CASES = [(w.name, w.smoke().n, w.smoke().config, w.observed) for w in spec_workloads()] + [
    ("separate_files_off", 128, {"nb": 4, "m0": 4, "separate_files": False}, False),
    ("separate_files_off_m2", 37, {"nb": 10, "m0": 2, "separate_files": False}, False),
]


@pytest.fixture
def scheduled(monkeypatch):
    """Every unit list the driver hands a runner, as ``(name, kind)``."""
    lists = []
    run_in_order, scheduler = driver.run_in_order, driver.DataflowScheduler

    def recording_run_in_order(units):
        lists.append([(u.name, u.kind) for u in units])
        return run_in_order(units)

    def recording_scheduler(*, dfs, units):
        lists.append([(u.name, u.kind) for u in units])
        return scheduler(dfs=dfs, units=units)

    monkeypatch.setattr(driver, "run_in_order", recording_run_in_order)
    monkeypatch.setattr(driver, "DataflowScheduler", recording_scheduler)
    return lists


def _model_units(n, config, *, final=True):
    units = [
        (step.unit, "job" if step.job else "phase")
        for step in build_model(n, config).units()
    ]
    if not final:
        assert units[-1] == ("invert-final", "job")
        units = units[:-1]
    return units


@pytest.mark.parametrize("name,n,config,observed", CASES, ids=[c[0] for c in CASES])
def test_the_driver_runs_the_model_units(scheduled, name, n, config, observed):
    cfg = InversionConfig(**config)
    a = np.random.default_rng(n).standard_normal((n, n))
    if observed:
        with repro.observe():
            result = repro.invert(a, cfg)
    else:
        result = repro.invert(a, cfg)
    assert np.allclose(result.inverse @ a, np.eye(n), atol=1e-6)
    assert scheduled == [_model_units(n, cfg)]
    combines = [unit for unit, _ in scheduled[0] if unit.startswith("combine:")]
    assert len(combines) == (0 if cfg.separate_files else len(result.plan.tree.internal_nodes()))


@pytest.mark.parametrize("separate_files", [True, False])
def test_lu_stops_before_the_inversion_job(scheduled, separate_files):
    cfg = InversionConfig(nb=8, m0=4, separate_files=separate_files)
    a = np.random.default_rng(1).standard_normal((64, 64))
    with MatrixInverter(cfg) as inverter:
        factors = inverter.lu(a)
    assert scheduled == [_model_units(64, cfg, final=False)]
    assert np.allclose(factors.lower @ factors.upper, a[factors.perm])


def test_model_units_are_every_job_and_the_inner_master_phases():
    model = build_model(64, InversionConfig(nb=16, m0=4, separate_files=False))
    units = model.units()
    assert [s.job for s in units if s.job] == model.job_names
    phases = [s.name for s in units if not s.job]
    assert phases == [s.name for s in model.steps if s.kind == "master"][1:-1]
    assert "write-input" not in phases and "collect-output" not in phases
    for step in units:
        if step.unit.startswith(("lu:", "master-lu:", "combine:")):
            assert step.unit.endswith(":" + step.node.dir)
        else:
            assert step.node is None
