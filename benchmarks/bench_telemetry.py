"""Telemetry overhead: the disabled path must be free, the enabled path cheap.

The zero-cost contract (``docs/observability.md``): outside an ``observe``
block every instrumentation site resolves the no-op tracer, whose spans are
one shared inert object.  ``bench_disabled_vs_baseline`` measures that directly —
the same engine job with and without an enabled tracer — and the disabled
run is also comparable against ``bench_engine.py``'s numbers from before the
instrumentation landed.
"""

import numpy as np
import pytest

from repro import InversionConfig, observe
from repro.inversion import MatrixInverter
from repro.mapreduce import (
    FnMapper,
    JobConf,
    MapReduceRuntime,
    Reducer,
    splits_for_workers,
)
from repro.telemetry import NULL_TRACER, current_tracer


class CountReducer(Reducer):
    def reduce(self, ctx, key, values):
        ctx.emit(key, sum(1 for _ in values))


def _job_conf():
    return JobConf(
        name="telemetry-bench",
        mapper_factory=lambda: FnMapper(
            lambda ctx, split: ctx.emit(split.payload, 1)
        ),
        reducer_factory=CountReducer,
        splits=splits_for_workers(4),
        num_reduce_tasks=4,
    )


def test_job_dispatch_telemetry_disabled(benchmark):
    """Engine dispatch with telemetry off — the bench_engine.py twin; any
    drift against test_engine_job_dispatch_overhead is instrumentation tax."""
    rt = MapReduceRuntime()
    result = benchmark(rt.run_job, _job_conf())
    assert result.succeeded
    assert current_tracer() is NULL_TRACER


def test_job_dispatch_telemetry_enabled(benchmark):
    """The same job with a live tracer (spans + metrics recorded)."""
    rt = MapReduceRuntime()
    with observe() as obs:
        result = benchmark(rt.run_job, _job_conf())
    assert result.succeeded
    assert obs.spans


def test_inversion_telemetry_disabled(benchmark):
    """A small full inversion on the disabled path (DFS + master-phase +
    wave instrumentation sites all active but dormant)."""
    a = np.random.default_rng(0).standard_normal((64, 64)) + 64 * np.eye(64)
    inverter = MatrixInverter(InversionConfig(nb=16, m0=4))
    result = benchmark(inverter.invert, a)
    assert result.residual(a) < 1e-8
    inverter.close()


def test_null_span_hot_path(benchmark):
    """The per-call cost instrumented code pays when telemetry is off."""

    def probe():
        tracer = current_tracer()
        if tracer.enabled:  # pragma: no cover - disabled in this benchmark
            raise AssertionError
        return tracer

    assert benchmark(probe) is NULL_TRACER
