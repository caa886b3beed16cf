"""The telemetry subsystem: spans, metrics, reconciliation, zero-cost path."""

import json
import tracemalloc

import numpy as np
import pytest

from repro import InversionConfig, MetricsRegistry, TraceConfig, observe
from repro.inversion import MatrixInverter
from repro.inversion.plan import total_job_count
from repro.mapreduce import (
    FailAlways,
    JobFailedError,
    MapReduceRuntime,
    RuntimeConfig,
    TaskKind,
)
from repro.telemetry import NULL_TRACER, SpanKind, current_tracer
from repro.telemetry.cli import main as trace_main, run_traced_inversion

from conftest import random_invertible


def traced_inversion(n=48, nb=16, m0=4, seed=3):
    """One small observed inversion; returns (observation, result, runtime)."""
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n)
    runtime = MapReduceRuntime(config=RuntimeConfig(num_workers=m0))
    try:
        with observe() as obs:
            inverter = MatrixInverter(
                config=InversionConfig(nb=nb, m0=m0), runtime=runtime
            )
            result = inverter.invert(a)
    finally:
        runtime.shutdown()
    return obs, result


class TestSpanTree:
    @pytest.fixture(scope="class")
    def traced(self):
        return traced_inversion()

    def test_single_run_span_roots_the_tree(self, traced):
        obs, _ = traced
        runs = [s for s in obs.spans if s.kind is SpanKind.RUN]
        assert len(runs) == 1
        assert runs[0].parent_id is None
        assert runs[0].name == "invert"

    def test_job_span_count_matches_closed_form(self, traced):
        obs, result = traced
        jobs = [s for s in obs.spans if s.kind is SpanKind.JOB]
        expected = total_job_count(48, 16)  # 2^d + 1
        assert len(jobs) == expected == result.num_jobs

    def test_hierarchy_run_job_wave_task(self, traced):
        """Every TASK hangs off a WAVE, every WAVE off a JOB, every JOB and
        MASTER_PHASE off the RUN — no orphans anywhere."""
        obs, _ = traced
        by_id = {s.span_id: s for s in obs.spans}
        run_id = next(s for s in obs.spans if s.kind is SpanKind.RUN).span_id
        parent_kind_of = {
            SpanKind.TASK: SpanKind.WAVE,
            SpanKind.WAVE: SpanKind.JOB,
        }
        for span in obs.spans:
            want = parent_kind_of.get(span.kind)
            if want is not None:
                assert by_id[span.parent_id].kind is want, span
            elif span.kind in (SpanKind.JOB, SpanKind.MASTER_PHASE):
                assert span.parent_id == run_id, span

    def test_all_spans_share_the_trace_id(self, traced):
        obs, _ = traced
        assert {s.trace_id for s in obs.spans} == {obs.trace_id}

    def test_task_spans_carry_io_attributes(self, traced):
        obs, _ = traced
        committed = [
            s
            for s in obs.spans
            if s.kind is SpanKind.TASK and s.attrs.get("committed")
        ]
        assert committed
        assert all("bytes_read" in s.attrs for s in committed)
        assert any(s.attrs["bytes_read"] > 0 for s in committed)

    def test_metrics_absorbed_from_counters_and_iostats(self, traced):
        obs, _ = traced
        snap = obs.metrics.to_dict()
        assert any(k.startswith("mapreduce.") for k in snap["counters"])
        assert snap["gauges"].get("dfs.bytes_read", 0) > 0


class TestMetricsRoundTrip:
    def test_to_dict_from_dict_exact(self):
        reg = MetricsRegistry()
        reg.counter("jobs").increment(17)
        reg.gauge("load").set(2.5)
        hist = reg.histogram("latency", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            hist.observe(v)
        snap = reg.to_dict()
        assert MetricsRegistry.from_dict(snap).to_dict() == snap
        # And it survives JSON, which is how exporters persist it.
        assert MetricsRegistry.from_dict(json.loads(json.dumps(snap))).to_dict() == snap

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").increment(2)
        b.counter("x").increment(3)
        b.histogram("h", (1.0,)).observe(0.5)
        a.merge(b)
        assert a.counter("x").value == 5
        assert a.histogram("h", (1.0,)).count == 1


class TestDisabledTelemetry:
    def test_no_ambient_tracer_outside_observe(self):
        assert current_tracer() is NULL_TRACER

    def test_untraced_run_records_nothing(self):
        rng = np.random.default_rng(0)
        a = random_invertible(rng, 32)
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inverter:
            inverter.invert(a)
        assert current_tracer() is NULL_TRACER
        assert NULL_TRACER.spans == []

    def test_disabled_config_resolves_to_null_tracer(self):
        assert TraceConfig(enabled=False).tracer() is NULL_TRACER

    def test_disabled_path_allocates_nothing_in_telemetry(self):
        """With telemetry off, instrumentation sites must not allocate inside
        the telemetry package (the zero-cost contract)."""
        rng = np.random.default_rng(1)
        a = random_invertible(rng, 32)
        inverter = MatrixInverter(InversionConfig(nb=8, m0=4))
        inverter.invert(a)  # warm every code path first
        tracemalloc.start()
        try:
            inverter.invert(a)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            inverter.close()
        telemetry_allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*telemetry*")]
        ).statistics("filename")
        assert telemetry_allocs == []


class TestReconciliation:
    def test_traced_cli_run_reconciles(self):
        obs, result, report = run_traced_inversion(n=48, nb=16, m0=4)
        assert report.ok, report.format()
        assert report.job_span_count == total_job_count(48, 16)
        for row in report.jobs:
            assert row.read_delta <= report.tolerance
            assert row.write_delta <= report.tolerance
        assert report.totals is not None
        assert report.totals.replication_factor >= 1

    def test_cli_json_mode(self, capsys):
        code = trace_main(["--n", "48", "--nb", "16", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["job_spans"] == payload["expected_job_spans"]

    def test_commit_ledger_reconciles_to_zero(self):
        """With the output-commit protocol on (the default), the staging
        ledger must conserve exactly: staged == published + discarded."""
        obs, result, report = run_traced_inversion(n=48, nb=16, m0=4)
        totals = report.totals
        assert totals is not None
        assert result.config.output_commit
        assert totals.bytes_staged > 0
        assert totals.bytes_staged == totals.bytes_published + totals.bytes_discarded
        assert totals.commit_delta == 0.0
        assert "output commit" in report.format()


class TestFailureCorrelation:
    def test_job_failed_error_carries_trace_and_span(self, dfs):
        runtime = MapReduceRuntime(
            dfs=dfs,
            config=RuntimeConfig(num_workers=3),
            fault_policy=FailAlways(kind=TaskKind.MAP, task_index=0),
        )
        from test_mapreduce_faults import simple_conf

        with observe(TraceConfig(trace_id="failtrace")):
            with pytest.raises(JobFailedError) as excinfo:
                runtime.run_job(simple_conf(max_attempts=2))
        err = excinfo.value
        assert err.trace_id == "failtrace"
        assert err.job_span_id
        assert "failtrace" in str(err)
        # The failed attempts are span-correlated too.
        assert any(f.span_id for f in err.attempts)
        runtime.shutdown()

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_untraced_failure_carries_none_not_empty_ids(self, dfs, executor):
        # The null tracer's shared no-op span has "" ids; none of them may
        # leak into the error (callers test `is None`).
        from test_mapreduce_faults import simple_conf

        with MapReduceRuntime(
            dfs=dfs,
            config=RuntimeConfig(num_workers=3, executor=executor),
            fault_policy=FailAlways(kind=TaskKind.MAP, task_index=0),
        ) as runtime:
            with pytest.raises(JobFailedError) as excinfo:
                runtime.run_job(simple_conf(max_attempts=2))
        err = excinfo.value
        assert err.trace_id is None and err.job_span_id is None
        assert len(err.attempts) == 2
        assert all(f.span_id is None for f in err.attempts)
        assert "trace" not in str(err) and "span" not in str(err)
