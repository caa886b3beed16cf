"""The telemetry subsystem: spans, metrics, reconciliation, zero-cost path."""

import json
import tracemalloc

import numpy as np
import pytest

from repro import InversionConfig, MetricsRegistry, observe
from repro.inversion import MatrixInverter
from repro.inversion.plan import total_job_count
from repro.mapreduce import (
    FailAlways,
    JobFailedError,
    MapReduceRuntime,
    TaskKind,
)
from repro.telemetry import (
    NULL_TRACER,
    Span,
    SpanKind,
    current_span,
    current_tracer,
    read_jsonl,
)
from repro.telemetry.cli import main as trace_main, run_traced_inversion
from repro.telemetry.reconcile import dfs_replication_factor

from conftest import random_invertible


def traced_inversion(n=48, nb=16, m0=4, seed=3):
    """One small observed inversion; returns (observation, result)."""
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n)
    with MatrixInverter(InversionConfig(nb=nb, m0=m0)) as inverter:
        with observe() as obs:
            result = inverter.invert(a)
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
        # The run totals are the folded read/write records, not a zero that
        # happens to match.
        totals = report.totals
        assert totals.span_bytes_read == totals.iostats_bytes_read > 0
        assert (
            totals.span_bytes_written * totals.replication_factor
            == totals.iostats_bytes_written
            > 0
        )

    def test_cli_json_mode(self, capsys):
        code = trace_main(["--n", "48", "--nb", "16", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["job_spans"] == payload["expected_job_spans"]
        # Structural spans only: DFS operations are records, not spans.
        assert set(payload["span_counts"]) == {
            "run", "job", "wave", "task", "master-phase"
        }

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


class TestFoldedIO:
    """A DFS operation opens no span: it folds one record into the span open
    on its thread, and the records account for the DFS ledger exactly."""

    STRUCTURAL = {
        SpanKind.RUN, SpanKind.JOB, SpanKind.WAVE, SpanKind.TASK,
        SpanKind.MASTER_PHASE,
    }

    @staticmethod
    def observed_invert(a, executor="serial", **config):
        with observe() as obs:
            with MatrixInverter(
                InversionConfig(executor=executor, **config)
            ) as inverter:
                result = inverter.invert(a)
                replication = dfs_replication_factor(inverter.runtime.dfs)
        return obs, result, replication

    def test_span_count_is_the_structural_closed_form(self):
        """deep_n512_nb16's smoke shape: 33 jobs, 260 tasks — 393 spans."""
        a = np.random.default_rng(0).standard_normal((128, 128))
        obs, result, _ = self.observed_invert(a, nb=4, m0=4)
        jobs = result.record.job_results
        waves = sum(1 + bool(job.reduce_traces) for job in jobs)
        tasks = sum(job.attempts_launched for job in jobs)
        phases = len(result.record.master_phases)
        assert len(obs.spans) == 1 + len(jobs) + waves + tasks + phases == 393
        assert {s.kind for s in obs.spans} == self.STRUCTURAL

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_records_account_for_the_dfs_ledger(self, executor):
        a = random_invertible(np.random.default_rng(3), 48)
        obs, result, replication = self.observed_invert(a, executor, nb=16, m0=4)
        records = [r for span in obs.spans for r in span.io] + obs.root_io
        reads = [r for r in records if r[0] in ("read", "export")]
        written = sum(r[2] for r in records if r[0] in ("write", "stage"))
        io = result.io
        assert len(reads) == io.read_ops > 0
        # Only the process pool's driver exports the namespace, on wave spans.
        exports = {s.kind for s in obs.spans if any(r[0] == "export" for r in s.io)}
        assert exports == ({SpanKind.WAVE} if executor == "processes" else set())
        assert sum(r[2] for r in reads) == io.bytes_read
        assert written * replication == io.bytes_written
        published = [r for r in records if r[0] == "publish"]
        assert sum(r[2] for r in published) == io.bytes_published

    def test_dfs_op_outside_any_span_lands_in_the_root_list(self, dfs):
        with observe() as obs:
            dfs.write_bytes("/x", b"abc")
            assert dfs.read_range("/x", 1, 2) == b"bc"
        assert obs.spans == []
        assert [r[:3] for r in obs.root_io] == [("write", "/x", 3), ("read", "/x", 2)]
        assert all(r[3] >= 0.0 for r in obs.root_io)

    def test_records_survive_dict_and_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        a = random_invertible(np.random.default_rng(3), 48)
        with observe(jsonl=path) as obs:
            with MatrixInverter(InversionConfig(nb=16, m0=4)) as inverter:
                inverter.invert(a)
        spans = obs.spans
        assert sum(len(s.io) for s in spans) > 0
        for span in spans:
            assert Span.from_dict(span.to_dict()) == span
            assert Span.from_dict(json.loads(json.dumps(span.to_dict()))) == span
        loaded = {s.span_id: s.io for s in read_jsonl(path)}
        assert loaded == {s.span_id: s.io for s in spans}

    def test_threads_fold_only_into_spans_their_own_thread_opened(
        self, monkeypatch
    ):
        import threading

        import repro.dfs.filesystem as filesystem
        from repro.telemetry import spans as spans_module

        opened_by: dict[str, int] = {}
        folds: list[tuple[str, int]] = []
        enter = spans_module._OpenSpan.__enter__
        fold = filesystem.fold_io

        def tracking_enter(self):
            span = enter(self)
            opened_by[span.span_id] = threading.get_ident()
            return span

        def tracking_fold(op, path, nbytes, start):
            span = current_span()
            if span is not None:
                folds.append((span.span_id, threading.get_ident()))
            fold(op, path, nbytes, start)

        monkeypatch.setattr(spans_module._OpenSpan, "__enter__", tracking_enter)
        monkeypatch.setattr(filesystem, "fold_io", tracking_fold)
        a = random_invertible(np.random.default_rng(3), 48)
        obs, _, _ = self.observed_invert(
            a, "threads", nb=16, m0=4, schedule="dataflow"
        )
        assert len(folds) == sum(len(s.io) for s in obs.spans)
        assert len({thread for _, thread in folds}) > 1  # really threaded
        assert all(opened_by[span_id] == thread for span_id, thread in folds)

    def test_render_tree_shows_folded_io(self):
        a = random_invertible(np.random.default_rng(3), 48)
        obs, _, _ = self.observed_invert(a, nb=16, m0=4)
        tree = obs.render_tree()
        assert "dfs_ops=" in tree and "dfs_bytes=" in tree
        assert tree.count("\n") + 1 == len(obs.spans)

    def test_duration_histograms_cover_every_span(self):
        a = random_invertible(np.random.default_rng(3), 48)
        obs, _, _ = self.observed_invert(a, nb=16, m0=4)
        histograms = obs.metrics.to_dict()["histograms"]
        counts = {name: h["count"] for name, h in histograms.items()}
        assert sum(counts.values()) == len(obs.spans)
        assert counts["span.task.seconds"] == sum(
            s.kind is SpanKind.TASK for s in obs.spans
        )
        # Reading the registry again adds nothing.
        assert obs.metrics.to_dict()["histograms"] == histograms


class TestFailureCorrelation:
    def test_job_failed_error_carries_trace_and_span(self, dfs):
        runtime = MapReduceRuntime(
            dfs=dfs,
            num_workers=3,
            fault_policy=FailAlways(kind=TaskKind.MAP, task_index=0),
        )
        from test_mapreduce_faults import simple_conf

        with observe(trace_id="failtrace"):
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
            num_workers=3, executor=executor,
            fault_policy=FailAlways(kind=TaskKind.MAP, task_index=0),
        ) as runtime:
            with pytest.raises(JobFailedError) as excinfo:
                runtime.run_job(simple_conf(max_attempts=2))
        err = excinfo.value
        assert err.trace_id is None and err.job_span_id is None
        assert len(err.attempts) == 2
        assert all(f.span_id is None for f in err.attempts)
        assert "trace" not in str(err) and "span" not in str(err)
