"""End-to-end coverage of the processes backend: shared-memory DFS export,
write-back through the commit protocol, crash/timeout recovery, counter
merge-back, and shared-memory lifetime hygiene.
"""

from __future__ import annotations

import glob
import os
import pickle

import pytest

from repro.dfs import DFS, fsck
from repro.dfs.shm import (
    REGISTRY,
    SEGMENT_PREFIX,
    ShmExporter,
    SharedDFSView,
)
from repro.inversion import InversionConfig, MatrixInverter
from repro.mapreduce import (
    Counters,
    DelayAttempt,
    JobConf,
    Mapper,
    MapReduceRuntime,
    Reducer,
    RetryPolicy,
    RuntimeConfig,
    ScriptedFault,
    TaskFactory,
    TaskKind,
    TaskSerializationError,
    splits_for_workers,
)
from repro.mapreduce.counters import FILESYSTEM_GROUP, BYTES_READ
from repro.mapreduce.types import TaskAttemptId, TaskId, JobId

from conftest import random_invertible


def leaked_dev_shm() -> list[str]:
    """Segment files this package left behind in /dev/shm (should be [])."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture
def process_runtime():
    dfs = DFS(num_datanodes=4, replication=3, seed=7)
    rt = MapReduceRuntime(
        dfs=dfs, config=RuntimeConfig(num_workers=2, executor="processes")
    )
    yield rt
    rt.shutdown()


class EchoMapper(Mapper):
    def map(self, ctx, split):
        ctx.emit(split.payload, split.payload * 10)


class SumReducer(Reducer):
    def reduce(self, ctx, key, values):
        ctx.emit(key, sum(values))


class ReadWriteMapper(Mapper):
    """Reads a shared input through the shm view, writes per-task output."""

    def map(self, ctx, split):
        data = ctx.read_bytes("/in/shared.bin")
        ctx.write_bytes(f"/out/part-{split.payload}", data[: split.payload + 1])
        ctx.emit(0, len(data))


class BigOutputMapper(Mapper):
    """Stages well over the inline limit, forcing shm result transport."""

    def map(self, ctx, split):
        ctx.write_bytes(f"/big/part-{split.payload}", bytes(256 * 1024))
        ctx.emit(0, 1)


class CrashOnceMapper(Mapper):
    """Hard-kills its worker process on the first attempt (no exception,
    no cleanup — the moral equivalent of an OOM kill)."""

    def map(self, ctx, split):
        if ctx.attempt_id.attempt == 0:
            os._exit(13)
        ctx.write_text(f"/crashy/recovered-{split.payload}", "ok")


class TestEndToEnd:
    def test_small_job_runs_and_merges_counters(self, process_runtime):
        conf = JobConf(
            name="echo",
            mapper_factory=EchoMapper,
            reducer_factory=SumReducer,
            splits=splits_for_workers(3),
            num_reduce_tasks=2,
        )
        result = process_runtime.run_job(conf)
        assert result.succeeded
        emitted = dict(
            pair for pairs in result.reduce_outputs.values() for pair in pairs
        )
        assert emitted == {0: 0, 1: 10, 2: 20}
        # Counters came back across the process boundary and were merged.
        assert result.counters.value(FILESYSTEM_GROUP, BYTES_READ) >= 0
        assert result.attempts_launched >= 3

    def test_reads_and_writes_cross_the_boundary(self, process_runtime):
        dfs = process_runtime.dfs
        payload = bytes(range(256)) * 4
        dfs.write_bytes("/in/shared.bin", payload)
        conf = JobConf(
            name="rw",
            mapper_factory=ReadWriteMapper,
            reducer_factory=SumReducer,
            splits=splits_for_workers(3),
        )
        result = process_runtime.run_job(conf)
        assert result.succeeded
        for i in range(3):
            assert dfs.read_bytes(f"/out/part-{i}") == payload[: i + 1]
        (pairs,) = result.reduce_outputs.values()
        assert pairs == [(0, 3 * len(payload))]

    def test_large_staged_payload_travels_via_shm(self, process_runtime):
        dfs = process_runtime.dfs
        conf = JobConf(
            name="big",
            mapper_factory=BigOutputMapper,
            splits=splits_for_workers(2),
        )
        process_runtime.run_job(conf)
        for i in range(2):
            assert dfs.file_size(f"/big/part-{i}") == 256 * 1024
        # The adopted result segments were unlinked after landing.
        assert leaked_dev_shm() == []

    def test_inversion_pipeline_under_processes(self, rng, monkeypatch):
        # Building a process pool runs no whole-package sweep: the engine's
        # process safety is gated by lint/CI/tier-1, user jobs by the pickle
        # probe at launch.
        import repro.analysis.procsafety as procsafety

        def no_runtime_sweep(paths):
            raise AssertionError("engine procsafety sweep ran at runtime")

        monkeypatch.setattr(procsafety, "analyze_procsafety_files", no_runtime_sweep)
        n = 48
        a = random_invertible(rng, n)
        inverter = MatrixInverter(
            config=InversionConfig(nb=16, m0=2, executor="processes")
        )
        try:
            result = inverter.invert(a)
            assert result.residual(a) < 1e-8
        finally:
            inverter.close()
        assert REGISTRY.live() == {}
        assert leaked_dev_shm() == []


class TestFaultRecovery:
    def test_child_crash_mid_attempt_retries_and_stays_clean(
        self, process_runtime
    ):
        conf = JobConf(
            name="crashy",
            mapper_factory=CrashOnceMapper,
            splits=splits_for_workers(2),
            retry=RetryPolicy(max_attempts=3),
        )
        result = process_runtime.run_job(conf)
        assert result.succeeded
        assert result.attempts_failed >= 1
        for i in range(2):
            assert process_runtime.dfs.read_text(f"/crashy/recovered-{i}") == "ok"
        # The kill left no commit debris: nothing staged, nothing orphaned.
        report = fsck(process_runtime.dfs, repair=False)
        assert report.clean, [str(i) for i in report.issues]

    def test_hung_attempt_killed_and_retried(self):
        dfs = DFS(num_datanodes=4, replication=3, seed=7)
        rt = MapReduceRuntime(
            dfs=dfs,
            config=RuntimeConfig(num_workers=2, executor="processes"),
            fault_policy=DelayAttempt(
                seconds=10.0, kind=TaskKind.MAP, attempts_below=1
            ),
        )
        try:
            conf = JobConf(
                name="hung",
                mapper_factory=EchoMapper,
                splits=splits_for_workers(2),
                retry=RetryPolicy(max_attempts=3, attempt_deadline=0.4),
            )
            result = rt.run_job(conf)
            assert result.succeeded
            assert result.attempts_timed_out >= 1
        finally:
            rt.shutdown()
        assert REGISTRY.live() == {}
        assert leaked_dev_shm() == []

    def test_unpicklable_job_fails_fast(self, process_runtime):
        secret = object()
        conf = JobConf(
            name="lambda-job",
            mapper_factory=lambda: EchoMapper(),  # closure: cannot pickle
            splits=splits_for_workers(2),
            params={"capture": secret},
        )
        with pytest.raises(TaskSerializationError, match="procsafety"):
            process_runtime.run_job(conf)


class TestShmLifetime:
    def test_exporter_reuses_unchanged_generations(self, dfs):
        dfs.write_bytes("/a", b"alpha")
        dfs.write_bytes("/b", b"beta")
        exporter = ShmExporter(dfs)
        try:
            m1 = exporter.sync()
            m2 = exporter.sync()
            assert m1.files == m2.files  # nothing re-exported
            assert exporter.segment_count == 1
            dfs.write_bytes("/b", b"beta-2")
            m3 = exporter.sync()
            assert m3.files["/a"] == m1.files["/a"]  # generation unchanged
            assert m3.files["/b"] != m1.files["/b"]
            assert exporter.segment_count == 2
        finally:
            exporter.close()
        assert exporter.segment_count == 0
        assert leaked_dev_shm() == []

    def test_compaction_drops_garbage(self, dfs):
        dfs.write_bytes("/x", bytes(1000))
        dfs.write_bytes("/y", b"kept")  # keeps the first segment referenced
        exporter = ShmExporter(dfs, compact_garbage_bytes=500)
        try:
            exporter.sync()
            dfs.write_bytes("/x", b"fresh")  # orphans 1000 bytes > 500
            exporter.sync()
            # Compaction dropped every segment; the next sync re-exports
            # the live set from scratch into a single fresh segment.
            assert exporter.segment_count == 0
            manifest = exporter.sync()
            assert exporter.segment_count == 1
            assert exporter.garbage_bytes == 0
            view = SharedDFSView(manifest)
            try:
                assert view.read_bytes("/x") == b"fresh"
                assert view.read_bytes("/y") == b"kept"
            finally:
                view.close()
        finally:
            exporter.close()
        assert leaked_dev_shm() == []

    def test_unlinked_segments_are_not_garbage(self, dfs):
        """A segment whose every file was dropped is unlinked outright; its
        bytes must not count toward compaction, which would otherwise throw
        away — and re-read — the live set for garbage that no longer exists."""
        dfs.write_bytes("/dead", bytes(1000))
        exporter = ShmExporter(dfs, compact_garbage_bytes=500)
        try:
            exporter.sync()
            dfs.write_bytes("/live", b"live")
            live = exporter.sync().files["/live"]
            reads = dfs.stats.read_ops
            dfs.delete("/dead")
            manifest = exporter.sync()
            assert exporter.garbage_bytes == 0
            assert exporter.segment_count == 1
            assert manifest.files == {"/live": live}  # no compaction
            assert dfs.stats.read_ops == reads  # nothing re-exported
        finally:
            exporter.close()
        assert leaked_dev_shm() == []

    def test_view_serves_bytes_and_errors(self, dfs):
        dfs.write_bytes("/d/file.bin", b"payload")
        exporter = ShmExporter(dfs)
        try:
            manifest = exporter.sync()
            view = SharedDFSView(manifest)
            try:
                assert view.read_bytes("/d/file.bin") == b"payload"
                assert view.file_size("/d/file.bin") == 7
                assert view.read_range("/d/file.bin", 0, 3) == b"pay"
                assert view.is_dir("/d")
                assert view.list_dir("/d") == ["file.bin"]
                assert view.exists("/d/file.bin")
                assert not view.exists("/nope")
                with pytest.raises(IOError):
                    view.read_bytes("/nope")
            finally:
                view.close()
        finally:
            exporter.close()
        assert REGISTRY.live() == {}


class TestPicklability:
    def test_task_factory_pickles_and_instantiates(self):
        factory = TaskFactory(EchoMapper)
        clone = pickle.loads(pickle.dumps(factory))
        assert isinstance(clone(), EchoMapper)
        assert clone() is not clone()  # fresh instance per call

    def test_counters_pickle_roundtrip(self):
        c = Counters()
        c.increment("g", "n", 5)
        c.increment("g2", "m", 2)
        clone = pickle.loads(pickle.dumps(c))
        assert clone.as_dict() == c.as_dict()
        clone.increment("g", "n", 1)  # lock reconstructed and functional
        assert clone.value("g", "n") == 6

    def test_scripted_fault_is_planned_driver_side(self):
        attempt = TaskAttemptId(
            task=TaskId(job=JobId(1), kind=TaskKind.MAP, index=0), attempt=0
        )
        policy = DelayAttempt(seconds=0.5, attempts_below=1)
        directive = policy.plan(attempt, 0)
        assert directive == ScriptedFault(delay_seconds=0.5)
        clone = pickle.loads(pickle.dumps(directive))
        assert clone == directive
        retry = TaskAttemptId(task=attempt.task, attempt=1)
        assert policy.plan(retry, 0) == ScriptedFault()
