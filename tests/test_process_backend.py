"""End-to-end coverage of the processes backend: shared-memory DFS export,
write-back through the commit protocol, crash/timeout recovery, counter
merge-back, and shared-memory lifetime hygiene.
"""

from __future__ import annotations

import gc
import glob
import os
import pickle
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from repro import invert
from repro.chaos.events import DriverCrashError
from repro.dfs import DFS, fsck
from repro.dfs.commit import staging_dir, staging_path
from repro.dfs.shm import (
    REGISTRY,
    SEGMENT_PREFIX,
    ShmExporter,
    ShmManifest,
    SharedDFSView,
    close_segment,
    create_segment,
)
from repro.inversion import InversionConfig, MatrixInverter
from repro.mapreduce import (
    Counters,
    DelayAttempt,
    JobConf,
    JobFailedError,
    Mapper,
    MapReduceRuntime,
    ProcessPoolBackend,
    Reducer,
    RetryPolicy,
    ScriptedFault,
    TaskFactory,
    TaskKind,
    TaskSerializationError,
    splits_for_workers,
)
from repro.mapreduce.counters import FILESYSTEM_GROUP, BYTES_READ
from repro.mapreduce.remote import (
    BLOB_CACHE_ENTRIES,
    Pickled,
    RemoteOutcome,
    RemoteTask,
    ensure_remote_runnable,
    execute_remote_task,
    load_blob,
    materialize_remote_outcome,
)
from repro.mapreduce.types import TaskAttemptId, TaskId, JobId

from conftest import random_invertible

#: Bytes pickled into the pool's pipes for one call at ``procs_n1024``'s
#: smoke shape: 1 113 940 measured when the conf and the manifest became
#: bytes pickled once per job and per wave (1 155 320 before, when both were
#: pickled as objects into every attempt), plus 15 % headroom.  The bytes
#: barely moved — each attempt still carries both blobs — but the pickling
#: work did; the distinct-key assertions pin that.
DISPATCH_BYTES_BUDGET = 1_281_000


def leaked_dev_shm() -> list[str]:
    """Segment files this package left behind in /dev/shm (should be [])."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture
def process_runtime():
    dfs = DFS(num_datanodes=4, replication=3, seed=7)
    rt = MapReduceRuntime(
        dfs=dfs, num_workers=2, executor="processes"
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
        # Each attempt's result segment was adopted, not unlinked: the next
        # export maps each part where its worker wrote it, one segment per
        # task, and creates no segment of its own.
        landed = set(leaked_dev_shm())
        manifest = process_runtime._tracker._export_namespace()
        parts = {manifest.files[f"/big/part-{i}"].segment for i in range(2)}
        assert len(parts) == 2
        assert {f"/dev/shm/{name}" for name in parts} == landed
        assert set(leaked_dev_shm()) == landed
        process_runtime.shutdown()
        assert leaked_dev_shm() == []
        assert REGISTRY.live() == {}

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
            num_workers=2, executor="processes",
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


def land_result_segment(dfs, exporter, tag, files):
    """A finished attempt's large write-back, as the driver sees it: the
    segment its worker wrote and closed, landed by the real landing code
    and adopted by ``exporter``.  Returns the segment name and the
    ``(staged, final)`` pairs to publish."""
    seg = create_segment(sum(len(data) for data in files.values()))
    entries, offset = [], 0
    for path, data in files.items():
        seg.buf[offset : offset + len(data)] = data
        entries.append((staging_path(tag, path), offset, len(data)))
        offset += len(data)
    name = seg.name
    close_segment(seg)
    staged = [(staging_path(tag, path), path) for path in files]
    outcome = RemoteOutcome(
        result=SimpleNamespace(staged=staged), staged_segment=(name, entries)
    )
    materialize_remote_outcome(dfs, outcome, exporter.adopt)
    return name, staged


def shm_file(name: str) -> str:
    return f"/dev/shm/{name}"


class ReadPartMapper(Mapper):
    """Reads ``/big/part-0`` (through the export under processes)."""

    def map(self, ctx, split):
        ctx.emit(0, len(ctx.read_bytes("/big/part-0")))


class TestAdoptedSegments:
    """A landed result segment becomes an export segment: its lifetime."""

    def test_published_file_is_mapped_in_place(self, dfs):
        exporter = ShmExporter(dfs)
        try:
            exporter.sync()
            name, staged = land_result_segment(
                dfs, exporter, "attempt-a", {"/p/x": b"x" * 300, "/p/y": b"yy"}
            )
            dfs.publish(staged, staging_dir("attempt-a"))
            reads = dfs.stats.read_ops
            manifest = exporter.sync()
            assert manifest.files["/p/x"].segment == name
            assert manifest.files["/p/y"].segment == name
            assert exporter.segment_count == 1  # no copy made
            # ...after the same accounted read a copying export makes.
            assert dfs.stats.read_ops == reads + 2
            view = SharedDFSView(manifest)
            try:
                assert view.read_bytes("/p/x") == b"x" * 300
                assert view.read_bytes("/p/y") == b"yy"
            finally:
                view.close()
        finally:
            exporter.close()
        assert leaked_dev_shm() == []
        assert REGISTRY.live() == {}

    def test_discarded_attempt_segment_unlinked_at_next_sync(self, dfs):
        exporter = ShmExporter(dfs)
        try:
            exporter.sync()
            kept, _ = land_result_segment(
                dfs, exporter, "attempt-pending", {"/p/a": bytes(100)}
            )
            lost, _ = land_result_segment(
                dfs, exporter, "attempt-lost", {"/p/a": bytes(100)}
            )
            dfs.discard_staging(staging_dir("attempt-lost"))
            exporter.sync()
            # The discarded attempt's segment goes; the one whose staged
            # file is still pending a commit decision stays.
            assert not os.path.exists(shm_file(lost))
            assert os.path.exists(shm_file(kept))
            assert exporter.garbage_bytes == 0
        finally:
            exporter.close()
        assert leaked_dev_shm() == []
        assert REGISTRY.live() == {}

    def test_losing_speculative_attempts_unlinked_at_next_sync(self):
        dfs = DFS(num_datanodes=4, replication=3, seed=7)
        # Both first attempts hang past the deadline and are killed before
        # they stage anything; the retry wave runs each task twice.
        rt = MapReduceRuntime(
            dfs=dfs,
            num_workers=2, executor="processes",
            fault_policy=DelayAttempt(seconds=2.0, job_substring="big"),
        )
        try:
            conf = JobConf(
                name="big", mapper_factory=BigOutputMapper,
                splits=splits_for_workers(2),
                retry=RetryPolicy(attempt_deadline=0.5),
            )
            result = rt.run_job(conf)
            assert result.attempts_launched == 2 + 4
            assert result.attempts_timed_out == 2
            assert len(leaked_dev_shm()) == 4  # every hedged copy landed
            manifest = rt._tracker._export_namespace()
            winners = {shm_file(f.segment) for f in manifest.files.values()}
            assert len(winners) == 2
            assert set(leaked_dev_shm()) == winners
        finally:
            rt.shutdown()
        assert leaked_dev_shm() == []
        assert REGISTRY.live() == {}

    def test_retired_file_segment_unlinked_once_nothing_maps_into_it(self, dfs):
        exporter = ShmExporter(dfs)
        try:
            exporter.sync()
            name, staged = land_result_segment(
                dfs, exporter, "attempt-r",
                {"/p/first": bytes(300), "/p/second": bytes(200)},
            )
            dfs.publish(staged, staging_dir("attempt-r"))
            exporter.sync()
            dfs.delete("/p/first")
            exporter.sync()
            assert os.path.exists(shm_file(name))  # /p/second maps into it
            assert exporter.garbage_bytes == 300
            dfs.delete("/p/second")
            exporter.sync()
            assert not os.path.exists(shm_file(name))
            assert exporter.segment_count == 0
            assert exporter.garbage_bytes == 0
        finally:
            exporter.close()
        assert leaked_dev_shm() == []

    def test_compaction_fires_on_garbage_in_adopted_segments(self, dfs):
        exporter = ShmExporter(dfs, compact_garbage_bytes=500)
        try:
            exporter.sync()
            _, staged = land_result_segment(
                dfs, exporter, "attempt-c",
                {"/p/big": bytes(1000), "/p/kept": b"kept"},
            )
            dfs.publish(staged, staging_dir("attempt-c"))
            exporter.sync()
            dfs.delete("/p/big")  # 1000 garbage bytes > 500
            exporter.sync()
            assert exporter.segment_count == 0  # compacted
            manifest = exporter.sync()
            assert exporter.segment_count == 1
            assert exporter.garbage_bytes == 0
            view = SharedDFSView(manifest)
            try:
                assert view.read_bytes("/p/kept") == b"kept"
            finally:
                view.close()
        finally:
            exporter.close()
        assert leaked_dev_shm() == []

    def test_failed_landing_unlinks_the_segment(self, dfs):
        exporter = ShmExporter(dfs)

        def crash(op, path):
            raise DriverCrashError(f"injected driver crash at {op} {path}")

        dfs.fault_hooks.append(crash)
        try:
            with pytest.raises(DriverCrashError):
                land_result_segment(dfs, exporter, "attempt-f", {"/p/z": bytes(10)})
            assert exporter.segment_count == 0
        finally:
            exporter.close()
        assert leaked_dev_shm() == []
        assert REGISTRY.live() == {}


class TestCloseLeavesNothing:
    """After ``MatrixInverter.close()`` no segment is open or on disk."""

    N = 256
    CONFIG = dict(nb=64, m0=2, executor="processes", num_workers=2)

    @pytest.fixture
    def adoptions(self, monkeypatch):
        """Counts result segments handed to an exporter."""
        calls = []
        real = ShmExporter.adopt

        def counting(exporter, seg, files):
            calls.append(seg.name)
            real(exporter, seg, files)

        monkeypatch.setattr(ShmExporter, "adopt", counting)
        return calls

    def test_after_a_clean_run(self, rng, adoptions):
        a = random_invertible(rng, self.N)
        with MatrixInverter(config=InversionConfig(**self.CONFIG)) as inverter:
            assert inverter.invert(a).residual(a) < 1e-8
        assert adoptions  # the shape does write back through segments
        assert REGISTRY.live() == {}
        assert leaked_dev_shm() == []

    def test_after_a_killed_worker(self, rng, adoptions):
        a = random_invertible(rng, self.N)
        config = InversionConfig(
            **self.CONFIG,
            retry=RetryPolicy(max_attempts=3, attempt_deadline=2.0),
        )
        hang = DelayAttempt(
            seconds=30.0, kind=TaskKind.MAP, task_index=0,
            job_substring="invert-final",
        )
        with MatrixInverter(config=config, fault_policy=hang) as inverter:
            result = inverter.invert(a)
            assert result.residual(a) < 1e-8
            history = inverter.runtime.history
            assert sum(job.attempts_timed_out for job in history) == 1
        assert adoptions
        assert REGISTRY.live() == {}
        assert leaked_dev_shm() == []

    def test_after_a_driver_crash_while_landing_an_adopted_file(
        self, rng, adoptions, monkeypatch
    ):
        import repro.mapreduce.remote as remote

        a = random_invertible(rng, self.N)
        inverter = MatrixInverter(config=InversionConfig(**self.CONFIG))
        dfs = inverter.runtime.dfs
        crashed = []
        real_materialize = remote.materialize_remote_outcome
        real_stage = dfs.stage_bytes
        landing = []

        def materialize(dfs_, outcome, adopt):
            landing.append(outcome.staged_segment is not None)
            try:
                real_materialize(dfs_, outcome, adopt)
            finally:
                landing.pop()

        def stage_bytes(path, data):
            if landing and landing[-1] and not crashed and adoptions:
                # A later adopted file, after some segments were adopted.
                crashed.append(path)
                raise DriverCrashError(f"injected driver crash staging {path}")
            real_stage(path, data)

        monkeypatch.setattr(remote, "materialize_remote_outcome", materialize)
        monkeypatch.setattr(dfs, "stage_bytes", stage_bytes)
        try:
            with pytest.raises(DriverCrashError):
                inverter.invert(a)
        finally:
            inverter.close()
        assert crashed
        assert REGISTRY.live() == {}
        assert leaked_dev_shm() == []


class TestExportKeepsItsChecks:
    """An adopted file is exported through the same accounted,
    checksum-checked read as a copied one."""

    @staticmethod
    def run_big_then_read(executor: str, damage=None):
        """Job 1 writes ``/big/part-*``; ``damage`` breaks part-0; job 2
        reads it.  Returns (dfs, job 2's error or None)."""
        dfs = DFS(num_datanodes=4, replication=3, seed=7)
        rt = MapReduceRuntime(
            dfs=dfs, num_workers=2, executor=executor
        )
        try:
            rt.run_job(
                JobConf(
                    name="big", mapper_factory=BigOutputMapper,
                    splits=splits_for_workers(2),
                )
            )
            if damage is not None:
                damage(dfs, dfs.namenode.get_file("/big/part-0").blocks[0])
            try:
                rt.run_job(
                    JobConf(
                        name="read", mapper_factory=ReadPartMapper,
                        splits=splits_for_workers(1),
                        retry=RetryPolicy(max_attempts=2),
                    )
                )
            except JobFailedError as exc:
                return dfs, exc
            return dfs, None
        finally:
            rt.shutdown()

    @staticmethod
    def kill_replicas(dfs, info):
        for node in info.replicas:
            dfs.blocks.kill_datanode(node)

    @staticmethod
    def corrupt_replicas(dfs, info):
        for node in info.replicas:
            dfs.blocks.corrupt_replica(info, node)

    @pytest.mark.parametrize("damage", ["kill_replicas", "corrupt_replicas"])
    def test_unreadable_adopted_file_fails_the_reader(self, damage, adoptions_of):
        breaker = getattr(self, damage)
        serial_dfs, serial = self.run_big_then_read("serial", breaker)
        remote_dfs, remote = self.run_big_then_read("processes", breaker)
        assert adoptions_of  # part-0 was landed into an adopted segment
        assert serial is not None and remote is not None
        assert len(remote.attempts) == len(serial.attempts) == 2
        with pytest.raises(IOError) as in_process:
            serial_dfs.read_bytes("/big/part-0")
        with pytest.raises(IOError) as at_export:
            remote_dfs.read_bytes("/big/part-0")
        assert type(serial.last_error) is type(in_process.value)
        assert type(at_export.value) is type(in_process.value)
        # The worker reports the read failure the export recorded in the
        # manifest's errors.
        assert isinstance(remote.last_error, IOError)
        assert "unreadable at export time" in str(remote.last_error)
        assert str(at_export.value) in str(remote.last_error)
        assert REGISTRY.live() == {}
        assert leaked_dev_shm() == []

    def test_export_reads_equal_a_copying_export(self, monkeypatch):
        adopting, error = self.run_big_then_read("processes")
        assert error is None

        def copy_instead(exporter, seg, files):
            close_segment(seg, unlink=True)

        monkeypatch.setattr(ShmExporter, "adopt", copy_instead)
        copying, error = self.run_big_then_read("processes")
        assert error is None
        assert adopting.stats.read_ops == copying.stats.read_ops
        assert adopting.stats.bytes_read == copying.stats.bytes_read
        assert leaked_dev_shm() == []

    @pytest.fixture
    def adoptions_of(self, monkeypatch):
        adopted = []
        real = ShmExporter.adopt

        def recording(exporter, seg, files):
            adopted.extend(path for path, *_ in files)
            real(exporter, seg, files)

        monkeypatch.setattr(ShmExporter, "adopt", recording)
        return adopted


class TestDispatchBudget:
    """A job's conf crosses the pipe as bytes pickled once, and a worker
    unpickles each conf and each manifest at most once."""

    @staticmethod
    def task(conf_blob, manifest_blob):
        return RemoteTask(
            kind=TaskKind.MAP,
            conf=conf_blob,
            item=splits_for_workers(1)[0],
            attempt_id=TaskAttemptId(
                task=TaskId(job=JobId(1), kind=TaskKind.MAP, index=0), attempt=0
            ),
            node=0,
            fault=ScriptedFault(),
            manifest=manifest_blob,
        )

    def test_worker_unpickles_each_blob_once(self, monkeypatch):
        conf = JobConf(
            name="echo", mapper_factory=EchoMapper, splits=splits_for_workers(1)
        )
        conf_blob = ensure_remote_runnable(conf)
        manifest_blob = Pickled.of(ShmManifest())
        assert pickle.loads(conf_blob.data).name == "echo"  # the whole conf
        loads = []
        real_loads = pickle.loads

        def counting(data, *args, **kwargs):
            loads.append(data)
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counting)
        cache: OrderedDict = OrderedDict()
        segments: dict = {}
        execute_remote_task(self.task(conf_blob, manifest_blob), segments, cache)
        assert len(loads) == 2  # the conf and the manifest
        execute_remote_task(self.task(conf_blob, manifest_blob), segments, cache)
        assert len(loads) == 2  # same keys: nothing unpickled
        new_key = ensure_remote_runnable(conf)
        execute_remote_task(self.task(new_key, manifest_blob), segments, cache)
        assert len(loads) == 3  # a new key: one more
        for _ in range(3 * BLOB_CACHE_ENTRIES):
            load_blob(Pickled.of(conf), cache)
        assert len(cache) == BLOB_CACHE_ENTRIES  # bounded
        assert len(loads) == 3 + 3 * BLOB_CACHE_ENTRIES
        # The keys are serials, never re-used.
        assert Pickled.of(None).key != Pickled.of(None).key

    def test_pickled_bytes_sent_per_call(self, monkeypatch):
        """Bytes pickled into the pool's pipes for one call at
        ``procs_n1024``'s smoke shape (n=256, nb=32, m0=4)."""
        from multiprocessing import connection
        from multiprocessing.reduction import ForkingPickler

        a = np.random.default_rng(0).standard_normal((256, 256))
        config = InversionConfig(nb=32, m0=4, executor="processes", num_workers=2)
        invert(a, config)  # warm-up
        sent = []
        tasks = []
        real_send = connection.Connection.send

        def counting_send(conn, obj):
            sent.append(len(ForkingPickler.dumps(obj)))
            if obj is not None:
                tasks.append(obj[1])
            real_send(conn, obj)

        monkeypatch.setattr(connection.Connection, "send", counting_send)
        result = invert(a, config)
        assert len(sent) == 70  # 68 attempts + 2 shutdown sentinels
        # One conf per job, one manifest per wave (no retries here).
        assert len({t.conf.key for t in tasks}) == result.record.num_jobs == 9
        assert len({t.manifest.key for t in tasks}) == 17
        assert sum(sent) <= DISPATCH_BYTES_BUDGET, (
            f"{sum(sent)} bytes pickled to the workers for one call, budget "
            f"{DISPATCH_BYTES_BUDGET}: is a conf or manifest pickled per "
            f"attempt again?"
        )


class TestForkFromFrozenHeap:
    def test_driver_unfrozen_and_worker_frozen(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            # gc.get_freeze_count is a builtin: it pickles by reference and
            # runs in the worker.
            counts = backend.run_all([gc.get_freeze_count] * 2)
        finally:
            backend.shutdown()
        assert gc.get_freeze_count() == 0  # the driver still collects
        if backend._start_method == "fork":
            assert all(count > 0 for count in counts), counts

    def test_an_embedders_own_freeze_is_kept(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            backend = ProcessPoolBackend(max_workers=1)
            try:
                backend.run_all([gc.get_freeze_count])
            finally:
                backend.shutdown()
            assert gc.get_freeze_count() >= frozen
        finally:
            gc.unfreeze()


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
