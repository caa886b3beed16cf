"""MapReduce engine: programming model, shuffle, counters, executors."""

from collections import Counter as PyCounter

import pytest

from repro.mapreduce import (
    Counters,
    FnMapper,
    FnReducer,
    InputSplit,
    JobConf,
    Mapper,
    MapReduceRuntime,
    Reducer,
    splits_for_workers,
)
from repro.mapreduce.counters import TASK_GROUP, MAP_OUTPUT_RECORDS
from repro.mapreduce.job import default_partitioner
from repro.mapreduce.shuffle import (
    merge_map_outputs,
    partition_pairs,
    sort_and_group,
)


class WordCountMapper(Mapper):
    def map(self, ctx, split):
        for word in ctx.read_text(split.path).split():
            ctx.emit(word, 1)


class SummingReducer(Reducer):
    def reduce(self, ctx, key, values):
        ctx.emit(key, sum(values))


def wordcount_conf(num_reducers=2, combiner=False):
    return JobConf(
        name="wordcount",
        mapper_factory=WordCountMapper,
        reducer_factory=SummingReducer,
        combiner_factory=SummingReducer if combiner else None,
        splits=[
            InputSplit(index=0, path="/in/part0"),
            InputSplit(index=1, path="/in/part1"),
        ],
        num_reduce_tasks=num_reducers,
    )


@pytest.fixture
def corpus(dfs):
    dfs.write_text("/in/part0", "the quick brown fox\nthe lazy dog")
    dfs.write_text("/in/part1", "the dog barks\nquick quick")
    return {"the": 3, "quick": 3, "brown": 1, "fox": 1, "lazy": 1, "dog": 2, "barks": 1}


def collect_outputs(result):
    merged = {}
    for pairs in result.reduce_outputs.values():
        for k, v in pairs:
            merged[k] = v
    return merged


class TestWordCount:
    def test_basic_job(self, runtime, corpus):
        result = runtime.run_job(wordcount_conf())
        assert result.succeeded
        assert collect_outputs(result) == corpus

    def test_single_reducer(self, runtime, corpus):
        result = runtime.run_job(wordcount_conf(num_reducers=1))
        assert collect_outputs(result) == corpus
        assert len(result.reduce_outputs) == 1

    def test_many_reducers(self, runtime, corpus):
        result = runtime.run_job(wordcount_conf(num_reducers=7))
        assert collect_outputs(result) == corpus

    def test_threaded_executor_matches_serial(self, threaded_runtime, corpus):
        result = threaded_runtime.run_job(wordcount_conf())
        assert collect_outputs(result) == corpus

    def test_combiner_preserves_results_and_shrinks_shuffle(self, dfs, corpus):
        rt_plain = MapReduceRuntime(dfs=dfs)
        plain = rt_plain.run_job(wordcount_conf())
        combined = rt_plain.run_job(wordcount_conf(combiner=True))
        assert collect_outputs(plain) == collect_outputs(combined) == corpus
        shuffled_plain = sum(t.bytes_shuffled for t in plain.map_traces)
        shuffled_combined = sum(t.bytes_shuffled for t in combined.map_traces)
        assert shuffled_combined < shuffled_plain

    def test_counters(self, runtime, corpus):
        result = runtime.run_job(wordcount_conf())
        emitted = result.counters.value(TASK_GROUP, MAP_OUTPUT_RECORDS)
        assert emitted == sum(corpus.values())


class TestMapOnly:
    def test_map_only_side_effects(self, runtime):
        def write_marker(ctx, split):
            ctx.write_text(f"/out/marker.{split.payload}", str(split.payload))

        conf = JobConf(
            name="markers",
            mapper_factory=lambda: FnMapper(write_marker),
            splits=splits_for_workers(4),
        )
        result = runtime.run_job(conf)
        assert result.succeeded
        assert result.reduce_outputs == {}
        for j in range(4):
            assert runtime.dfs.read_text(f"/out/marker.{j}") == str(j)

    def test_map_only_has_no_reduce_traces(self, runtime):
        conf = JobConf(
            name="noop",
            mapper_factory=lambda: FnMapper(lambda ctx, split: None),
            splits=splits_for_workers(2),
        )
        result = runtime.run_job(conf)
        assert result.reduce_traces == []


class TestShuffle:
    def test_partition_routing_complete(self):
        pairs = [(i, i) for i in range(100)]
        buckets = partition_pairs(pairs, 7)
        total = sum(len(v) for v in buckets.values())
        assert total == 100
        for p, bucket in buckets.items():
            for k, _ in bucket:
                assert default_partitioner(k, 7) == p

    def test_sort_and_group(self):
        pairs = [("b", 1), ("a", 2), ("b", 3), ("a", 4)]
        groups = sort_and_group(pairs)
        assert groups == [("a", [2, 4]), ("b", [1, 3])]

    def test_merge_preserves_map_order_within_partition(self):
        m1 = {0: [("k", 1)]}
        m2 = {0: [("k", 2)]}
        merged = merge_map_outputs([m1, m2], 1)
        assert merged[0] == [("k", 1), ("k", 2)]

    def test_integer_keys_route_identically(self):
        """The pipeline relies on key j landing on reducer j for j < m0."""
        for j in range(16):
            assert default_partitioner(j, 16) == j

    def test_heterogeneous_keys_sortable(self):
        pairs = [(1, "a"), ("x", "b"), ((2, 3), "c")]
        groups = sort_and_group(pairs)
        assert len(groups) == 3


class TestCounters:
    def test_increment_and_read(self):
        c = Counters()
        c.increment("g", "n", 5)
        c.increment("g", "n", 2)
        assert c.value("g", "n") == 7

    def test_missing_is_zero(self):
        assert Counters().value("g", "n") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "x", 1)
        b.increment("g", "x", 2)
        b.increment("h", "y", 3)
        a.merge(b)
        assert a.value("g", "x") == 3
        assert a.value("h", "y") == 3

    def test_format_is_stable(self):
        c = Counters()
        c.increment("B", "b")
        c.increment("A", "a")
        lines = c.format().splitlines()
        assert lines[0] == "A"


class TestValidation:
    def test_empty_splits_rejected(self):
        with pytest.raises(ValueError, match="splits"):
            JobConf(name="bad", mapper_factory=Mapper, splits=[])

    def test_map_only_forces_zero_reducers(self):
        conf = JobConf(
            name="m", mapper_factory=Mapper, splits=splits_for_workers(1)
        )
        assert conf.num_reduce_tasks == 0
        assert conf.is_map_only

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            splits_for_workers(0)

    def test_runtime_config_validated(self):
        with pytest.raises(ValueError):
            MapReduceRuntime(num_workers=0)

    def test_fn_reducer_adapter(self, runtime, dfs):
        dfs.write_text("/in/a", "x x x")
        conf = JobConf(
            name="fn",
            mapper_factory=WordCountMapper,
            reducer_factory=lambda: FnReducer(
                lambda ctx, k, vs: ctx.emit(k, len(list(vs)))
            ),
            splits=[InputSplit(index=0, path="/in/a")],
            num_reduce_tasks=1,
        )
        result = runtime.run_job(conf)
        assert collect_outputs(result) == {"x": 3}


class TestRuntimeBookkeeping:
    def test_history_and_overhead(self, runtime, dfs):
        dfs.write_text("/in/a", "hello")
        conf = JobConf(
            name="j",
            mapper_factory=WordCountMapper,
            reducer_factory=SummingReducer,
            splits=[InputSplit(index=0, path="/in/a")],
            num_reduce_tasks=1,
        )
        runtime.run_job(conf)
        runtime.run_job(conf)
        assert runtime.jobs_run() == 2
        assert [j.name for j in runtime.history] == ["j", "j"]

    def test_job_ids_increment(self, runtime, dfs):
        dfs.write_text("/in/a", "w")
        conf = JobConf(
            name="j",
            mapper_factory=WordCountMapper,
            splits=[InputSplit(index=0, path="/in/a")],
        )
        r1 = runtime.run_job(conf)
        r2 = runtime.run_job(conf)
        assert str(r1.job_id) != str(r2.job_id)
