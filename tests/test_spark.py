"""The Spark-style RDD engine: transformations, shuffles, caching, lineage."""

import numpy as np
import pytest

from repro.spark import (
    SparkContext,
    SparkInversionConfig,
    SparkMatrixInverter,
    spark_invert,
)

from conftest import random_invertible


@pytest.fixture
def sc() -> SparkContext:
    return SparkContext(default_parallelism=4)


class TestTransformations:
    def test_parallelize_collect_roundtrip(self, sc):
        data = list(range(17))
        assert sc.parallelize(data).collect() == data

    def test_partition_count(self, sc):
        rdd = sc.parallelize(range(10), num_partitions=3)
        assert rdd.num_partitions == 3
        assert sum(len(rdd.partition(i)) for i in range(3)) == 10

    def test_map(self, sc):
        assert sc.range(5).map(lambda x: x * x).collect() == [0, 1, 4, 9, 16]

    def test_flat_map(self, sc):
        out = sc.parallelize(["a b", "c"]).flat_map(str.split).collect()
        assert out == ["a", "b", "c"]

    def test_filter(self, sc):
        assert sc.range(10).filter(lambda x: x % 2 == 0).count() == 5

    def test_map_partitions(self, sc):
        sums = sc.range(8, num_partitions=2).map_partitions(lambda p: [sum(p)]).collect()
        assert sum(sums) == 28 and len(sums) == 2

    def test_union(self, sc):
        a = sc.parallelize([1, 2])
        b = sc.parallelize([3])
        assert sorted(a.union(b).collect()) == [1, 2, 3]
        assert a.union(b).num_partitions == a.num_partitions + b.num_partitions

    def test_key_by(self, sc):
        assert sc.parallelize(["xx", "y"]).key_by(len).collect() == [(2, "xx"), (1, "y")]

    def test_take(self, sc):
        assert sc.range(100, num_partitions=10).take(5) == [0, 1, 2, 3, 4]

    def test_reduce(self, sc):
        assert sc.range(10).reduce(lambda a, b: a + b) == 45

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([]).reduce(lambda a, b: a + b)


class TestShuffles:
    def test_group_by_key(self, sc):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        out = sc.parallelize(pairs, 2).group_by_key(2).collect_as_map()
        assert out == {"a": [1, 3], "b": [2]}

    def test_reduce_by_key(self, sc):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 5)]
        out = sc.parallelize(pairs, 3).reduce_by_key(lambda x, y: x + y).collect_as_map()
        assert out == {"a": 4, "b": 7}

    def test_wordcount(self, sc):
        text = ["the quick fox", "the dog", "quick quick"]
        counts = (
            sc.parallelize(text)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        assert counts == {"the": 2, "quick": 3, "fox": 1, "dog": 1}

    def test_join(self, sc):
        left = sc.parallelize([(1, "a"), (2, "b")])
        right = sc.parallelize([(1, "x"), (1, "y"), (3, "z")])
        out = sorted(left.join(right).collect())
        assert out == [(1, ("a", "x")), (1, ("a", "y"))]

    def test_shuffle_bytes_counted(self, sc):
        sc.parallelize([(i % 3, i) for i in range(100)], 4).group_by_key(3).collect()
        assert sc.metrics.shuffle_bytes > 0

    def test_combiner_shrinks_shuffle(self):
        data = [(i % 5, 1) for i in range(1000)]
        sc1 = SparkContext()
        sc1.parallelize(data, 4).group_by_key(4).collect()
        sc2 = SparkContext()
        sc2.parallelize(data, 4).reduce_by_key(lambda a, b: a + b, 4).collect()
        # NB: in this single-process engine both routes scan parent output;
        # the combiner merges values early so grouped payloads shrink.
        assert sc2.metrics.shuffle_bytes <= sc1.metrics.shuffle_bytes


class TestCachingAndLineage:
    def test_cache_avoids_recompute(self, sc):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return x

        rdd = sc.range(8, 2).map(counted).cache()
        rdd.collect()
        rdd.collect()
        assert calls["n"] == 8  # second collect served from cache
        assert sc.metrics.cache_hits == 2

    def test_uncached_recomputes(self, sc):
        calls = {"n": 0}
        rdd = sc.range(4, 1).map(lambda x: calls.__setitem__("n", calls["n"] + 1) or x)
        rdd.collect()
        rdd.collect()
        assert calls["n"] == 8

    def test_evict_triggers_lineage_recompute(self, sc):
        rdd = sc.range(12, 3).map(lambda x: x * 2).cache()
        first = rdd.collect()
        assert sc.evict(rdd, 1)
        assert rdd.collect() == first
        assert sc.metrics.recomputations == 1

    def test_evict_missing_partition_false(self, sc):
        rdd = sc.range(4, 2).cache()
        assert not sc.evict(rdd, 0)  # never computed yet

    def test_kill_executor_evicts_its_partitions(self, sc):
        rdd = sc.range(20, 4).cache()
        before = rdd.collect()
        killed = sc.kill_executor(0, num_executors=2)
        assert killed == 2  # partitions 0 and 2
        assert rdd.collect() == before
        assert sc.metrics.recomputations == 2

    def test_lineage_through_chain(self, sc):
        base = sc.range(6, 2).cache()
        derived = base.map(lambda x: x + 1).cache()
        derived.collect()
        sc.evict(derived, 0)
        sc.evict(base, 0)
        assert derived.collect() == [1, 2, 3, 4, 5, 6]

    def test_partition_index_validated(self, sc):
        with pytest.raises(IndexError):
            sc.range(4, 2).partition(5)


class TestExtraOps:
    def test_map_values(self, sc):
        out = sc.parallelize([("a", 1), ("b", 2)]).map_values(lambda v: v * 10)
        assert out.collect() == [("a", 10), ("b", 20)]

    def test_distinct(self, sc):
        assert sorted(sc.parallelize([3, 1, 3, 2, 1], 3).distinct().collect()) == [1, 2, 3]

    def test_count_by_key(self, sc):
        rdd = sc.parallelize([("x", 1), ("y", 2), ("x", 3)])
        assert rdd.count_by_key() == {"x": 2, "y": 1}

    def test_lookup(self, sc):
        rdd = sc.parallelize([("x", 1), ("y", 2), ("x", 3)])
        assert rdd.lookup("x") == [1, 3]
        assert rdd.lookup("z") == []

    def test_sort_by(self, sc):
        rdd = sc.parallelize([("b", 2), ("a", 9), ("c", 1)])
        assert rdd.sort_by(lambda kv: kv[1]) == [("c", 1), ("b", 2), ("a", 9)]
        assert rdd.sort_by(lambda kv: kv[0], reverse=True)[0] == ("c", 1)


class TestBroadcast:
    def test_broadcast_value_and_accounting(self, sc):
        b = sc.broadcast(np.zeros((10, 10)))
        assert b.nbytes == 800
        assert sc.metrics.broadcast_bytes == 800
        assert sc.range(3).map(lambda i: b.value.shape[0]).collect() == [10, 10, 10]


class TestSparkInversion:
    @pytest.mark.parametrize(
        "n, nb, chunks", [(40, 16, 4), (64, 16, 4), (65, 16, 3), (100, 25, 5)]
    )
    def test_inverse_matches_numpy(self, rng, n, nb, chunks):
        a = random_invertible(rng, n)
        res = spark_invert(a, SparkInversionConfig(nb=nb, chunks=chunks))
        assert np.allclose(res.inverse, np.linalg.inv(a), atol=1e-8)

    def test_matches_mapreduce_pipeline(self, rng):
        from repro import InversionConfig, invert

        a = random_invertible(rng, 72)
        hadoop = invert(a, InversionConfig(nb=16, m0=4))
        spark = spark_invert(a, SparkInversionConfig(nb=16, chunks=4))
        assert np.allclose(hadoop.inverse, spark.inverse, atol=1e-9)

    def test_external_io_is_input_plus_output_only(self, rng):
        """The Section 8 claim: intermediates stay in memory, so external
        I/O is one matrix in, one matrix out."""
        n = 64
        a = random_invertible(rng, n)
        res = spark_invert(a, SparkInversionConfig(nb=16, chunks=4))
        assert res.external_bytes_read == a.nbytes
        assert res.external_bytes_written == a.nbytes
        assert res.cached_partitions > 0

    def test_spark_reads_less_external_than_hadoop(self, rng):
        from repro import InversionConfig, invert

        a = random_invertible(rng, 96)
        hadoop = invert(a, InversionConfig(nb=24, m0=4))
        spark = spark_invert(a, SparkInversionConfig(nb=24, chunks=4))
        assert spark.external_bytes_read < hadoop.io.bytes_read / 5

    def test_survives_cached_partition_loss(self, rng):
        """Lineage-based fault tolerance end-to-end: evicting intermediate
        partitions between runs does not change the answer."""
        sc = SparkContext()
        inverter = SparkMatrixInverter(SparkInversionConfig(nb=16, chunks=4), sc=sc)
        a = random_invertible(rng, 64)
        first = inverter.invert(a)
        l2 = inverter.intermediates["/Root/L2"]
        computed_before = sc.metrics.partitions_computed
        assert sc.evict(l2, 0)
        assert np.array_equal(
            sorted(x[0] for x in l2.collect()), sorted(x[0] for x in l2.collect())
        )
        assert first.residual(a) < 1e-9
        assert sc.metrics.recomputations >= 1
        # Only the lost partition's lineage reran, not the whole run.
        recomputed = sc.metrics.partitions_computed - computed_before
        assert recomputed < computed_before / 4

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            spark_invert(rng.standard_normal((3, 4)))

    def test_single_leaf_path(self, rng):
        a = random_invertible(rng, 20)
        res = spark_invert(a, SparkInversionConfig(nb=64, chunks=2))
        assert res.residual(a) < 1e-10
