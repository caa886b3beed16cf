"""Property-based tests for the MapReduce engine's core contracts."""

from collections import Counter as PyCounter

from hypothesis import given, settings, strategies as st

from repro.mapreduce.job import default_partitioner
from repro.mapreduce.shuffle import (
    merge_map_outputs,
    partition_pairs,
    sort_and_group,
)

keys = st.one_of(st.integers(-1000, 1000), st.text(max_size=8))
pairs_lists = st.lists(st.tuples(keys, st.integers()), max_size=200)


class TestPartitioning:
    @given(pairs_lists, st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_partitioning_is_a_partition(self, pairs, nparts):
        """Every pair lands in exactly one bucket; nothing lost, nothing
        duplicated, every bucket index valid."""
        buckets = partition_pairs(pairs, nparts)
        rebuilt = [p for bucket in buckets.values() for p in bucket]
        assert PyCounter(rebuilt) == PyCounter(pairs)
        assert all(0 <= b < nparts for b in buckets)

    @given(keys, st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_partitioner_deterministic(self, key, nparts):
        assert default_partitioner(key, nparts) == default_partitioner(key, nparts)

    @given(pairs_lists, st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_same_key_same_bucket(self, pairs, nparts):
        buckets = partition_pairs(pairs, nparts)
        seen: dict = {}
        for b, bucket in buckets.items():
            for k, _ in bucket:
                assert seen.setdefault(k, b) == b


class TestGrouping:
    @given(pairs_lists)
    @settings(max_examples=100, deadline=None)
    def test_grouping_preserves_multiset(self, pairs):
        groups = sort_and_group(pairs)
        rebuilt = [(k, v) for k, vs in groups for v in vs]
        assert PyCounter(rebuilt) == PyCounter(pairs)

    @given(pairs_lists)
    @settings(max_examples=100, deadline=None)
    def test_each_key_appears_once(self, pairs):
        groups = sort_and_group(pairs)
        group_keys = [k for k, _ in groups]
        assert len(group_keys) == len(set(map(repr, group_keys)))

    @given(pairs_lists)
    @settings(max_examples=100, deadline=None)
    def test_values_keep_arrival_order_within_key(self, pairs):
        groups = dict(
            (repr(k), vs) for k, vs in sort_and_group(pairs)
        )
        arrival: dict = {}
        for k, v in pairs:
            arrival.setdefault(repr(k), []).append(v)
        assert groups == arrival


class TestMerge:
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 20), st.integers()), max_size=30),
            max_size=5,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_then_group_equals_group_of_concat(self, per_map, nparts):
        """The shuffle pipeline (per-map partition -> merge -> group) sees
        exactly the concatenated pairs, regardless of how maps split them."""
        partitioned = [
            partition_pairs(pairs, nparts) for pairs in per_map
        ]
        merged = merge_map_outputs(partitioned, nparts)
        rebuilt = [p for bucket in merged.values() for p in bucket]
        flat = [p for pairs in per_map for p in pairs]
        assert PyCounter(rebuilt) == PyCounter(flat)
