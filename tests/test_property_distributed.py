"""Property-based tests across the distributed layers: the streaming
protocol and Spark RDD algebra."""

from hypothesis import given, settings, strategies as st

from repro.mapreduce.streaming import parse_kv_line
from repro.spark import SparkContext


class TestStreamingProtocolProperties:
    @given(st.text(alphabet=st.characters(blacklist_characters="\t\n\r"), max_size=20),
           st.text(alphabet=st.characters(blacklist_characters="\n\r"), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_kv_line_roundtrip(self, key, value):
        line = f"{key}\t{value}"
        k, v = parse_kv_line(line)
        assert k == key and v == value

    @given(st.text(alphabet=st.characters(blacklist_characters="\t\n\r"), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_tabless_line_is_key_only(self, text):
        assert parse_kv_line(text) == (text, "")


class TestSparkAlgebraProperties:
    @given(st.lists(st.integers(-100, 100), max_size=50), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_collect_is_identity(self, data, parts):
        sc = SparkContext()
        assert sc.parallelize(data, parts).collect() == data

    @given(st.lists(st.integers(-50, 50), max_size=40), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_map_then_filter_equals_python(self, data, parts):
        sc = SparkContext()
        out = (
            sc.parallelize(data, parts)
            .map(lambda x: x * 3)
            .filter(lambda x: x % 2 == 0)
            .collect()
        )
        assert out == [x * 3 for x in data if (x * 3) % 2 == 0]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-10, 10)), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_reduce_by_key_matches_python(self, pairs):
        sc = SparkContext()
        out = sc.parallelize(pairs, 3).reduce_by_key(lambda a, b: a + b, 4).collect_as_map()
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert out == expected

    @given(st.lists(st.integers(0, 20), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_distinct_matches_set(self, data):
        sc = SparkContext()
        assert sorted(sc.parallelize(data, 2).distinct().collect()) == sorted(set(data))
