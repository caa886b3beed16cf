"""Plain key grouping in the shuffle's sort-and-group step."""

from repro.mapreduce.shuffle import sort_and_group


class TestSecondarySortUnit:
    def test_no_grouping_fn_unchanged(self):
        pairs = [("b", 1), ("a", 2)]
        assert sort_and_group(pairs) == [("a", [2]), ("b", [1])]
